#include "workload/b2w_schema.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"

namespace pstore {
namespace {

TEST(B2wSchemaTest, RegistersFourTables) {
  Catalog catalog;
  auto tables = RegisterB2wTables(&catalog);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(catalog.num_tables(), 4u);
  EXPECT_EQ(catalog.GetSchema(tables->cart).name(), "CART");
  EXPECT_EQ(catalog.GetSchema(tables->checkout).name(), "CHECKOUT");
  EXPECT_EQ(catalog.GetSchema(tables->stock).name(), "STOCK");
  EXPECT_EQ(catalog.GetSchema(tables->stock_transaction).name(),
            "STOCK_TRANSACTION");
}

TEST(B2wSchemaTest, AllTablesPartitionedByFirstColumn) {
  Catalog catalog;
  auto tables = RegisterB2wTables(&catalog);
  ASSERT_TRUE(tables.ok());
  for (size_t t = 0; t < catalog.num_tables(); ++t) {
    EXPECT_EQ(catalog.GetSchema(static_cast<TableId>(t))
                  .partition_key_column(),
              0u);
    EXPECT_EQ(catalog.GetSchema(static_cast<TableId>(t)).columns()[0].type,
              ColumnType::kInt64);
  }
}

TEST(B2wSchemaTest, DoubleRegistrationFails) {
  Catalog catalog;
  ASSERT_TRUE(RegisterB2wTables(&catalog).ok());
  EXPECT_FALSE(RegisterB2wTables(&catalog).ok());
}

TEST(LineItemsTest, EncodeDecodeRoundTrip) {
  std::vector<LineItem> lines = {
      {100, 2, 19.99}, {200, 1, 5.50}, {300, 10, 0.25}};
  auto decoded = DecodeLines(EncodeLines(lines));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].sku, 100);
  EXPECT_EQ((*decoded)[0].quantity, 2);
  EXPECT_NEAR((*decoded)[0].unit_price, 19.99, 1e-9);
  EXPECT_EQ((*decoded)[2].sku, 300);
}

TEST(LineItemsTest, EmptyEncodesToEmpty) {
  EXPECT_EQ(EncodeLines({}), "");
  auto decoded = DecodeLines("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(LineItemsTest, MalformedInputRejected) {
  EXPECT_FALSE(DecodeLines("1:2:3").ok());       // unterminated
  EXPECT_FALSE(DecodeLines("1-2-3;").ok());      // wrong separators
  EXPECT_FALSE(DecodeLines("abc;").ok());
  EXPECT_TRUE(DecodeLines("1:2:abc;").status().IsInvalidArgument());
  EXPECT_TRUE(DecodeLines("1:2:3.5x;").status().IsInvalidArgument());
}

TEST(LineItemsTest, LinesTotal) {
  std::vector<LineItem> lines = {{1, 2, 10.0}, {2, 3, 1.5}};
  EXPECT_DOUBLE_EQ(LinesTotal(lines), 24.5);
  EXPECT_DOUBLE_EQ(LinesTotal({}), 0.0);
}

TEST(LineItemsTest, LargeSkusSurviveRoundTrip) {
  std::vector<LineItem> lines = {{int64_t{1} << 55, 1, 9.99}};
  auto decoded = DecodeLines(EncodeLines(lines));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].sku, int64_t{1} << 55);
}

// The historical printf codec. EncodeLines must match it byte for byte:
// Value::ByteSize of the lines column feeds bucket bytes, migration
// chunking, and kB moved.
std::string PrintfEncode(const std::vector<LineItem>& lines) {
  std::string out;
  char buf[96];
  for (const auto& line : lines) {
    std::snprintf(buf, sizeof(buf), "%lld:%lld:%.2f;",
                  static_cast<long long>(line.sku),
                  static_cast<long long>(line.quantity), line.unit_price);
    out += buf;
  }
  return out;
}

std::vector<LineItem> StrtodDecode(const std::string& encoded) {
  std::vector<LineItem> lines;
  for (size_t pos = 0; pos < encoded.size();) {
    const size_t end = encoded.find(';', pos);
    const std::string item = encoded.substr(pos, end - pos);
    char* cursor = nullptr;
    LineItem line;
    line.sku = std::strtoll(item.c_str(), &cursor, 10);
    line.quantity = std::strtoll(cursor + 1, &cursor, 10);
    line.unit_price = std::strtod(cursor + 1, &cursor);
    lines.push_back(line);
    pos = end + 1;
  }
  return lines;
}

// Random SKUs up to 2^62, half-cent rounding edges (x.xx5), large
// prices, and arbitrary fractions, in lists of one to five items.
LineItem RandomLineItem(Rng& rng, int shape) {
  LineItem line;
  line.sku = rng.NextInt(-1000, int64_t{1} << 62);
  line.quantity = rng.NextInt(-5, 1000);
  const auto cents = static_cast<double>(rng.NextBounded(10000000));
  switch (shape) {
    case 0:
      line.unit_price = cents / 100.0;
      break;
    case 1:
      line.unit_price = cents / 100.0 + 0.005;
      break;
    case 2:
      line.unit_price =
          rng.NextDouble() * std::pow(10.0, rng.NextInt(10, 60));
      break;
    default:
      line.unit_price = (rng.NextDouble() - 0.1) * 1000.0;
      break;
  }
  return line;
}

TEST(LineItemsTest, CodecMatchesPrintfAndStrtodReference) {
  for (double price : {0.005, 0.015, 0.125, 1.005, 2.675, 1e15 + 0.125}) {
    EXPECT_EQ(EncodeLines({{1, 1, price}}), PrintfEncode({{1, 1, price}}));
  }
  Rng rng(13);
  int items = 0;
  while (items < 10000) {
    std::vector<LineItem> lines(1 + rng.NextBounded(5));
    for (auto& line : lines) {
      line = RandomLineItem(rng, items++ % 4);
    }
    const std::string encoded = EncodeLines(lines);
    ASSERT_EQ(encoded, PrintfEncode(lines));
    auto decoded = DecodeLines(encoded);
    ASSERT_TRUE(decoded.ok()) << encoded;
    const std::vector<LineItem> want = StrtodDecode(encoded);
    ASSERT_EQ(decoded->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*decoded)[i].sku, want[i].sku);
      EXPECT_EQ((*decoded)[i].quantity, want[i].quantity);
      EXPECT_EQ((*decoded)[i].unit_price, want[i].unit_price) << encoded;
    }
  }
}

// The buffer-reusing codec, one string and one vector carried across
// every list (so each call starts from the previous, longer or shorter,
// contents), against the returning codec and the printf/strtod
// references; malformed input fails the same way.
TEST(LineItemsTest, ReusedBuffersMatchTheReturningCodec) {
  Rng rng(13);
  std::string encoded = "left over from an earlier call;";
  std::vector<LineItem> decoded(7, LineItem{9, 9, 9.0});
  int items = 0;
  while (items < 10000) {
    std::vector<LineItem> lines(1 + rng.NextBounded(5));
    for (auto& line : lines) {
      line = RandomLineItem(rng, items++ % 4);
    }
    EncodeLinesTo(lines, &encoded);
    ASSERT_EQ(encoded, EncodeLines(lines));
    ASSERT_EQ(encoded, PrintfEncode(lines));
    ASSERT_TRUE(DecodeLinesTo(encoded, &decoded).ok()) << encoded;
    const std::vector<LineItem> want = StrtodDecode(encoded);
    ASSERT_EQ(decoded.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(decoded[i].sku, want[i].sku);
      EXPECT_EQ(decoded[i].quantity, want[i].quantity);
      EXPECT_EQ(decoded[i].unit_price, want[i].unit_price) << encoded;
    }
  }
  EncodeLinesTo({}, &encoded);
  EXPECT_EQ(encoded, "");
  ASSERT_TRUE(DecodeLinesTo("", &decoded).ok());
  EXPECT_TRUE(decoded.empty());
  for (const char* bad :
       {"1:2:3", "1-2-3;", "abc;", "1:2:abc;", "1:2:3.5x;", "1:2:3;4:5"}) {
    const Status status = DecodeLinesTo(bad, &decoded);
    EXPECT_TRUE(status.IsInvalidArgument()) << bad;
    EXPECT_EQ(status.ToString(), DecodeLines(bad).status().ToString()) << bad;
  }
  // A failed decode leaves the buffer reusable.
  ASSERT_TRUE(DecodeLinesTo("4:5:6.00;", &decoded).ok());
  EXPECT_EQ(decoded, (std::vector<LineItem>{{4, 5, 6.0}}));
}

}  // namespace
}  // namespace pstore
