#include "workload/b2w_schema.h"

#include <charconv>
#include <cstring>
#include <iterator>
#include <limits>

namespace pstore {
namespace {

/// Parses the number at *pos, which `sep` must follow before `limit`,
/// and moves *pos past the separator.
template <typename T>
bool ParseField(const char** pos, const char* limit, char sep, T* value) {
  const auto [ptr, ec] = std::from_chars(*pos, limit, *value);
  if (ec != std::errc() || ptr == limit || *ptr != sep) return false;
  *pos = ptr + 1;
  return true;
}

}  // namespace

Result<B2wTables> RegisterB2wTables(Catalog* catalog) {
  B2wTables tables;
  {
    auto id = catalog->AddTable(Schema(
        "CART",
        {{"cart_id", ColumnType::kInt64},
         {"customer_id", ColumnType::kInt64},
         {"status", ColumnType::kString},
         {"total", ColumnType::kDouble},
         {"lines", ColumnType::kString}},
        /*partition_key_column=*/0));
    if (!id.ok()) return id.status();
    tables.cart = *id;
  }
  {
    auto id = catalog->AddTable(Schema(
        "CHECKOUT",
        {{"checkout_id", ColumnType::kInt64},
         {"cart_id", ColumnType::kInt64},
         {"status", ColumnType::kString},
         {"amount_due", ColumnType::kDouble},
         {"payment", ColumnType::kString},
         {"lines", ColumnType::kString}},
        /*partition_key_column=*/0));
    if (!id.ok()) return id.status();
    tables.checkout = *id;
  }
  {
    auto id = catalog->AddTable(Schema(
        "STOCK",
        {{"stock_id", ColumnType::kInt64},
         {"available", ColumnType::kInt64},
         {"reserved", ColumnType::kInt64},
         {"purchased", ColumnType::kInt64}},
        /*partition_key_column=*/0));
    if (!id.ok()) return id.status();
    tables.stock = *id;
  }
  {
    auto id = catalog->AddTable(Schema(
        "STOCK_TRANSACTION",
        {{"stock_tx_id", ColumnType::kInt64},
         {"checkout_id", ColumnType::kInt64},
         {"stock_id", ColumnType::kInt64},
         {"qty", ColumnType::kInt64},
         {"status", ColumnType::kString}},
        /*partition_key_column=*/0));
    if (!id.ok()) return id.status();
    tables.stock_transaction = *id;
  }
  return tables;
}

std::string EncodeLines(const std::vector<LineItem>& lines) {
  std::string out;
  EncodeLinesTo(lines, &out);
  return out;
}

void EncodeLinesTo(const std::vector<LineItem>& lines, std::string* out) {
  // "%lld:%lld:%.2f;" without printf: std::to_chars in fixed format with
  // precision 2 prints exactly what printf's %.2f does.
  out->clear();
  char buf[std::numeric_limits<double>::max_exponent10 + 8];
  const auto append = [out, &buf](auto... value_and_format) {
    out->append(buf, std::to_chars(std::begin(buf), std::end(buf),
                                   value_and_format...)
                         .ptr);
  };
  for (const auto& line : lines) {
    append(line.sku);
    *out += ':';
    append(line.quantity);
    *out += ':';
    append(line.unit_price, std::chars_format::fixed, 2);
    *out += ';';
  }
}

Result<std::vector<LineItem>> DecodeLines(std::string_view encoded) {
  std::vector<LineItem> lines;
  PSTORE_RETURN_NOT_OK(DecodeLinesTo(encoded, &lines));
  return lines;
}

Status DecodeLinesTo(std::string_view encoded, std::vector<LineItem>* out) {
  std::vector<LineItem>& lines = *out;
  lines.clear();
  const char* item = encoded.data();
  const char* const end = item + encoded.size();
  while (item < end) {
    const auto* semi = static_cast<const char*>(
        std::memchr(item, ';', static_cast<size_t>(end - item)));
    if (semi == nullptr) {
      return Status::InvalidArgument("unterminated line item");
    }
    LineItem line;
    const char* pos = item;
    if (!ParseField(&pos, semi, ':', &line.sku) ||
        !ParseField(&pos, semi, ':', &line.quantity) ||
        !ParseField(&pos, semi + 1, ';', &line.unit_price)) {
      return Status::InvalidArgument("bad line item: " +
                                     std::string(item, semi));
    }
    lines.push_back(line);
    item = pos;
  }
  return Status::OK();
}

double LinesTotal(const std::vector<LineItem>& lines) {
  double total = 0;
  for (const auto& line : lines) {
    total += static_cast<double>(line.quantity) * line.unit_price;
  }
  return total;
}

}  // namespace pstore
