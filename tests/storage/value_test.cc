#include "storage/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"

namespace pstore {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int64());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, Int64) {
  Value v(int64_t{42});
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.as_int64(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, Double) {
  Value v(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.as_double(), 2.5);
  EXPECT_EQ(v.ToString(), "2.5");
}

TEST(ValueTest, StringAndCString) {
  Value a(std::string("hi"));
  Value b("hi");
  EXPECT_TRUE(a.is_string());
  EXPECT_TRUE(b.is_string());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToString(), "'hi'");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_FALSE(Value(int64_t{1}) == Value(int64_t{2}));
  EXPECT_FALSE(Value(int64_t{1}) == Value(1.0));
  EXPECT_EQ(Value(), Value());
}

TEST(ValueTest, ByteSizeScalesWithStrings) {
  EXPECT_EQ(Value().ByteSize(), 1u);
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_GT(Value(std::string(100, 'x')).ByteSize(), 100u);
}

// The representation Value replaced, kept here as the reference: the
// same type set, with std::variant's equality and the old ByteSize and
// ToString rules.
using RefValue = std::variant<std::monostate, int64_t, double, std::string>;

Value FromRef(const RefValue& r) {
  switch (r.index()) {
    case 1:
      return Value(std::get<int64_t>(r));
    case 2:
      return Value(std::get<double>(r));
    case 3:
      return Value(std::get<std::string>(r));
  }
  return Value();
}

size_t RefByteSize(const RefValue& r) {
  if (r.index() == 0) return 1;
  if (r.index() == 3) return 16 + std::get<std::string>(r).size();
  return 8;
}

std::string RefToString(const RefValue& r) {
  switch (r.index()) {
    case 1:
      return std::to_string(std::get<int64_t>(r));
    case 2: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(r));
      return buf;
    }
    case 3:
      return "'" + std::get<std::string>(r) + "'";
  }
  return "NULL";
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Type, payload (doubles bit for bit), ByteSize and ToString.
void ExpectMatches(const Value& v, const RefValue& r, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(v.is_null(), r.index() == 0);
  ASSERT_EQ(v.is_int64(), r.index() == 1);
  ASSERT_EQ(v.is_double(), r.index() == 2);
  ASSERT_EQ(v.is_string(), r.index() == 3);
  if (r.index() == 1) {
    EXPECT_EQ(v.as_int64(), std::get<int64_t>(r));
  } else if (r.index() == 2) {
    EXPECT_TRUE(SameBits(v.as_double(), std::get<double>(r)));
  } else if (r.index() == 3) {
    EXPECT_EQ(v.as_string(), std::get<std::string>(r));
  }
  EXPECT_EQ(v.ByteSize(), RefByteSize(r));
  EXPECT_EQ(v.ToString(), RefToString(r));
}

RefValue RandomRef(Rng& rng) {
  static const int64_t kInts[] = {std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(), 0, -1,
                                  1};
  static const double kDoubles[] = {std::numeric_limits<double>::quiet_NaN(),
                                    -0.0,
                                    0.0,
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    1.5};
  switch (rng.NextBounded(4)) {
    case 0:
      return std::monostate{};
    case 1:
      if (rng.NextBernoulli(0.5)) return kInts[rng.NextBounded(5)];
      return static_cast<int64_t>(rng.Next());
    case 2:
      if (rng.NextBernoulli(0.5)) return kDoubles[rng.NextBounded(6)];
      return rng.NextGaussian(0.0, 1e6);
  }
  // Lengths 0-64, with extra weight on the 14/15-byte inline edge, over
  // a small alphabet that includes NUL so equal strings recur.
  const size_t len = rng.NextBernoulli(0.3) ? 13 + rng.NextBounded(4)
                                            : rng.NextBounded(65);
  std::string s(len, '\0');
  for (char& c : s) c = "\0ab"[rng.NextBounded(3)];
  return s;
}

TEST(ValueTest, MatchesVariantReference) {
  Rng rng(22);
  // Draw from a pool so equal pairs (and NaN against itself) recur.
  std::vector<RefValue> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(RandomRef(rng));
  for (int i = 0; i < 10000; ++i) {
    const RefValue ra = rng.NextBernoulli(0.5)
                            ? pool[rng.NextBounded(pool.size())]
                            : RandomRef(rng);
    const RefValue rb = pool[rng.NextBounded(pool.size())];
    const Value a = FromRef(ra);
    const Value b = FromRef(rb);
    ExpectMatches(a, ra, "constructed");
    EXPECT_EQ(a == b, ra == rb) << RefToString(ra) << " vs "
                                << RefToString(rb);
    EXPECT_EQ(a == a, ra == ra) << RefToString(ra);

    Value copy(a);
    ExpectMatches(copy, ra, "copy");
    ExpectMatches(a, ra, "copy source");
    Value moved(std::move(copy));
    ExpectMatches(moved, ra, "move");
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)

    Value assigned = FromRef(rb);
    assigned = a;
    ExpectMatches(assigned, ra, "copy-assign");
    ExpectMatches(a, ra, "copy-assign source");
    Value move_assigned = FromRef(rb);
    move_assigned = std::move(assigned);
    ExpectMatches(move_assigned, ra, "move-assign");

    Value& alias = move_assigned;
    move_assigned = alias;
    ExpectMatches(move_assigned, ra, "self copy-assign");
    move_assigned = std::move(alias);
    ExpectMatches(move_assigned, ra, "self move-assign");
    if (HasFailure()) FAIL() << "diverged at draw " << i;
  }
}

TEST(RowTest, BasicAccess) {
  Row r({Value(int64_t{1}), Value("a")});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at(0).as_int64(), 1);
  EXPECT_EQ(r.at(1).as_string(), "a");
}

TEST(RowTest, SetGrowsRow) {
  Row r;
  r.Set(2, Value(int64_t{9}));
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.at(0).is_null());
  EXPECT_EQ(r.at(2).as_int64(), 9);
}

TEST(RowTest, Equality) {
  Row a({Value(int64_t{1}), Value("x")});
  Row b({Value(int64_t{1}), Value("x")});
  Row c({Value(int64_t{2}), Value("x")});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(RowTest, ToString) {
  Row r({Value(int64_t{1}), Value("a"), Value()});
  EXPECT_EQ(r.ToString(), "(1, 'a', NULL)");
}

TEST(RowTest, ByteSizeIncludesValues) {
  Row small({Value(int64_t{1})});
  Row big({Value(int64_t{1}), Value(std::string(1000, 'y'))});
  EXPECT_GT(big.ByteSize(), small.ByteSize() + 900);
}

TEST(RowTest, ByteSizeIsTheModelledFootprint) {
  // 24 header bytes, 40 per Value slot, plus each value's own bytes.
  EXPECT_EQ(Row({Value(int64_t{1}), Value(int64_t{2})}).ByteSize(), 120u);
  EXPECT_EQ(Row({Value(0.5), Value("abc")}).ByteSize(), 131u);
  EXPECT_EQ(Row().ByteSize(), Row::kRowHeaderBytes);
}

TEST(RowTest, CopySharesUntilSetClones) {
  const Row original({Value(int64_t{1}), Value("a")});
  Row copy = original;
  EXPECT_EQ(copy, original);
  copy.Set(1, Value("b"));
  EXPECT_EQ(original.at(1).as_string(), "a");
  EXPECT_EQ(copy.at(1).as_string(), "b");
  EXPECT_FALSE(copy == original);
}

TEST(RowTest, MutableAtClonesSharedBody) {
  const Row original({Value(int64_t{1}), Value(int64_t{2})});
  Row copy = original;
  copy.at(0) = Value(int64_t{10});
  EXPECT_EQ(original.at(0).as_int64(), 1);
  EXPECT_EQ(copy.at(0).as_int64(), 10);
  EXPECT_EQ(copy.at(1).as_int64(), 2);
}

TEST(RowTest, GrowingSetOfSharedRowPadsWithNulls) {
  const Row original({Value(int64_t{1}), Value("keep")});
  Row copy = original;
  copy.Set(4, Value("x"));
  ASSERT_EQ(copy.size(), 5u);
  EXPECT_EQ(copy.at(0).as_int64(), 1);
  EXPECT_EQ(copy.at(1).as_string(), "keep");
  EXPECT_TRUE(copy.at(2).is_null());
  EXPECT_TRUE(copy.at(3).is_null());
  EXPECT_EQ(copy.at(4).as_string(), "x");
  // The shared values were copied, not moved out from under `original`.
  ASSERT_EQ(original.size(), 2u);
  EXPECT_EQ(original.at(0).as_int64(), 1);
  EXPECT_EQ(original.at(1).as_string(), "keep");
}

TEST(RowTest, CopiesOutliveTheOriginal) {
  Row survivor;
  {
    Row original({Value(int64_t{1}), Value(std::string(64, 'z'))});
    survivor = original;
    Row moved = std::move(original);
    moved.Set(0, Value(int64_t{2}));
  }
  ASSERT_EQ(survivor.size(), 2u);
  EXPECT_EQ(survivor.at(0).as_int64(), 1);
  EXPECT_EQ(survivor.at(1).as_string(), std::string(64, 'z'));
}

TEST(RowTest, SetOnSharedRowClonesHeapStrings) {
  const std::string long_a(40, 'a');
  const std::string long_b(50, 'b');
  const Row original({Value(int64_t{1}), Value(long_a), Value(long_b)});
  {
    Row copy = original;
    copy.Set(1, Value("short"));
    EXPECT_EQ(copy.at(1).as_string(), "short");
    EXPECT_EQ(copy.at(2).as_string(), long_b);
    // The clone owns its own block for the string it did not touch.
    EXPECT_NE(copy.at(2).as_string().data(),
              original.at(2).as_string().data());
  }
  // The clone is gone; the original's strings survive it.
  EXPECT_EQ(original.at(1).as_string(), long_a);
  EXPECT_EQ(original.at(2).as_string(), long_b);
}

TEST(RowTest, GrowthMovesUnsharedHeapStringsAndCopiesShared) {
  const std::string long_s(30, 's');
  Row unshared({Value(int64_t{1}), Value(long_s)});
  const char* block = unshared.at(1).as_string().data();
  unshared.Set(3, Value(int64_t{4}));
  ASSERT_EQ(unshared.size(), 4u);
  EXPECT_EQ(unshared.at(1).as_string().data(), block);  // moved, not copied
  EXPECT_EQ(unshared.at(1).as_string(), long_s);

  const Row original({Value(long_s)});
  Row grown = original;
  grown.Set(2, Value(long_s + "!"));
  ASSERT_EQ(grown.size(), 3u);
  EXPECT_NE(grown.at(0).as_string().data(), original.at(0).as_string().data());
  EXPECT_EQ(grown.at(0).as_string(), long_s);
  EXPECT_TRUE(grown.at(1).is_null());
  EXPECT_EQ(grown.at(2).as_string(), long_s + "!");
  ASSERT_EQ(original.size(), 1u);
  EXPECT_EQ(original.at(0).as_string(), long_s);
}

TEST(ColumnTypeTest, Names) {
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kInt64), "BIGINT");
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kDouble), "DOUBLE");
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kString), "VARCHAR");
}

}  // namespace
}  // namespace pstore
