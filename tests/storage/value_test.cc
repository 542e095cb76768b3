#include "storage/value.h"

#include <gtest/gtest.h>

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

TEST(ColumnTypeTest, Names) {
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kInt64), "BIGINT");
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kDouble), "DOUBLE");
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kString), "VARCHAR");
}

}  // namespace
}  // namespace pstore
