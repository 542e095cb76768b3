#include "bench_util.h"

#include <gtest/gtest.h>

namespace pstore {
namespace bench {
namespace {

using scenario::Op;

TEST(PaperRowsTest, EachOpHoldsOnlyOnItsSideOfTheBound) {
  EXPECT_TRUE(Holds({"eq", 11, Op::kEq, 11}));
  EXPECT_FALSE(Holds({"eq below", 10, Op::kEq, 11}));
  EXPECT_FALSE(Holds({"eq above", 12, Op::kEq, 11}));

  EXPECT_TRUE(Holds({"gt", 2, Op::kGt, 1}));
  EXPECT_FALSE(Holds({"gt at", 1, Op::kGt, 1}));
  EXPECT_FALSE(Holds({"gt below", 0, Op::kGt, 1}));

  EXPECT_TRUE(Holds({"ge above", 2, Op::kGe, 1}));
  EXPECT_TRUE(Holds({"ge at", 1, Op::kGe, 1}));
  EXPECT_FALSE(Holds({"ge below", 0.999, Op::kGe, 1}));
}

TEST(PaperRowsTest, LessThanIsGreaterThanWithSidesSwapped) {
  // "P-Store (17) < Static (48)" is written Static > P-Store.
  const double pstore = 17, static_minutes = 48;
  EXPECT_TRUE(Holds({"P-Store < Static", static_minutes, Op::kGt, pstore}));
  EXPECT_FALSE(Holds({"Static < P-Store", pstore, Op::kGt, static_minutes}));
}

TEST(PaperRowsTest, OneFailedRowFailsTheEvaluation) {
  EXPECT_TRUE(CheckPaperRows({{"a", 1, Op::kEq, 1}, {"b", 3, Op::kGt, 2}}));
  EXPECT_FALSE(CheckPaperRows({{"a", 1, Op::kEq, 1},
                               {"b", 2, Op::kGt, 3},
                               {"c", 4, Op::kGe, 4}}));
  EXPECT_TRUE(CheckPaperRows({}));
}

}  // namespace
}  // namespace bench
}  // namespace pstore
