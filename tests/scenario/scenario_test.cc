#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "../test_util.h"
#include "scenario/scenario.h"

/// Tests for the scenario table (src/scenario): every row replays
/// identically from its seed and meets its acceptance predicates there,
/// every row with a seed-drawn plan diverges across seeds, every row is a
/// valid configuration, and the result comparison chaos_run's replay
/// check relies on trips on a single differing counter.

namespace pstore {
namespace scenario {
namespace {

std::vector<std::string> RowNames(bool random_plans_only) {
  std::vector<std::string> names;
  for (const Scenario& s : Scenarios()) {
    if (!random_plans_only || s.script.empty()) names.push_back(s.name);
  }
  return names;
}

std::string RowName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

class ScenarioRowTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioRowTest, SameSeedReplaysIdentically) {
  testing_util::ExpectReplaysIdentically(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllRows, ScenarioRowTest,
                         ::testing::ValuesIn(RowNames(false)), RowName);

/// Rows whose fault plan is drawn from the seed.
class RandomPlanRowTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RandomPlanRowTest, DifferentSeedsDiverge) {
  testing_util::ExpectSeedsDiverge(GetParam());
}

INSTANTIATE_TEST_SUITE_P(RandomPlanRows, RandomPlanRowTest,
                         ::testing::ValuesIn(RowNames(true)), RowName);

TEST(ScenarioTableTest, RowsAreUniquelyNamedAndValid) {
  std::set<std::string> names;
  for (const Scenario& s : Scenarios()) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_FALSE(s.summary.empty()) << s.name;
    EXPECT_TRUE(s.engine.Validate().ok()) << s.name;
    EXPECT_TRUE(s.migration.Validate().ok()) << s.name;
    if (s.script.empty()) {
      EXPECT_TRUE(s.chaos.Validate().ok()) << s.name;
    } else {
      EXPECT_TRUE(FaultPlan{s.script}.Validate().ok()) << s.name;
    }
    EXPECT_GT(s.run_seconds, 0) << s.name;
    EXPECT_GT(s.drain_seconds, 0) << s.name;
  }
  EXPECT_EQ(FindScenario("nope"), nullptr);
  ASSERT_NE(FindScenario("plain"), nullptr);
  EXPECT_EQ(FindScenario("plain"), &Scenarios().front());
}

ScenarioResult Fake() {
  ScenarioResult r;
  r.plan = "plan";
  r.trace = "trace";
  r.counters = {{"committed", 10}, {"fallbacks", 1}, {"rereplicates", 2}};
  return r;
}

TEST(ScenarioResultTest, FirstDifferenceTripsOnOneCounter) {
  const ScenarioResult a = Fake();
  ScenarioResult b = Fake();
  EXPECT_EQ(FirstDifference(a, b), "");
  b.counters[0].second = 11;
  EXPECT_EQ(FirstDifference(a, b), "counter committed: 10 vs 11");
  b = Fake();
  b.counters.pop_back();
  EXPECT_NE(FirstDifference(a, b), "");
  b = Fake();
  b.violations.push_back("v");
  EXPECT_NE(FirstDifference(a, b), "");
  b = Fake();
  b.status = Status::Internal("audit");
  EXPECT_NE(FirstDifference(a, b), "");
}

TEST(ScenarioResultTest, ChecksCompareNamedCounters) {
  const ScenarioResult r = Fake();
  EXPECT_EQ(r.counter("committed"), 10);
  EXPECT_THROW(r.counter("comitted"), std::out_of_range);
  EXPECT_THROW(Holds({"comitted", Op::kEq, 10}, r), std::out_of_range);
  EXPECT_TRUE(Holds({"committed", Op::kEq, 10}, r));
  EXPECT_FALSE(Holds({"committed", Op::kEq, 9}, r));
  EXPECT_TRUE(Holds({"committed", Op::kGt, 9}, r));
  EXPECT_FALSE(Holds({"committed", Op::kGt, 10}, r));
  EXPECT_TRUE(Holds({"committed", Op::kGe, 10}, r));
  EXPECT_FALSE(Holds({"committed", Op::kGe, 11}, r));
}

}  // namespace
}  // namespace scenario
}  // namespace pstore
