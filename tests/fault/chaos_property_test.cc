#include <gtest/gtest.h>

#include "../test_util.h"

/// The fault sweep (scenario row "fault_sweep"): a 3-node cluster with
/// 200 preloaded rows under a steady read-only load and a reactive
/// controller, with a random crash/restart/stall/chunk/misforecast plan
/// derived from each seed and an invariant check every virtual second.

namespace pstore {
namespace {

using testing_util::ExpectNoViolations;

scenario::ScenarioResult RunChaos(uint64_t seed) {
  return testing_util::RunRow("fault_sweep", seed);
}

// The 50-seed sweep is sharded 5 seeds per ctest unit so `ctest -j`
// runs shards concurrently (and a failure names a 5-seed range, not a
// 50-seed monolith). The shard parameter is the first seed.
constexpr uint64_t kSeedsPerShard = 5;

class ChaosSeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSeedShard, ZeroInvariantViolations) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const scenario::ScenarioResult out = RunChaos(seed);
    ExpectNoViolations(seed, out);
    EXPECT_GT(out.counter("checks"), 60) << "seed " << seed;
    EXPECT_GT(out.counter("committed"), 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, ChaosSeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

TEST(ChaosPropertyTest, SweepExercisesFaultMachinery) {
  // Aggregate over the whole sweep (crashes are unevenly distributed
  // across seeds, so a prefix would be flaky): the plans must actually
  // crash nodes and trigger migrations, not skip the fault paths. The
  // per-seed invariants live in the shards; this unit only accumulates
  // counters, and runs concurrently with them under `ctest -j`.
  int64_t total_crashes = 0;
  int64_t runs_with_migration = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const scenario::ScenarioResult out = RunChaos(seed);
    total_crashes += out.counter("crashes");
    if (out.counter("moves") > 0) ++runs_with_migration;
  }
  EXPECT_GT(total_crashes, 10);
  EXPECT_GT(runs_with_migration, 10);
}

}  // namespace
}  // namespace pstore
