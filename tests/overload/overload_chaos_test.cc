#include <gtest/gtest.h>

#include "../test_util.h"

/// Chaos property tests for the overload-control stack (scenario row
/// "overload_sweep"): node crashes and load spikes against a cluster
/// running bounded queues, deadline shedding, priority eviction,
/// per-node breakers, breaker-aware reactive scaling, and a client retry
/// budget. Every seed must keep every invariant (including shed
/// conservation).

namespace pstore {
namespace {

using testing_util::ExpectNoViolations;

/// 3 nodes saturating at ~300 txn/s, a 100 txn/s base load amplified
/// live by kLoadSpike windows (2x-8x), crash/restart faults in the same
/// plan, and shed-aware retries.
scenario::ScenarioResult RunOverloadChaos(uint64_t seed) {
  return testing_util::RunRow("overload_sweep", seed);
}

// The 50-seed sweep is sharded 5 seeds per ctest unit so `ctest -j`
// runs shards concurrently (and a failure names a 5-seed range, not a
// 50-seed monolith). The shard parameter is the first seed.
constexpr uint64_t kSeedsPerShard = 5;

class OverloadSeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverloadSeedShard, ZeroViolationsWithActiveOverload) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const scenario::ScenarioResult out = RunOverloadChaos(seed);
    ExpectNoViolations(seed, out);
    EXPECT_GT(out.counter("committed"), 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, OverloadSeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

TEST(OverloadChaosTest, SweepExercisesOverloadMachinery) {
  // Scaled-down aggregate over the first ten seeds: spikes fire, queues
  // shed, breakers trip, retries spend budget, and the breaker-aware
  // controller scales out as its safety net. (The per-seed invariants
  // live in the shards.)
  int64_t total_trips = 0, total_spikes = 0, total_crashes = 0;
  int64_t total_shed = 0, total_scale_outs = 0, total_retries = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const scenario::ScenarioResult out = RunOverloadChaos(seed);
    total_trips += out.counter("breaker_trips");
    total_spikes += out.counter("load_spikes");
    total_crashes += out.counter("crashes");
    total_shed += out.counter("shed");
    total_scale_outs += out.counter("scale_outs");
    total_retries += out.counter("retries");
  }
  EXPECT_GT(total_spikes, 4);
  EXPECT_GT(total_crashes, 2);
  EXPECT_GT(total_shed, 200);
  EXPECT_GT(total_trips, 2);
  EXPECT_GT(total_retries, 20);
  EXPECT_GT(total_scale_outs, 2);
}

}  // namespace
}  // namespace pstore
