#include <gtest/gtest.h>

#include "../test_util.h"

/// Chaos property tests for the replication stack (scenario row
/// "replication_sweep"): random crash / restart / replica-lag plans
/// against a k=1 cluster running a write workload, with scoped crash
/// targeting (primary-heavy, backup-heavy) and a reactive controller
/// that treats recovery as overload. Every seed must keep every
/// invariant — placement sanity, primary/backup row-set equality,
/// k-safety restoration liveness, and rows_lost-aware conservation.

namespace pstore {
namespace {

using testing_util::ExpectNoViolations;

/// 3 nodes, k=1, a mixed Put/Get load, and a random crash/restart/lag
/// plan whose auto-targeted crashes alternate between primary-heavy and
/// backup-heavy scoping.
scenario::ScenarioResult RunReplicationChaos(uint64_t seed) {
  return testing_util::RunRow("replication_sweep", seed);
}

// The 50-seed sweep is sharded 5 seeds per ctest unit so `ctest -j`
// runs shards concurrently (and a failure names a 5-seed range, not a
// 50-seed monolith). The shard parameter is the first seed.
constexpr uint64_t kSeedsPerShard = 5;

class ReplicationSeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationSeedShard, ZeroViolationsWithActiveReplication) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const scenario::ScenarioResult out = RunReplicationChaos(seed);
    ExpectNoViolations(seed, out);
    EXPECT_GT(out.counter("committed"), 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, ReplicationSeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

TEST(ReplicationChaosTest, SweepExercisesReplicationMachinery) {
  // Scaled-down aggregate over the first ten seeds: crashes promote
  // backups, writes ship applies, lag windows open, rebuilds restore k,
  // restarts replay recovery, and the recovery-aware controller scales
  // out. (The per-seed invariants live in the shards.)
  int64_t total_crashes = 0, total_restarts = 0, total_lags = 0;
  int64_t total_promotions = 0, total_applies = 0, total_rebuilds = 0;
  int64_t total_recoveries = 0, total_scale_outs = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const scenario::ScenarioResult out = RunReplicationChaos(seed);
    total_crashes += out.counter("crashes");
    total_restarts += out.counter("restarts");
    total_lags += out.counter("replica_lags");
    total_promotions += out.counter("promotions");
    total_applies += out.counter("backup_applies");
    total_rebuilds += out.counter("rebuilds");
    total_recoveries += out.counter("recoveries");
    total_scale_outs += out.counter("scale_outs");
  }
  EXPECT_GT(total_crashes, 4);
  EXPECT_GT(total_restarts, 2);
  EXPECT_GT(total_lags, 2);
  EXPECT_GT(total_promotions, 20);
  EXPECT_GT(total_applies, 2000);
  EXPECT_GT(total_rebuilds, 20);
  EXPECT_GT(total_recoveries, 2);
  EXPECT_GT(total_scale_outs, 2);
}

}  // namespace
}  // namespace pstore
