#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "common/murmur.h"

/// Failover determinism regression test. Promotion failover iterates
/// dead partitions and their buckets in ascending order and promotes the
/// lowest-id healthy replica; any change to that iteration order (e.g.
/// an unordered container sneaking into the loop) changes which
/// partitions inherit which buckets. This suite fingerprints the full
/// post-failover placement — primary owners, replica lists, and row
/// distribution — across 50 seeds and requires same-seed runs to match
/// bit for bit, legacy and k-safety mode both.

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

/// Order-sensitive digest of placement + accounting after a crash.
uint64_t FailoverFingerprint(const ClusterEngine& engine) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](int64_t v) { h = MurmurHash64A(v, h); };
  const PartitionMap& map = engine.partition_map();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    mix(map.PartitionOfBucket(b));
    if (engine.replication() != nullptr) {
      const auto& reps = engine.replication()->replicas(b);
      mix(static_cast<int64_t>(reps.size()));
      for (PartitionId q : reps) mix(q);
    }
  }
  for (PartitionId p = 0; p < engine.total_partitions(); ++p) {
    mix(engine.fragment(p)->TotalRowCount());
    if (engine.replication() != nullptr) {
      mix(engine.replication()->backup_fragment(p)->TotalRowCount());
    }
  }
  mix(map.version());
  mix(engine.failover_moves());
  mix(engine.rows_lost());
  if (engine.replication() != nullptr) {
    mix(engine.replication()->promotions());
    mix(engine.replication()->degraded_buckets());
  }
  return h;
}

/// Loads a seed-dependent row population, crashes the highest node, and
/// digests the result. `replicated` toggles k-safety vs legacy failover;
/// `settle` additionally runs re-replication to completion first.
uint64_t RunFailover(uint64_t seed, bool replicated, bool settle) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 3;
  if (replicated) config = WithReplication(config);
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  Rng rng(seed);
  const int64_t rows = 100 + static_cast<int64_t>(rng.NextBounded(200));
  for (int64_t i = 0; i < rows; ++i) {
    const auto key = static_cast<int64_t>(rng.NextBounded(1 << 20));
    // Duplicate keys collide; ignore, the population just shrinks.
    (void)engine.LoadRow(db.table, Row({Value(key), Value(i)}));
  }
  EXPECT_TRUE(engine.CrashNode(2).ok());
  if (settle) sim.RunUntil(60 * kSecond);
  return FailoverFingerprint(engine);
}

// The 50-seed sweeps are sharded 5 seeds per ctest unit so `ctest -j`
// runs shards concurrently (and a failure names a 5-seed range, not a
// 50-seed monolith). The shard parameter is the first seed.
constexpr uint64_t kSeedsPerShard = 5;

class FailoverSeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FailoverSeedShard, ReplaysIdenticallyWithReplication) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const uint64_t a = RunFailover(seed, /*replicated=*/true, false);
    const uint64_t b = RunFailover(seed, /*replicated=*/true, false);
    EXPECT_EQ(a, b) << "promotion failover diverged for seed " << seed;
  }
}

TEST_P(FailoverSeedShard, ReplaysIdenticallyLegacy) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const uint64_t a = RunFailover(seed, /*replicated=*/false, false);
    const uint64_t b = RunFailover(seed, /*replicated=*/false, false);
    EXPECT_EQ(a, b) << "legacy failover diverged for seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, FailoverSeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

TEST(FailoverDeterminismTest, RebuildSettlingIsDeterministicToo) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const uint64_t a = RunFailover(seed, /*replicated=*/true, true);
    const uint64_t b = RunFailover(seed, /*replicated=*/true, true);
    EXPECT_EQ(a, b) << "re-replication diverged for seed " << seed;
  }
}

TEST(FailoverDeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunFailover(7, true, false), RunFailover(8, true, false));
}

}  // namespace
}  // namespace pstore
