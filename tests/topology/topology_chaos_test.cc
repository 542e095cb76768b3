#include <gtest/gtest.h>

#include "../test_util.h"
#include "planner/move_model.h"
#include "topology/topology.h"

/// Tests for the topology layer (DESIGN.md §15): failure-domain-aware
/// placement, spot-revocation drains with deadline-driven evacuation,
/// and correlated domain outages. The 50-seed chaos sweep is the
/// headline property: whenever a domain-diverse replica set existed at
/// notice/outage time (both infeasibility counters zero), no committed
/// row may be lost — survival comes from placement, not luck.

namespace pstore {
namespace {

using testing_util::FastMigration;
using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

// --- Policy units ----------------------------------------------------
// (TopologyConfig::Validate units live in topology_config_test.cc.)

TEST(PlacementPolicyTest, StripesDomainsAndClassesDeterministically) {
  topology::TopologyConfig config;
  config.num_domains = 3;
  topology::PlacementPolicy policy(config);
  // Domain striping is n % num_domains — a pure function of the id.
  EXPECT_EQ(policy.DomainOf(0), 0);
  EXPECT_EQ(policy.DomainOf(1), 1);
  EXPECT_EQ(policy.DomainOf(2), 2);
  EXPECT_EQ(policy.DomainOf(3), 0);
  EXPECT_TRUE(policy.SameDomain(0, 3));
  EXPECT_FALSE(policy.SameDomain(0, 1));
  // Node 0 is the one on-demand node; every other node is spot.
  EXPECT_EQ(policy.ClassOf(0), topology::NodeClass::kOnDemand);
  EXPECT_EQ(policy.ClassOf(1), topology::NodeClass::kSpot);
  EXPECT_EQ(policy.ClassOf(2), topology::NodeClass::kSpot);
  EXPECT_EQ(policy.ClassOf(7), topology::NodeClass::kSpot);
  // Backup preference is exactly cross-domain placement.
  EXPECT_TRUE(policy.PrefersForBackup(0, 1));
  EXPECT_FALSE(policy.PrefersForBackup(0, 3));
}

// --- Drain state machine ---------------------------------------------

EngineConfig TopologyEngineConfig(int32_t nodes, int32_t domains) {
  EngineConfig config = WithReplication(SmallEngineConfig());
  config.initial_nodes = nodes;
  config.replication.checkpoint_period = 5 * kSecond;
  config.topology.enabled = true;
  config.topology.num_domains = domains;
  return config;
}

TEST(DrainTest, StartDrainGuardsAndDeadlineKill) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry,
                       TopologyEngineConfig(3, 3));
  // Guards: bad notice, bad node, duplicate drain.
  EXPECT_TRUE(engine.StartDrain(1, 0).IsInvalidArgument());
  EXPECT_TRUE(engine.StartDrain(7, kSecond).IsFailedPrecondition());
  EXPECT_TRUE(engine.StartDrain(1, 2 * kSecond).ok());
  EXPECT_TRUE(engine.StartDrain(1, kSecond).IsFailedPrecondition());
  EXPECT_TRUE(engine.IsNodeDraining(1));
  EXPECT_EQ(engine.drain_deadline(1), 2 * kSecond);
  EXPECT_EQ(engine.nodes_draining(), 1);
  // At the deadline the node is hard-killed like a crash; with k=1 and
  // two live peers every bucket promotes, nothing is lost.
  sim.RunUntil(10 * kSecond);
  EXPECT_FALSE(engine.IsNodeDraining(1));
  EXPECT_FALSE(engine.IsNodeUp(1));
  EXPECT_EQ(engine.drains_started(), 1);
  EXPECT_EQ(engine.drain_kills(), 1);
  EXPECT_EQ(engine.drain_kills_infeasible(), 0);
  EXPECT_EQ(engine.rows_lost(), 0);
}

TEST(DrainTest, DisabledTopologyRejectsDrains) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = TopologyEngineConfig(3, 3);
  config.topology.enabled = false;
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  EXPECT_EQ(engine.placement_policy(), nullptr);
  EXPECT_TRUE(engine.StartDrain(1, kSecond).IsFailedPrecondition());
  EXPECT_FALSE(engine.IsNodeDraining(1));
  EXPECT_EQ(engine.nodes_draining(), 0);
}

/// Buckets of `node` that still sit on it.
int64_t BucketsOn(const ClusterEngine& engine, NodeId node) {
  const PartitionMap& map = engine.partition_map();
  int64_t count = 0;
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    if (engine.NodeOfPartition(map.PartitionOfBucket(b)) == node) ++count;
  }
  return count;
}

TEST(DrainTest, StartEvacuationGuards) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry,
                       TopologyEngineConfig(3, 3));
  MigrationExecutor migrator(&engine, FastMigration());
  // Deadline must be in the future, source must be an up node, and at
  // most one evacuation runs at a time.
  EXPECT_TRUE(migrator.StartEvacuation(1, 0).IsInvalidArgument());
  EXPECT_TRUE(
      migrator.StartEvacuation(7, 10 * kSecond).IsFailedPrecondition());
  EXPECT_FALSE(migrator.EvacuationInProgress());
  EXPECT_TRUE(migrator.StartEvacuation(1, 30 * kSecond).ok());
  EXPECT_TRUE(migrator.EvacuationInProgress());
  EXPECT_TRUE(
      migrator.StartEvacuation(2, 30 * kSecond).IsFailedPrecondition());
  // A generous deadline moves every bucket off the node gracefully.
  sim.RunUntil(30 * kSecond);
  EXPECT_FALSE(migrator.EvacuationInProgress());
  EXPECT_GT(migrator.buckets_evacuated(), 0);
  EXPECT_EQ(migrator.evacuations_deadline_skipped(), 0);
  const PartitionMap& map = engine.partition_map();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    EXPECT_NE(engine.NodeOfPartition(map.PartitionOfBucket(b)), 1)
        << "bucket " << b << " still on the evacuated node";
  }
}

TEST(DrainTest, EvacuationDefersAcrossPartition) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = TopologyEngineConfig(3, 3);
  config.net.enabled = true;
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  MigrationExecutor migrator(&engine, FastMigration());
  const int64_t before = BucketsOn(engine, 1);
  ASSERT_GT(before, 0);
  // Cut the draining node off from every destination for 1 s of its
  // 30 s notice (short of the lease timeout, so nothing fails over).
  engine.net()->OpenPartition({1}, kSecond);
  ASSERT_TRUE(engine.StartDrain(1, 30 * kSecond).ok());
  ASSERT_TRUE(migrator.StartEvacuation(1, engine.drain_deadline(1)).ok());
  sim.RunUntil(kSecond - kMillisecond);
  EXPECT_TRUE(migrator.EvacuationInProgress());
  EXPECT_EQ(migrator.buckets_evacuated(), 0);
  EXPECT_EQ(BucketsOn(engine, 1), before)
      << "a bucket flipped across the cut";
  EXPECT_GT(migrator.net_chunks_deferred(), 0);
  // After heal the stream resumes and empties the node before the kill.
  sim.RunUntil(10 * kSecond);
  EXPECT_FALSE(migrator.EvacuationInProgress());
  EXPECT_EQ(migrator.buckets_evacuated(), before);
  EXPECT_EQ(BucketsOn(engine, 1), 0);
}

TEST(DrainTest, EvacuationYieldsToFullQueue) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = TopologyEngineConfig(3, 3);
  config.overload.enabled = true;
  config.overload.max_queue_depth = 4;
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  MigrationExecutor migrator(&engine, FastMigration());
  // Fill every destination partition's queue to its limit with 100 ms
  // items: one in service, four waiting.
  const int32_t p = config.partitions_per_node;
  for (NodeId n : {0, 2}) {
    for (PartitionId q = n * p; q < (n + 1) * p; ++q) {
      for (int i = 0; i <= config.overload.max_queue_depth; ++i) {
        engine.executor(q)->Enqueue(100 * kMillisecond,
                                    [](SimTime, SimTime) {});
      }
      ASSERT_TRUE(engine.executor(q)->AtLimit());
    }
  }
  const int64_t before = BucketsOn(engine, 1);
  ASSERT_TRUE(migrator.StartEvacuation(1, 30 * kSecond).ok());
  sim.RunUntil(50 * kMillisecond);
  EXPECT_GT(migrator.chunks_backpressured(), 0);
  EXPECT_EQ(migrator.buckets_evacuated(), 0);
  sim.RunUntil(10 * kSecond);
  EXPECT_FALSE(migrator.EvacuationInProgress());
  EXPECT_EQ(migrator.buckets_evacuated(), before);
  for (PartitionId q = 0; q < engine.active_partitions(); ++q) {
    EXPECT_LE(engine.executor(q)->max_queue_depth(),
              engine.executor(q)->queue_limit())
        << "partition " << q << " was enqueued past its bound";
  }
}

// --- Domain-diverse placement ----------------------------------------

TEST(PlacementTest, StartupPlacementIsDomainDiverse) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry,
                       TopologyEngineConfig(6, 3));
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  sim.RunUntil(20 * kSecond);  // Let the initial rebuilds land.
  const replication::ReplicaManager* rep = engine.replication();
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->degraded_buckets(), 0);
  const PartitionMap& map = engine.partition_map();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    const NodeId primary =
        engine.NodeOfPartition(map.PartitionOfBucket(b));
    EXPECT_TRUE(rep->IsDomainDiverse(b, primary))
        << "bucket " << b << " has primary and every backup in domain "
        << engine.placement_policy()->DomainOf(primary);
  }
}

// --- Planner evacuation costing --------------------------------------

TEST(MoveModelTest, EvacuationCosting) {
  MoveModelConfig config;  // d_minutes = 77 by default.
  MoveModel model(config);
  // One sender-receiver pair: fraction g takes g * D minutes.
  EXPECT_DOUBLE_EQ(model.EvacuationTimeMinutes(0.5), 38.5);
  EXPECT_DOUBLE_EQ(model.EvacuationTimeMinutes(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.EvacuationTimeMinutes(2.0), 77.0);  // clamped
  // The notice window caps what one pair can ship, and the draining
  // node only holds a 1/n share in the first place.
  EXPECT_DOUBLE_EQ(model.EvacuableFraction(7.7, 4), 0.1);
  EXPECT_DOUBLE_EQ(model.EvacuableFraction(77.0, 2), 0.5);   // share cap
  EXPECT_DOUBLE_EQ(model.EvacuableFraction(1000.0, 4), 0.25);
  EXPECT_DOUBLE_EQ(model.EvacuableFraction(0.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(model.EvacuableFraction(10.0, 0), 0.0);
  // Machine-minutes to hold the replacement for the full 1/n transfer.
  EXPECT_DOUBLE_EQ(model.EvacuationCost(4), 77.0 / 4);
  EXPECT_DOUBLE_EQ(model.EvacuationCost(0), 0.0);
}

// --- The 50-seed correlated-failure sweep ----------------------------

/// 6 nodes striped over 3 domains, k=1, mixed Put/Get load, the drain
/// hook wired to the deadline evacuator, and a random plan mixing
/// crash/restart with spot revocations and domain outages.
scenario::ScenarioResult RunTopologyChaos(uint64_t seed) {
  return testing_util::RunRow("topology_sweep", seed);
}

// The 50-seed sweep is sharded 5 seeds per ctest unit so `ctest -j`
// runs shards concurrently (and a failure names a 5-seed range, not a
// 50-seed monolith). The shard parameter is the first seed.
constexpr uint64_t kSeedsPerShard = 5;

class TopologySeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopologySeedShard, NoRowLostWhenDiversePlacementWasFeasible) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const scenario::ScenarioResult out = RunTopologyChaos(seed);
    testing_util::ExpectNoViolations(seed, out);
    // The headline property: whenever a domain-diverse replica set
    // existed at notice/outage time (no kill or outage was flagged
    // infeasible), every committed row survives — correlated domain
    // loss and hard revocation kills included. When one was flagged,
    // rows_lost reports the honest damage and is not asserted.
    const int64_t infeasible = out.counter("infeasible_outages") +
                               out.counter("drain_kills_infeasible");
    if (infeasible == 0) {
      EXPECT_EQ(out.counter("rows_lost"), 0)
          << "rows lost despite feasible diverse placement, "
          << testing_util::Explain(seed, out);
    }
    EXPECT_GT(out.counter("committed"), 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, TopologySeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

TEST(TopologyChaosTest, SweepExercisesTopologyMachinery) {
  // Scaled-down aggregate over the first ten seeds: the plans must
  // actually revoke spot nodes, kill whole domains, run drains to
  // their deadline, and evacuate buckets. (Per-seed safety lives in
  // the shards; this guards against a silently inert fault surface.)
  // Whether any notice was too short to fit every bucket depends on
  // the drawn windows, so evac_deadline_skipped is not asserted.
  int64_t revocations = 0, outages = 0, drains = 0, kills = 0;
  int64_t evacuated = 0, promotions = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const scenario::ScenarioResult out = RunTopologyChaos(seed);
    revocations += out.counter("spot_revocations");
    outages += out.counter("domain_outages");
    drains += out.counter("drains_started");
    kills += out.counter("drain_kills");
    evacuated += out.counter("buckets_evacuated");
    promotions += out.counter("promotions");
  }
  EXPECT_GT(revocations, 3);
  EXPECT_GT(outages, 1);
  EXPECT_GT(drains, 3);
  EXPECT_GT(kills, 1);
  EXPECT_GT(evacuated, 5);
  EXPECT_GT(promotions, 3);
}

}  // namespace
}  // namespace pstore
