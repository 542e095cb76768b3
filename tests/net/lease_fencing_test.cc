#include <gtest/gtest.h>

#include <memory>

#include "../test_util.h"
#include "core/reactive_controller.h"
#include "migration/migration_executor.h"
#include "net/network_model.h"

/// The lease/fencing control plane: heartbeats keep leases fresh; an
/// isolated node is suspected, then loses its lease (self-fences: no
/// commit without a lease, ever), then has its buckets promoted to
/// reachable backups by the fenced failover; healing the partition
/// un-suspects and un-fences it and k-safety is rebuilt. Controllers
/// must defer scale-ins while any node is suspected.

namespace pstore {
namespace {

using testing_util::FastMigration;
using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

EngineConfig NetEngineConfig() {
  EngineConfig config = WithReplication(SmallEngineConfig());
  config.initial_nodes = 3;
  config.net.enabled = true;
  return config;
}

TEST(LeaseFencingTest, NetRequiresReplication) {
  EngineConfig config = SmallEngineConfig();
  config.net.enabled = true;  // without replication: invalid
  EXPECT_FALSE(config.Validate().ok());
}

TEST(LeaseFencingTest, HeartbeatsKeepLeasesFreshForever) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, NetEngineConfig());
  sim.RunUntil(30 * kSecond);
  for (NodeId n = 0; n < engine.active_nodes(); ++n) {
    EXPECT_TRUE(engine.NodeHasLease(n)) << "node " << n;
    EXPECT_FALSE(engine.IsNodeSuspected(n)) << "node " << n;
    EXPECT_FALSE(engine.IsNodeFenced(n)) << "node " << n;
  }
  EXPECT_EQ(engine.suspicions(), 0);
  EXPECT_EQ(engine.fenced_failovers(), 0);
  EXPECT_GT(engine.net()->messages_sent(), 0);  // the heartbeat stream
}

TEST(LeaseFencingTest, IsolationSuspectsThenFencesThenFailsOver) {
  auto db = MakeKvDatabase();
  Simulator sim;
  const EngineConfig config = NetEngineConfig();
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  const int64_t rows = 200;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  sim.RunUntil(2 * kSecond);  // leases established by live heartbeats

  const NodeId victim = 2;
  engine.net()->OpenPartition({victim}, 10 * kSecond);

  // Silence > suspicion_timeout: suspected, still leased.
  sim.RunUntil(2 * kSecond + config.net.suspicion_timeout +
               2 * net::kHeartbeatPeriod);
  EXPECT_TRUE(engine.IsNodeSuspected(victim));
  EXPECT_GE(engine.nodes_suspected(), 1);
  EXPECT_FALSE(engine.IsNodeFenced(victim));

  // Silence > lease_timeout: the node self-fences before the controller
  // acts — the strict timer chain's whole point.
  sim.RunUntil(2 * kSecond + config.net.lease_timeout +
               2 * net::kHeartbeatPeriod);
  EXPECT_FALSE(engine.NodeHasLease(victim));
  EXPECT_EQ(engine.fenced_failovers(), 0) << "controller must act later";

  // Silence > failover_timeout: fenced failover promotes every bucket
  // of the victim to a reachable backup (k=1 on 3 nodes: one exists).
  sim.RunUntil(2 * kSecond + config.net.failover_timeout + kSecond);
  EXPECT_TRUE(engine.IsNodeFenced(victim));
  EXPECT_GE(engine.fenced_failovers(), 1);
  const PartitionMap& map = engine.partition_map();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    EXPECT_NE(engine.NodeOfPartition(map.PartitionOfBucket(b)), victim)
        << "bucket " << b << " still owned by the fenced node";
  }
  EXPECT_EQ(engine.TotalRowCount(), rows) << "failover must not lose rows";

  // Heal: heartbeats resume, the node is un-suspected and un-fenced,
  // and re-replication restores full k.
  sim.RunUntil(60 * kSecond);
  EXPECT_FALSE(engine.IsNodeSuspected(victim));
  EXPECT_FALSE(engine.IsNodeFenced(victim));
  EXPECT_TRUE(engine.NodeHasLease(victim));
  EXPECT_EQ(engine.nodes_suspected(), 0);
  EXPECT_EQ(engine.replication()->degraded_buckets(), 0);
  EXPECT_EQ(engine.fenced_commits(), 0);
}

TEST(LeaseFencingTest, FencedNodeRejectsInsteadOfCommitting) {
  auto db = MakeKvDatabase();
  Simulator sim;
  const EngineConfig config = NetEngineConfig();
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  const int64_t rows = 200;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  sim.RunUntil(2 * kSecond);
  engine.net()->OpenPartition({2}, 8 * kSecond);
  // Submit a write to every key while the victim is lease-expired but
  // not yet failed over: writes landing on it must be rejected, not
  // executed (a commit there could diverge from a promoted backup).
  sim.RunUntil(2 * kSecond + config.net.lease_timeout +
               2 * net::kHeartbeatPeriod);
  for (int64_t k = 0; k < rows; ++k) {
    TxnRequest req;
    req.proc = db.put;
    req.key = k;
    req.args.push_back(Value(k + 1000));
    engine.Submit(std::move(req));
  }
  sim.RunUntil(2 * kSecond + config.net.failover_timeout);
  EXPECT_GT(engine.fenced_rejections(), 0);
  EXPECT_EQ(engine.fenced_commits(), 0);
  // After heal everything settles: rows conserved, tripwire still 0.
  sim.RunUntil(60 * kSecond);
  EXPECT_EQ(engine.TotalRowCount(), rows);
  EXPECT_EQ(engine.fenced_commits(), 0);
}

/// Lowest key whose bucket has its primary on `primary` and its only
/// replica on `replica` (k = 1), or -1 when no loaded key fits.
int64_t KeyOwnedBy(const ClusterEngine& engine, int64_t rows, NodeId primary,
                   NodeId replica) {
  for (int64_t k = 0; k < rows; ++k) {
    const BucketId b = KeyToBucket(k, engine.config().num_buckets);
    const auto& reps = engine.replication()->replicas(b);
    if (engine.NodeOfPartition(engine.partition_map().PartitionOfBucket(b)) ==
            primary &&
        reps.size() == 1 && engine.NodeOfPartition(reps[0]) == replica) {
      return k;
    }
  }
  return -1;
}

TEST(LeaseFencingTest, FencedFailoverDefersBucketWithNoReachableReplica) {
  auto db = MakeKvDatabase();
  Simulator sim;
  const EngineConfig config = NetEngineConfig();
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  const int64_t rows = 200;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  sim.RunUntil(2 * kSecond);
  // Nodes 1 and 2 are cut off together: a bucket of node 2 whose only
  // replica sits on node 1 has no replica the controller can reach.
  const int64_t key = KeyOwnedBy(engine, rows, 2, 1);
  ASSERT_GE(key, 0);
  const BucketId bucket = KeyToBucket(key, config.num_buckets);
  engine.net()->OpenPartition({1, 2}, 10 * kSecond);

  sim.RunUntil(2 * kSecond + config.net.failover_timeout + kSecond);
  ASSERT_TRUE(engine.IsNodeFenced(2));
  EXPECT_GT(engine.buckets_deferred(), 0);
  EXPECT_EQ(engine.NodeOfPartition(
                engine.partition_map().PartitionOfBucket(bucket)),
            2)
      << "a deferred bucket stays with the fenced node";
  EXPECT_EQ(engine.TotalRowCount(), rows) << "deferral must not lose rows";
  EXPECT_EQ(engine.rows_lost(), 0);

  // After the heal the deferred bucket serves again where it stayed.
  sim.RunUntil(60 * kSecond);
  ASSERT_FALSE(engine.IsNodeFenced(2));
  Status status = Status::Internal("not completed");
  TxnRequest req;
  req.proc = db.put;
  req.key = key;
  req.args.push_back(Value(key + 1000));
  engine.Submit(std::move(req),
                [&status](const TxnResult& r) { status = r.status; });
  sim.RunUntil(61 * kSecond);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(engine.TotalRowCount(), rows);
  EXPECT_EQ(engine.fenced_commits(), 0);
}

TEST(LeaseFencingTest, CrashPromotesUnreachableReplicaOverLosingRows) {
  auto db = MakeKvDatabase();
  Simulator sim;
  const EngineConfig config = NetEngineConfig();
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  const int64_t rows = 200;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  sim.RunUntil(2 * kSecond);
  // Node 1 is cut off from the controller, so for a bucket of node 2
  // whose only replica is on node 1 every replica is unreachable. The
  // crash still promotes it: data beats reachability.
  const int64_t key = KeyOwnedBy(engine, rows, 2, 1);
  ASSERT_GE(key, 0);
  const BucketId bucket = KeyToBucket(key, config.num_buckets);
  engine.net()->OpenPartition({1}, 10 * kSecond);
  ASSERT_TRUE(engine.CrashNode(2).ok());
  EXPECT_EQ(engine.rows_lost(), 0);
  EXPECT_EQ(engine.NodeOfPartition(
                engine.partition_map().PartitionOfBucket(bucket)),
            1);
  EXPECT_EQ(engine.TotalRowCount(), rows);
}

TEST(LeaseFencingTest, ReactiveScaleInDeferredWhileSuspected) {
  auto run = [](bool flap_partition) {
    auto db = MakeKvDatabase();
    Simulator sim;
    ClusterEngine engine(&sim, db.catalog, db.registry, NetEngineConfig());
    for (int64_t k = 0; k < 100; ++k) {
      EXPECT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
    }
    MigrationExecutor migrator(&engine, FastMigration());
    ReactiveConfig reactive;
    reactive.q = 100.0;
    reactive.q_hat = 125.0;
    reactive.monitor_period = kSecond;
    reactive.scale_in_hold = 5 * kSecond;
    ReactiveController controller(&engine, &migrator, reactive);
    controller.Start();
    if (flap_partition) {
      // 2 s windows with 1 s heal gaps: the victim keeps getting
      // suspected but a heartbeat always lands before the lease dies,
      // so it is never fenced — only the scale-in gate is exercised.
      for (SimTime t = 2 * kSecond; t < 28 * kSecond; t += 3 * kSecond) {
        sim.ScheduleAt(t, [&engine]() {
          engine.net()->OpenPartition({2}, 2 * kSecond);
        });
      }
    }
    sim.RunUntil(30 * kSecond);
    controller.Stop();
    EXPECT_EQ(engine.fenced_failovers(), 0);
    return controller.scale_ins();
  };
  // Idle cluster: without suspicion churn the controller shrinks it;
  // with a node flapping in and out of suspicion the hold timer never
  // completes and the scale-in is deferred for the whole run.
  EXPECT_GT(run(false), 0);
  EXPECT_EQ(run(true), 0);
}

}  // namespace
}  // namespace pstore
