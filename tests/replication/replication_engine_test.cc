#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../test_util.h"
#include "fault/invariant_checker.h"

/// Engine-level k-safety tests: initial placement, synchronous apply,
/// promotion failover with zero committed-row loss, honest loss when no
/// replica survives, re-replication restoring k, and restart recovery
/// that takes simulated time.

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

EngineConfig ReplicatedConfig(int32_t nodes) {
  EngineConfig config = WithReplication(SmallEngineConfig());
  config.initial_nodes = nodes;
  config.replication.checkpoint_period = 5 * kSecond;
  return config;
}

TEST(ReplicationEngineTest, DisabledEngineHasNoReplicationState) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, SmallEngineConfig());
  EXPECT_EQ(engine.replication(), nullptr);
  EXPECT_EQ(engine.min_active_nodes(), 1);  // No k-aware scale-in floor.
  EXPECT_FALSE(engine.RecoveryInProgress());
  EXPECT_FALSE(engine.IsNodeRecovering(0));
  EXPECT_EQ(engine.nodes_recovering(), 0);
  EXPECT_EQ(engine.rows_lost(), 0);
  // Legacy failover still teleports buckets round-robin.
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  ASSERT_TRUE(engine.CrashNode(1).ok());
  EXPECT_GT(engine.failover_moves(), 0);
  EXPECT_EQ(engine.TotalRowCount(), 100);
}

TEST(ReplicationEngineTest, InitialPlacementSatisfiesKOffNode) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, ReplicatedConfig(3));
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  const replication::ReplicaManager* rep = engine.replication();
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->degraded_buckets(), 0);
  const PartitionMap& map = engine.partition_map();
  int64_t backup_rows = 0;
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    ASSERT_EQ(rep->healthy_replicas(b), 1);
    const PartitionId q = rep->replicas(b)[0];
    EXPECT_NE(engine.NodeOfPartition(q),
              engine.NodeOfPartition(map.PartitionOfBucket(b)));
    backup_rows += rep->backup_fragment(q)->BucketRowCount(b);
  }
  // LoadRow mirrors every row into its bucket's backup.
  EXPECT_EQ(backup_rows, 200);
  EXPECT_EQ(rep->TotalBackupRowCount(), 200);
  // Backups live in separate fragments: primary accounting unchanged.
  EXPECT_EQ(engine.TotalRowCount(), 200);
}

TEST(ReplicationEngineTest, CommittedWritesReachBackupsSynchronously) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, ReplicatedConfig(2));
  int64_t committed = 0;
  for (int64_t k = 0; k < 50; ++k) {
    TxnRequest put;
    put.proc = db.put;
    put.key = k;
    put.args.push_back(Value(k * 7));
    engine.Submit(std::move(put), [&](const TxnResult& r) {
      if (r.status.ok()) ++committed;
    });
  }
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(committed, 50);
  EXPECT_GT(engine.replication()->applies(), 0);
  EXPECT_EQ(engine.replication()->outstanding_applies(), 0);  // Drained.
  // Every write is in its backup too: the invariant checker's row-set
  // equality audit passes. Nothing was bulk-loaded — all 50 rows were
  // created by the upserts, which conservation accounts separately.
  InvariantChecker checker(&engine, nullptr);
  checker.set_expected_rows(0);
  EXPECT_EQ(engine.rows_net_created(), 50);
  EXPECT_TRUE(checker.Check().ok());
}

TEST(ReplicationEngineTest, CrashPromotesBackupsWithZeroRowLoss) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, ReplicatedConfig(3));
  const int64_t rows = 300;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  const int64_t before = engine.failover_moves();
  ASSERT_TRUE(engine.CrashNode(2).ok());

  // Promotion, not teleport: no failover bucket moves, zero rows lost,
  // and every bucket is owned by a live partition.
  EXPECT_EQ(engine.failover_moves(), before);
  EXPECT_EQ(engine.rows_lost(), 0);
  EXPECT_EQ(engine.TotalRowCount(), rows);
  EXPECT_GT(engine.replication()->promotions(), 0);
  const PartitionMap& map = engine.partition_map();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    EXPECT_TRUE(engine.IsNodeUp(
        engine.NodeOfPartition(map.PartitionOfBucket(b))));
  }
  // The crash left buckets degraded; re-replication over the survivors
  // restores k on the virtual clock.
  EXPECT_TRUE(engine.RecoveryInProgress());
  EXPECT_GT(engine.replication()->degraded_buckets(), 0);
  sim.RunUntil(60 * kSecond);
  EXPECT_EQ(engine.replication()->degraded_buckets(), 0);
  EXPECT_FALSE(engine.RecoveryInProgress());
  EXPECT_GT(engine.replication()->rebuilds_completed(), 0);
  EXPECT_GT(engine.replication()->rebuild_chunks_landed(), 0);
  InvariantChecker checker(&engine, nullptr);
  checker.set_expected_rows(rows);
  EXPECT_TRUE(checker.Check().ok());
}

TEST(ReplicationEngineTest, DoubleCrashBeforeRebuildLosesRowsHonestly) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, ReplicatedConfig(3));
  const int64_t rows = 300;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  // Crash two of three nodes back to back: some bucket's primary and
  // only backup are both gone before re-replication can run.
  ASSERT_TRUE(engine.CrashNode(2).ok());
  ASSERT_TRUE(engine.CrashNode(1).ok());
  EXPECT_GT(engine.rows_lost(), 0);
  EXPECT_EQ(engine.TotalRowCount(), rows - engine.rows_lost());
  // The checker knows about honest loss: conservation still holds.
  InvariantChecker checker(&engine, nullptr);
  checker.set_expected_rows(rows);
  sim.RunUntil(60 * kSecond);
  Status final_check = checker.Check();
  EXPECT_TRUE(final_check.ok()) << final_check.ToString();
}

TEST(ReplicationEngineTest, RestartRecoveryTakesSimulatedTime) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, ReplicatedConfig(3));
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  // Accumulate checkpoint + log state before the crash.
  for (int64_t k = 0; k < 30; ++k) {
    TxnRequest put;
    put.proc = db.put;
    put.key = k;
    put.args.push_back(Value(k));
    engine.Submit(std::move(put));
  }
  sim.RunUntil(12 * kSecond);  // Two checkpoint periods.
  EXPECT_GT(engine.replication()->checkpoints(), 0);

  ASSERT_TRUE(engine.CrashNode(2).ok());
  const int64_t epoch_after_crash = engine.fault_epoch();
  ASSERT_TRUE(engine.RestartNode(2).ok());
  // The node is replaying, not up; double restart is rejected.
  EXPECT_FALSE(engine.IsNodeUp(2));
  EXPECT_TRUE(engine.IsNodeRecovering(2));
  EXPECT_EQ(engine.nodes_recovering(), 1);
  EXPECT_FALSE(engine.RestartNode(2).ok());
  EXPECT_EQ(engine.fault_epoch(), epoch_after_crash);
  EXPECT_TRUE(engine.RecoveryInProgress());

  sim.RunUntil(120 * kSecond);
  EXPECT_TRUE(engine.IsNodeUp(2));
  EXPECT_FALSE(engine.IsNodeRecovering(2));
  EXPECT_EQ(engine.recoveries(), 1);
  EXPECT_GT(engine.total_recovery_time(), 0);
  EXPECT_GT(engine.fault_epoch(), epoch_after_crash);  // Bumps at finish.
  EXPECT_FALSE(engine.RecoveryInProgress());
}

TEST(ReplicationEngineTest, RebuildChunkYieldsToFullQueue) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = ReplicatedConfig(3);
  config.overload.enabled = true;
  config.overload.max_queue_depth = 4;
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  ASSERT_TRUE(engine.CrashNode(2).ok());
  ASSERT_GT(engine.replication()->rebuilds_in_flight(), 0);
  // Every surviving partition's queue sits at its limit for 500 ms: one
  // 100 ms item in service, four waiting.
  for (PartitionId q = 0; q < 2 * config.partitions_per_node; ++q) {
    for (int i = 0; i <= config.overload.max_queue_depth; ++i) {
      engine.executor(q)->Enqueue(100 * kMillisecond,
                                  [](SimTime, SimTime) {});
    }
    ASSERT_TRUE(engine.executor(q)->AtLimit());
  }
  // Chunks are due every 10 ms; each defers one period instead of going.
  sim.RunUntil(90 * kMillisecond);
  EXPECT_EQ(engine.replication()->rebuild_chunks_landed(), 0);
  sim.RunUntil(60 * kSecond);
  EXPECT_EQ(engine.replication()->degraded_buckets(), 0);
  for (PartitionId q = 0; q < engine.active_partitions(); ++q) {
    EXPECT_LE(engine.executor(q)->max_queue_depth(),
              engine.executor(q)->queue_limit())
        << "partition " << q << " was enqueued past its bound";
  }
}

TEST(ReplicationEngineTest, ChooseBackupPartitionAvoidsPrimaryAndDead) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, ReplicatedConfig(3));
  const PartitionMap& map = engine.partition_map();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    const PartitionId q = engine.ChooseBackupPartition(b);
    // Every bucket already holds its one replica, so the candidate (if
    // any) is a *different* eligible partition; with 3 nodes one always
    // exists.
    ASSERT_GE(q, 0);
    EXPECT_NE(engine.NodeOfPartition(q),
              engine.NodeOfPartition(map.PartitionOfBucket(b)));
    EXPECT_FALSE(engine.replication()->HasReplicaOn(b, q));
  }
  // With 2 nodes and a replica already on the other node, no candidate.
  ClusterEngine two(&sim, db.catalog, db.registry, ReplicatedConfig(2));
  EXPECT_EQ(two.ChooseBackupPartition(0), -1);
}

TEST(ReplicationEngineTest, MigratedPrimaryDisplacesCollidingReplica) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = ReplicatedConfig(3);
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  // Force every bucket onto node 0 via bucket moves; each move whose
  // destination node hosts the bucket's replica must relocate or drop
  // that replica — primary and backup never share a node.
  const PartitionMap& map = engine.partition_map();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    if (map.PartitionOfBucket(b) == 0) continue;
    BucketMove move;
    move.bucket = b;
    move.from = map.PartitionOfBucket(b);
    move.to = 0;
    ASSERT_TRUE(engine.ApplyBucketMove(move).ok());
  }
  sim.RunUntil(60 * kSecond);
  const replication::ReplicaManager* rep = engine.replication();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    for (PartitionId q : rep->replicas(b)) {
      EXPECT_NE(engine.NodeOfPartition(q), 0)
          << "bucket " << b << " replica colocated with its primary";
    }
  }
  InvariantChecker checker(&engine, nullptr);
  checker.set_expected_rows(200);
  EXPECT_TRUE(checker.Check().ok());
}

/// Runs stamped writes at replication factor `k`: every body call
/// upserts a fresh value from a per-call counter, so backups match the
/// primary only if they apply its writes rather than re-run the body.
void ExpectBackupsMirrorNondeterministicBodies(int32_t k) {
  SCOPED_TRACE("k=" + std::to_string(k));
  Catalog catalog;
  const TableId table = *catalog.AddTable(Schema(
      "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
  auto calls = std::make_shared<int64_t>(0);
  ProcedureRegistry registry;
  const ProcedureId stamp = *registry.Register(ProcedureDef{
      "Stamp",
      [table, calls](ExecutionContext& ctx, const TxnRequest& req) {
        TxnResult r;
        r.status = ctx.Upsert(table, Row({Value(req.key), Value(++*calls)}));
        return r;
      },
      1.0});
  const ProcedureId stamp_abort = *registry.Register(ProcedureDef{
      "StampThenAbort",
      [table, calls](ExecutionContext& ctx, const TxnRequest& req) {
        TxnResult r;
        Status s = ctx.Upsert(table, Row({Value(req.key), Value(++*calls)}));
        r.status = s.ok() ? Status::Aborted("after writing") : s;
        return r;
      },
      1.0});
  const ProcedureId del = *registry.Register(ProcedureDef{
      "Del",
      [table, calls](ExecutionContext& ctx, const TxnRequest& req) {
        ++*calls;
        TxnResult r;
        r.status = ctx.Delete(table, req.key);
        return r;
      },
      1.0});

  Simulator sim;
  EngineConfig config = ReplicatedConfig(3);
  config.replication.k = k;
  ClusterEngine engine(&sim, catalog, registry, config);
  const int64_t rows = 100;
  for (int64_t key = 0; key < rows; ++key) {
    ASSERT_TRUE(engine.LoadRow(table, Row({Value(key), Value(-key)})).ok());
  }
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  const auto submit = [&](ProcedureId proc, int64_t key) {
    TxnRequest req;
    req.proc = proc;
    req.key = key;
    engine.Submit(std::move(req), [&](const TxnResult& r) {
      ++(r.status.ok() ? committed : aborted);
    });
    ++submitted;
  };
  for (int64_t i = 0; i < 60; ++i) submit(stamp, (i * 7) % (rows + 20));
  submit(stamp_abort, 3);
  submit(del, 5);
  sim.RunUntil(30 * kSecond);

  EXPECT_EQ(committed, submitted - 1);
  EXPECT_EQ(aborted, 1);
  // One body call per transaction: backups never re-run the body.
  EXPECT_EQ(*calls, submitted);
  EXPECT_EQ(engine.replication()->applies(), k * submitted);
  // Every replica's row-set equals its primary's, value for value.
  const PartitionMap& map = engine.partition_map();
  const replication::ReplicaManager* rep = engine.replication();
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    const StorageFragment* primary =
        engine.fragment(map.PartitionOfBucket(b));
    ASSERT_EQ(rep->healthy_replicas(b), k);
    for (PartitionId q : rep->replicas(b)) {
      const StorageFragment* backup = rep->backup_fragment(q);
      const std::vector<int64_t> keys = primary->BucketKeys(table, b);
      EXPECT_EQ(backup->BucketRowCount(b), static_cast<int64_t>(keys.size()))
          << "bucket " << b << " on partition " << q;
      for (int64_t key : keys) {
        Result<Row> want = primary->Get(table, key);
        Result<Row> got = backup->Get(table, key);
        ASSERT_TRUE(got.ok()) << "key " << key << " missing on " << q;
        EXPECT_TRUE(*got == *want) << "key " << key << " on " << q << ": "
                                   << got->ToString() << " vs primary "
                                   << want->ToString();
      }
    }
  }
  EXPECT_FALSE(engine.fragment(map.PartitionOfBucket(
                                   KeyToBucket(5, map.num_buckets())))
                   ->Contains(table, 5));
  InvariantChecker checker(&engine, nullptr);
  checker.set_expected_rows(rows);
  EXPECT_TRUE(checker.Check().ok());
}

TEST(ReplicationEngineTest, BackupsApplyThePrimaryWriteSet) {
  ExpectBackupsMirrorNondeterministicBodies(1);
  ExpectBackupsMirrorNondeterministicBodies(2);
}

}  // namespace
}  // namespace pstore
