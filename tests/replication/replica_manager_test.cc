#include "replication/replica_manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "storage/schema.h"
#include "storage/value.h"

/// Unit tests for the pure replica-placement / rebuild / checkpoint
/// state machine, with no engine or simulator involved.

namespace pstore {
namespace replication {
namespace {

constexpr int32_t kBuckets = 8;
constexpr int32_t kPartitionsPerNode = 2;
constexpr int32_t kTotalPartitions = 8;  // 4 nodes.

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddTable(Schema("KV",
                                   {{"k", ColumnType::kInt64},
                                    {"v", ColumnType::kInt64}},
                                   0))
                  .ok());
  return catalog;
}

ReplicationConfig SmallConfig() {
  ReplicationConfig config;
  config.enabled = true;
  config.k = 1;
  config.db_size_mb = 1.0;
  return config;
}

class ReplicaManagerTest : public ::testing::Test {
 protected:
  ReplicaManagerTest()
      : catalog_(MakeCatalog()),
        manager_(&catalog_, SmallConfig(), kBuckets, kTotalPartitions,
                 kPartitionsPerNode),
        primary_(&catalog_, kBuckets) {}

  /// Puts `rows` rows of bucket-aligned keys into the primary fragment.
  void FillPrimary(int64_t rows) {
    for (int64_t k = 0; k < rows; ++k) {
      ASSERT_TRUE(primary_.Insert(0, Row({Value(k), Value(k * 10)})).ok());
    }
  }

  Catalog catalog_;
  ReplicaManager manager_;
  StorageFragment primary_;
};

TEST(ReplicationConfigTest, ValidateRejectsBadKnobsTableDriven) {
  // Every field Validate checks, one row each: the mutation applied to
  // an otherwise-default config and the error it must produce. A new
  // knob without a row (and a rejection message) shows up as a gap
  // here before it ships unvalidated.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    std::function<void(ReplicationConfig*)> mutate;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"k zero", [](ReplicationConfig* c) { c->k = 0; }, "k < 1"},
      {"db_size_mb inf",
       [inf](ReplicationConfig* c) { c->db_size_mb = inf; },
       "db_size_mb not finite"},
      {"db_size_mb zero", [](ReplicationConfig* c) { c->db_size_mb = 0; },
       "db_size_mb <= 0"},
      {"rebuild_chunk_kb nan",
       [nan](ReplicationConfig* c) { c->rebuild_chunk_kb = nan; },
       "rebuild_chunk_kb not finite"},
      {"rebuild_chunk_kb negative",
       [](ReplicationConfig* c) { c->rebuild_chunk_kb = -1; },
       "rebuild_chunk_kb <= 0"},
      {"rebuild_rate_kbps nan",
       [nan](ReplicationConfig* c) { c->rebuild_rate_kbps = nan; },
       "rebuild_rate_kbps not finite"},
      {"rebuild_rate_kbps zero",
       [](ReplicationConfig* c) { c->rebuild_rate_kbps = 0; },
       "rebuild_rate_kbps <= 0"},
      {"wire_kbps inf", [inf](ReplicationConfig* c) { c->wire_kbps = inf; },
       "wire_kbps not finite"},
      {"wire_kbps zero", [](ReplicationConfig* c) { c->wire_kbps = 0; },
       "wire_kbps <= 0"},
      {"checkpoint_period zero",
       [](ReplicationConfig* c) { c->checkpoint_period = 0; },
       "checkpoint_period <= 0"},
      {"durability scrub_rate_kbps negative",
       [](ReplicationConfig* c) {
         c->durability.enabled = true;
         c->durability.scrub_rate_kbps = -1;
       },
       "scrub_rate_kbps < 0"},
      {"durability scrub_rate_kbps nan",
       [nan](ReplicationConfig* c) {
         c->durability.enabled = true;
         c->durability.scrub_rate_kbps = nan;
       },
       "scrub_rate_kbps not finite"},
  };
  EXPECT_TRUE(ReplicationConfig().Validate().ok());
  for (const Case& test : cases) {
    ReplicationConfig config;
    test.mutate(&config);
    const Status status = config.Validate();
    EXPECT_TRUE(status.IsInvalidArgument()) << test.what;
    EXPECT_NE(status.ToString().find(test.error), std::string::npos)
        << test.what << ": got " << status.ToString();
  }
}

TEST(ReplicationConfigTest, DurabilityKnobsOnlyValidatedWhenEnabled) {
  // The opt-in contract: stray durability knobs on a config that never
  // enables the content store must not fail validation (pre-existing
  // configs can't start rejecting).
  ReplicationConfig config;
  config.durability.enabled = false;
  config.durability.scrub_rate_kbps = -5.0;
  EXPECT_TRUE(config.Validate().ok());
  config.durability.enabled = true;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ReplicationConfigTest, EngineRejectsKBeyondMaxNodes) {
  // k backups + 1 primary must fit the cluster at max scale.
  EngineConfig config;
  config.replication.enabled = true;
  config.replication.k = config.max_nodes;
  const Status status = config.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  config.replication.k = config.max_nodes - 1;
  EXPECT_TRUE(config.Validate().ok());
}

TEST_F(ReplicaManagerTest, StartsEmptyAndDegraded) {
  for (BucketId b = 0; b < kBuckets; ++b) {
    EXPECT_TRUE(manager_.replicas(b).empty());
    EXPECT_TRUE(manager_.IsDegraded(b));
  }
  EXPECT_EQ(manager_.degraded_buckets(), kBuckets);
  EXPECT_EQ(manager_.TotalBackupRowCount(), 0);
}

TEST_F(ReplicaManagerTest, InstallReplicaCopiesRowsAndTracksPlacement) {
  FillPrimary(40);
  const BucketId b = 0;
  ASSERT_TRUE(manager_.InstallReplica(b, /*target=*/4, primary_).ok());
  EXPECT_FALSE(manager_.IsDegraded(b));
  EXPECT_TRUE(manager_.HasReplicaOn(b, 4));
  EXPECT_EQ(manager_.backup_buckets_on_partition(4), 1);
  EXPECT_EQ(manager_.BackupBucketsOnNode(2), 1);  // Partition 4 = node 2.
  EXPECT_EQ(manager_.backup_fragment(4)->BucketRowCount(b),
            primary_.BucketRowCount(b));
  // Backup rows match the primary's contents, key by key.
  for (int64_t key : primary_.BucketKeys(0, b)) {
    auto row = manager_.backup_fragment(4)->Get(0, key);
    ASSERT_TRUE(row.ok());
    EXPECT_TRUE(*row == *primary_.Get(0, key));
  }
}

TEST_F(ReplicaManagerTest, PromoteTakesLowestIdAndRemovesIt) {
  FillPrimary(40);
  ASSERT_TRUE(manager_.InstallReplica(0, 6, primary_).ok());
  manager_.AddReplica(0, 2);  // Bookkeeping-only second replica.
  EXPECT_EQ(manager_.Promote(0), 2);  // Lowest id wins, deterministic.
  EXPECT_FALSE(manager_.HasReplicaOn(0, 2));
  EXPECT_TRUE(manager_.HasReplicaOn(0, 6));
  EXPECT_EQ(manager_.promotions(), 1);
  // No replica left after the second promotion -> -1.
  EXPECT_EQ(manager_.Promote(0), 6);
  EXPECT_EQ(manager_.Promote(0), -1);
}

TEST_F(ReplicaManagerTest, RemoveReplicaDropsBackupRows) {
  FillPrimary(40);
  ASSERT_TRUE(manager_.InstallReplica(1, 4, primary_).ok());
  const int64_t rows = manager_.backup_fragment(4)->BucketRowCount(1);
  ASSERT_GT(rows, 0);
  EXPECT_TRUE(manager_.RemoveReplica(1, 4));
  EXPECT_EQ(manager_.backup_fragment(4)->BucketRowCount(1), 0);
  EXPECT_EQ(manager_.replicas_dropped(), 1);
  EXPECT_FALSE(manager_.RemoveReplica(1, 4));  // Already gone.
}

TEST_F(ReplicaManagerTest, MoveReplicaPreservesRows) {
  FillPrimary(40);
  ASSERT_TRUE(manager_.InstallReplica(2, 4, primary_).ok());
  const int64_t rows = manager_.backup_fragment(4)->BucketRowCount(2);
  ASSERT_TRUE(manager_.MoveReplica(2, 4, 7).ok());
  EXPECT_EQ(manager_.backup_fragment(4)->BucketRowCount(2), 0);
  EXPECT_EQ(manager_.backup_fragment(7)->BucketRowCount(2), rows);
  EXPECT_TRUE(manager_.HasReplicaOn(2, 7));
  EXPECT_FALSE(manager_.HasReplicaOn(2, 4));
  EXPECT_EQ(manager_.replica_relocations(), 1);
}

TEST_F(ReplicaManagerTest, DropReplicasOnNodeClearsEveryHostedReplica) {
  FillPrimary(80);
  ASSERT_TRUE(manager_.InstallReplica(0, 4, primary_).ok());
  ASSERT_TRUE(manager_.InstallReplica(1, 5, primary_).ok());
  ASSERT_TRUE(manager_.InstallReplica(2, 6, primary_).ok());
  EXPECT_EQ(manager_.DropReplicasOnNode(2), 2);  // Partitions 4 and 5.
  EXPECT_TRUE(manager_.IsDegraded(0));
  EXPECT_TRUE(manager_.IsDegraded(1));
  EXPECT_FALSE(manager_.IsDegraded(2));
  EXPECT_EQ(manager_.TotalBackupRowCount(),
            manager_.backup_fragment(6)->BucketRowCount(2));
}

TEST_F(ReplicaManagerTest, RebuildLifecycleWithGenerationGuard) {
  FillPrimary(40);
  EXPECT_FALSE(manager_.rebuild_in_flight(3));
  const int64_t gen = manager_.BeginRebuild(3, /*target=*/5);
  EXPECT_TRUE(manager_.rebuild_in_flight(3));
  EXPECT_EQ(manager_.rebuild_target(3), 5);
  EXPECT_EQ(manager_.rebuild_gen(3), gen);
  EXPECT_EQ(manager_.rebuilds_in_flight(), 1);

  manager_.CancelRebuild(3);
  EXPECT_FALSE(manager_.rebuild_in_flight(3));
  EXPECT_NE(manager_.rebuild_gen(3), gen);  // Stale chunks are no-ops.
  EXPECT_EQ(manager_.rebuilds_in_flight(), 0);

  const int64_t gen2 = manager_.BeginRebuild(3, 5);
  EXPECT_NE(gen2, gen);
  ASSERT_TRUE(manager_.FinishRebuild(3, primary_).ok());
  EXPECT_FALSE(manager_.rebuild_in_flight(3));
  EXPECT_TRUE(manager_.HasReplicaOn(3, 5));
  EXPECT_EQ(manager_.rebuilds_completed(), 1);
  EXPECT_EQ(manager_.backup_fragment(5)->BucketRowCount(3),
            primary_.BucketRowCount(3));
}

TEST_F(ReplicaManagerTest, CancelRebuildsTargetingNode) {
  manager_.BeginRebuild(0, 4);
  manager_.BeginRebuild(1, 5);
  manager_.BeginRebuild(2, 7);
  EXPECT_EQ(manager_.CancelRebuildsTargeting(2), 2);  // Partitions 4, 5.
  EXPECT_FALSE(manager_.rebuild_in_flight(0));
  EXPECT_FALSE(manager_.rebuild_in_flight(1));
  EXPECT_TRUE(manager_.rebuild_in_flight(2));
}

TEST_F(ReplicaManagerTest, ChunkMathCeilsAndFloorsAtOne) {
  // 1 MB over 8 buckets = 128 kB/bucket; default 1000 kB chunks -> 1.
  EXPECT_DOUBLE_EQ(manager_.kb_per_bucket(), 128.0);
  EXPECT_EQ(manager_.chunks_per_rebuild(), 1);

  ReplicationConfig config = SmallConfig();
  config.db_size_mb = 100.0;
  config.rebuild_chunk_kb = 1000.0;
  Catalog catalog = MakeCatalog();
  ReplicaManager big(&catalog, config, kBuckets, kTotalPartitions,
                     kPartitionsPerNode);
  // 12800 kB per bucket over 1000 kB chunks -> ceil = 13.
  EXPECT_EQ(big.chunks_per_rebuild(), 13);
}

TEST_F(ReplicaManagerTest, RecoveryDurationFromCheckpointAndLog) {
  // Nothing checkpointed, nothing logged: the 1 us floor.
  EXPECT_EQ(manager_.RecoveryDuration(1), 1);

  // 102400 kB at 102400 kB/s = 1 s; 100 entries at 100 us = 10 ms.
  for (int i = 0; i < 100; ++i) manager_.RecordWrite(1);
  manager_.TakeCheckpoint(1, 102400.0);
  EXPECT_EQ(manager_.log_entries(1), 0);  // Checkpoint truncates the log.
  EXPECT_EQ(manager_.checkpoints(), 1);
  for (int i = 0; i < 100; ++i) manager_.RecordWrite(1);
  EXPECT_EQ(manager_.log_entries(1), 100);
  EXPECT_EQ(manager_.RecoveryDuration(1),
            static_cast<SimDuration>(1e6 + 100 * 100));

  manager_.ResetNode(1);
  EXPECT_EQ(manager_.RecoveryDuration(1), 1);
}

TEST_F(ReplicaManagerTest, ApplyGaugeTracksOutstandingWork) {
  manager_.OnApplyStarted();
  manager_.OnApplyStarted();
  EXPECT_EQ(manager_.applies(), 2);
  EXPECT_EQ(manager_.outstanding_applies(), 2);
  manager_.OnApplyFinished();
  EXPECT_EQ(manager_.outstanding_applies(), 1);
  manager_.OnApplyFinished();
  EXPECT_EQ(manager_.outstanding_applies(), 0);
  EXPECT_EQ(manager_.applies(), 2);
}

TEST_F(ReplicaManagerTest, LagWindowAppliesStrictlyBeforeItsEnd) {
  EXPECT_EQ(manager_.lag(0), 0);
  manager_.OpenLag(5 * kMillisecond, 10 * kSecond);
  EXPECT_EQ(manager_.lag(0), 5 * kMillisecond);
  EXPECT_EQ(manager_.lag(10 * kSecond - 1), 5 * kMillisecond);
  EXPECT_EQ(manager_.lag(10 * kSecond), 0);
  // A new window replaces the open one.
  manager_.OpenLag(2 * kMillisecond, 20 * kSecond);
  EXPECT_EQ(manager_.lag(15 * kSecond), 2 * kMillisecond);
}

}  // namespace
}  // namespace replication
}  // namespace pstore
