#include "cluster/engine.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(MakeKvDatabase()) {}

  std::unique_ptr<ClusterEngine> MakeEngine(EngineConfig config) {
    return std::make_unique<ClusterEngine>(&sim_, db_.catalog, db_.registry,
                                           config);
  }

  Simulator sim_;
  testing_util::KvDatabase db_;
};

TEST_F(EngineTest, ConfigValidation) {
  EngineConfig c = SmallEngineConfig();
  EXPECT_TRUE(c.Validate().ok());
  c.initial_nodes = 100;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = SmallEngineConfig();
  c.num_buckets = 1;  // fewer than partitions at max scale
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = SmallEngineConfig();
  c.txn_service_us_mean = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  // A zero window would divide by zero on the first completion.
  c = SmallEngineConfig();
  c.latency_window = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = SmallEngineConfig();
  c.throughput_window = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST_F(EngineTest, TopologyAccessors) {
  auto engine = MakeEngine(SmallEngineConfig());
  EXPECT_EQ(engine->active_nodes(), 2);
  EXPECT_EQ(engine->total_partitions(), 16);
  EXPECT_EQ(engine->active_partitions(), 4);
  EXPECT_EQ(engine->NodeOfPartition(0), 0);
  EXPECT_EQ(engine->NodeOfPartition(3), 1);
}

TEST_F(EngineTest, LoadRowRoutesByKey) {
  auto engine = MakeEngine(SmallEngineConfig());
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(
        engine->LoadRow(db_.table, Row({Value(k), Value(k * 10)})).ok());
  }
  EXPECT_EQ(engine->TotalRowCount(), 100);
  // Every row lives on the partition the map says owns its key.
  for (int64_t k = 0; k < 100; ++k) {
    const PartitionId p = engine->partition_map().PartitionOfKey(k);
    EXPECT_TRUE(engine->fragment(p)->Contains(db_.table, k));
  }
}

TEST_F(EngineTest, SubmitExecutesProcedure) {
  auto engine = MakeEngine(SmallEngineConfig());
  TxnResult result;
  bool done = false;
  TxnRequest put;
  put.proc = db_.put;
  put.key = 42;
  put.args = {Value(int64_t{7})};
  engine->Submit(put, [&](const TxnResult& r) {
    result = r;
    done = true;
  });
  sim_.RunAll();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(engine->txns_committed(), 1);

  TxnRequest get;
  get.proc = db_.get;
  get.key = 42;
  engine->Submit(get, [&](const TxnResult& r) { result = r; });
  sim_.RunAll();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(1).as_int64(), 7);
}

TEST_F(EngineTest, AbortedTxnCountsSeparately) {
  auto engine = MakeEngine(SmallEngineConfig());
  TxnRequest get;
  get.proc = db_.get;
  get.key = 12345;  // missing
  engine->Submit(get);
  sim_.RunAll();
  EXPECT_EQ(engine->txns_committed(), 0);
  EXPECT_EQ(engine->txns_aborted(), 1);
  EXPECT_EQ(engine->txns_submitted(), 1);
}

TEST_F(EngineTest, LatencyIncludesQueueing) {
  EngineConfig config = SmallEngineConfig();
  config.txn_service_us_mean = 1000;
  auto engine = MakeEngine(config);
  // Two txns on the same key: the second queues behind the first.
  TxnRequest put;
  put.proc = db_.put;
  put.key = 1;
  put.args = {Value(int64_t{1})};
  engine->Submit(put);
  engine->Submit(put);
  sim_.RunAll();
  const Histogram& h = engine->latency_histogram();
  EXPECT_EQ(h.count(), 2);
  EXPECT_NEAR(static_cast<double>(h.max()), 2000.0, 100.0);
}

TEST_F(EngineTest, ActivateDeactivateNodes) {
  auto engine = MakeEngine(SmallEngineConfig());
  EXPECT_TRUE(engine->ActivateNodes(4).ok());
  EXPECT_EQ(engine->active_nodes(), 4);
  EXPECT_TRUE(engine->ActivateNodes(3).ok());  // no-op shrink
  EXPECT_EQ(engine->active_nodes(), 4);
  EXPECT_TRUE(engine->ActivateNodes(100).IsInvalidArgument());
  // New nodes are empty, so deactivation succeeds.
  EXPECT_TRUE(engine->DeactivateNodes(2).ok());
  EXPECT_EQ(engine->active_nodes(), 2);
  EXPECT_TRUE(engine->DeactivateNodes(0).IsInvalidArgument());
}

TEST_F(EngineTest, DeactivateRefusesNonEmptyNodes) {
  auto engine = MakeEngine(SmallEngineConfig());
  // Put data on node 1's partitions (initial nodes own all buckets).
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(engine->LoadRow(db_.table, Row({Value(k), Value(k)})).ok());
  }
  EXPECT_TRUE(engine->DeactivateNodes(1).IsFailedPrecondition());
}

TEST_F(EngineTest, ApplyBucketMoveMovesRowsAndRemaps) {
  auto engine = MakeEngine(SmallEngineConfig());
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(engine->LoadRow(db_.table, Row({Value(k), Value(k)})).ok());
  }
  ASSERT_TRUE(engine->ActivateNodes(3).ok());
  const BucketId bucket = 0;
  const PartitionId from = engine->partition_map().PartitionOfBucket(bucket);
  const PartitionId to = 4;  // node 2's first partition
  const int64_t rows_before = engine->TotalRowCount();
  ASSERT_TRUE(engine->ApplyBucketMove(BucketMove{bucket, from, to}).ok());
  EXPECT_EQ(engine->TotalRowCount(), rows_before);
  EXPECT_EQ(engine->partition_map().PartitionOfBucket(bucket), to);
  // Wrong owner is rejected.
  EXPECT_TRUE(engine->ApplyBucketMove(BucketMove{bucket, from, to})
                  .IsFailedPrecondition());
}

TEST_F(EngineTest, TxnForwardsAfterBucketMove) {
  EngineConfig config = SmallEngineConfig();
  config.txn_service_us_mean = 1000;
  auto engine = MakeEngine(config);
  const int64_t key = 7;
  ASSERT_TRUE(
      engine->LoadRow(db_.table, Row({Value(key), Value(int64_t{9})})).ok());
  ASSERT_TRUE(engine->ActivateNodes(3).ok());

  const BucketId bucket =
      KeyToBucket(key, engine->config().num_buckets);
  const PartitionId old_owner =
      engine->partition_map().PartitionOfBucket(bucket);

  // Queue a read behind a long work item, then move the bucket while
  // the read waits. The read must forward to the new owner and succeed.
  engine->executor(old_owner)->Enqueue(5000, nullptr);
  TxnResult result;
  TxnRequest get;
  get.proc = db_.get;
  get.key = key;
  engine->Submit(get, [&](const TxnResult& r) { result = r; });
  sim_.Schedule(1000, [&]() {
    ASSERT_TRUE(
        engine->ApplyBucketMove(BucketMove{bucket, old_owner, 4}).ok());
  });
  sim_.RunAll();
  EXPECT_TRUE(result.status.ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(1).as_int64(), 9);
}

TEST_F(EngineTest, ThroughputWindowsCountCompletions) {
  EngineConfig config = SmallEngineConfig();
  config.throughput_window = kSecond;
  auto engine = MakeEngine(config);
  TxnRequest put;
  put.proc = db_.put;
  put.key = 1;
  put.args = {Value(int64_t{1})};
  engine->Submit(put);
  sim_.RunUntil(2 * kSecond);
  engine->Submit(put);
  sim_.RunAll();
  const auto& windows = engine->throughput_windows();
  ASSERT_GE(windows.size(), 3u);
  EXPECT_EQ(windows[0], 1);
  EXPECT_EQ(windows[2], 1);
}

TEST_F(EngineTest, AllocationTimelineAndAverage) {
  auto engine = MakeEngine(SmallEngineConfig());
  sim_.RunUntil(100 * kSecond);
  ASSERT_TRUE(engine->ActivateNodes(4).ok());
  sim_.RunUntil(200 * kSecond);
  // 2 nodes for 100 s, 4 nodes for 100 s -> average 3.
  EXPECT_NEAR(engine->AverageNodesAllocated(), 3.0, 1e-9);
  ASSERT_EQ(engine->allocation_timeline().size(), 2u);
}

TEST_F(EngineTest, ServiceTimeJitterIsLognormalAroundMean) {
  EngineConfig config = SmallEngineConfig();
  config.txn_service_cv = 0.3;
  auto engine = MakeEngine(config);
  TxnRequest put;
  put.proc = db_.put;
  put.args = {Value(int64_t{1})};
  // Submit spaced-out txns (no queueing) on distinct keys.
  for (int i = 0; i < 2000; ++i) {
    put.key = i * 1000 + 17;
    sim_.Schedule(i * 10 * kMillisecond,
                  [&engine, put]() { engine->Submit(put); });
  }
  sim_.RunAll();
  const Histogram& h = engine->latency_histogram();
  EXPECT_EQ(h.count(), 2000);
  EXPECT_NEAR(h.Mean(), 1000.0, 60.0);
  EXPECT_GT(h.max(), 1200);
}

TEST_F(EngineTest, PartitionAccessCountsTrackExecutions) {
  auto engine = MakeEngine(SmallEngineConfig());
  TxnRequest put;
  put.proc = db_.put;
  put.args = {Value(int64_t{1})};
  for (int64_t k = 0; k < 400; ++k) {
    put.key = k;
    engine->Submit(put);
  }
  sim_.RunAll();
  const auto& counts = engine->partition_access_counts();
  int64_t total = 0;
  for (int32_t p = 0; p < engine->active_partitions(); ++p) {
    total += counts[static_cast<size_t>(p)];
    EXPECT_GT(counts[static_cast<size_t>(p)], 0);
  }
  EXPECT_EQ(total, 400);
}

}  // namespace
}  // namespace pstore
