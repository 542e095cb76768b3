#include "core/skew_manager.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;

class SkewManagerTest : public ::testing::Test {
 protected:
  SkewManagerTest() : db_(MakeKvDatabase()) {}

  /// \param queue_limit with > 0, overload control on with this bound
  void Build(int32_t queue_limit = 0) {
    EngineConfig config = testing_util::SmallEngineConfig();
    config.initial_nodes = 2;  // 4 partitions
    config.txn_service_us_mean = 1000.0;
    if (queue_limit > 0) {
      config.overload.enabled = true;
      config.overload.max_queue_depth = queue_limit;
    }
    engine_ = std::make_unique<ClusterEngine>(&sim_, db_.catalog,
                                              db_.registry, config);
    for (int64_t k = 0; k < 400; ++k) {
      ASSERT_TRUE(
          engine_->LoadRow(db_.table, Row({Value(k), Value(k)})).ok());
    }
    // 6.25 MB over the 64 buckets: 100 kB per relocated bucket.
    MigrationOptions migration;
    migration.db_size_mb = 6.25;
    migration.rate_kbps = 5000;
    migrator_ = std::make_unique<MigrationExecutor>(engine_.get(),
                                                    migration);
  }

  SkewManagerConfig Config() {
    SkewManagerConfig config;
    config.monitor_period = 2 * kSecond;
    config.imbalance_threshold = 1.3;
    config.max_buckets_per_cycle = 4;
    return config;
  }

  /// Sends `n` Get transactions for `key`, spaced every ms from `at`.
  void HammerKey(int64_t key, int64_t n, SimTime at) {
    for (int64_t i = 0; i < n; ++i) {
      TxnRequest get;
      get.proc = db_.get;
      get.key = key;
      sim_.ScheduleAt(at + i * kMillisecond,
                      [this, get]() { engine_->Submit(get); });
    }
  }

  /// Uniform background load over all keys.
  void BackgroundLoad(int64_t n, SimTime at) {
    for (int64_t i = 0; i < n; ++i) {
      TxnRequest get;
      get.proc = db_.get;
      get.key = (i * 31) % 400;
      sim_.ScheduleAt(at + i * 2 * kMillisecond,
                      [this, get]() { engine_->Submit(get); });
    }
  }

  Simulator sim_;
  testing_util::KvDatabase db_;
  std::unique_ptr<ClusterEngine> engine_;
  std::unique_ptr<MigrationExecutor> migrator_;
};

TEST_F(SkewManagerTest, ConfigValidation) {
  SkewManagerConfig c = Config();
  EXPECT_TRUE(c.Validate().ok());
  c.imbalance_threshold = 1.0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.monitor_period = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.max_buckets_per_cycle = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST_F(SkewManagerTest, NoActionOnUniformLoad) {
  Build();
  SkewManager manager(engine_.get(), migrator_.get(), Config());
  manager.Start();
  BackgroundLoad(2000, 0);
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(manager.rebalances(), 0);
  EXPECT_EQ(manager.buckets_moved(), 0);
}

TEST_F(SkewManagerTest, RelocatesHotBucket) {
  Build();
  SkewManager manager(engine_.get(), migrator_.get(), Config());
  manager.Start();

  // One scorching key plus light background: its partition saturates.
  const int64_t hot_key = 7;
  const BucketId hot_bucket =
      KeyToBucket(hot_key, engine_->config().num_buckets);
  const PartitionId owner_before =
      engine_->partition_map().PartitionOfBucket(hot_bucket);
  HammerKey(hot_key, 3000, 0);
  BackgroundLoad(600, 0);
  sim_.RunUntil(12 * kSecond);

  EXPECT_GT(manager.rebalances(), 0);
  EXPECT_GT(manager.buckets_moved(), 0);
  // The hot bucket moved away from its original partition, and the row
  // is still reachable through the map.
  const PartitionId owner_after =
      engine_->partition_map().PartitionOfBucket(hot_bucket);
  EXPECT_NE(owner_after, owner_before);
  EXPECT_TRUE(engine_->fragment(owner_after)->Contains(db_.table, hot_key));
  EXPECT_EQ(engine_->TotalRowCount(), 400);
}

TEST_F(SkewManagerTest, RelocationImprovesBalance) {
  Build();
  SkewManagerConfig config = Config();
  SkewManager manager(engine_.get(), migrator_.get(), config);
  manager.Start();

  // Hot keys in distinct buckets, all initially on whatever partitions
  // they hash to; hammer them hard for several windows.
  for (int64_t key : {7, 19, 23}) {
    HammerKey(key, 2000, 0);
  }
  BackgroundLoad(1000, 0);
  sim_.RunUntil(8 * kSecond);
  engine_->ResetBucketAccessCounts();

  // Measure post-balance skew over a fresh window of the same load.
  for (int64_t key : {7, 19, 23}) {
    HammerKey(key, 2000, sim_.Now());
  }
  BackgroundLoad(1000, sim_.Now());
  manager.Stop();
  sim_.RunAll();

  const auto& buckets = engine_->bucket_access_counts();
  const PartitionMap& map = engine_->partition_map();
  std::vector<int64_t> load(static_cast<size_t>(
                                engine_->active_partitions()),
                            0);
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    load[static_cast<size_t>(map.PartitionOfBucket(b))] +=
        buckets[static_cast<size_t>(b)];
  }
  const int64_t hottest = *std::max_element(load.begin(), load.end());
  int64_t total = 0;
  for (int64_t v : load) total += v;
  const double mean =
      static_cast<double>(total) / static_cast<double>(load.size());
  // Three hot buckets over four partitions: after balancing no
  // partition should carry more than ~one hot bucket plus background.
  EXPECT_LT(static_cast<double>(hottest), 1.8 * mean);
}

TEST_F(SkewManagerTest, DefersToInFlightReconfiguration) {
  Build();
  SkewManagerConfig config = Config();
  config.monitor_period = kSecond;
  // Start a slow reconfiguration, then hammer: the manager must not
  // interfere while the move is in flight.
  MigrationOptions slow;
  slow.db_size_mb = 10;
  slow.rate_kbps = 3;  // glacial
  MigrationExecutor slow_migrator(engine_.get(), slow);
  SkewManager deferring(engine_.get(), &slow_migrator, config);
  deferring.Start();
  ASSERT_TRUE(slow_migrator.StartMove(4, nullptr).ok());
  HammerKey(7, 2000, 0);
  sim_.RunUntil(6 * kSecond);
  EXPECT_TRUE(slow_migrator.InProgress());
  EXPECT_EQ(deferring.rebalances(), 0);
}

TEST_F(SkewManagerTest, RelocationRespectsQueueLimitUnderOverload) {
  constexpr int32_t kLimit = 4;
  Build(kLimit);
  SkewManager manager(engine_.get(), migrator_.get(), Config());
  manager.Start();
  // Two Gets per ms on one key against ~1 ms of service each: the hot
  // partition's queue sits at its limit when the manager acts.
  HammerKey(7, 6000, 0);
  HammerKey(7, 6000, kMillisecond / 2);
  BackgroundLoad(600, 0);
  sim_.RunUntil(7 * kSecond);
  EXPECT_GT(manager.rebalances(), 0);
  for (PartitionId p = 0; p < engine_->active_partitions(); ++p) {
    EXPECT_LE(engine_->executor(p)->max_queue_depth(),
              static_cast<size_t>(kLimit))
        << "partition " << p;
  }
  EXPECT_EQ(engine_->TotalRowCount(), 400);
}

TEST_F(SkewManagerTest, StopHaltsMonitoring) {
  Build();
  SkewManager manager(engine_.get(), migrator_.get(), Config());
  manager.Start();
  manager.Stop();
  HammerKey(7, 3000, 0);
  sim_.RunAll();
  EXPECT_EQ(manager.rebalances(), 0);
}

}  // namespace
}  // namespace pstore
