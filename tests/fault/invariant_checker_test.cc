#include "fault/invariant_checker.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "migration/migration_executor.h"

namespace pstore {
namespace {

using testing_util::FastMigration;
using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;

class InvariantCheckerTest : public ::testing::Test {
 protected:
  InvariantCheckerTest() : db_(MakeKvDatabase()) {}

  void BuildEngine(EngineConfig config, int64_t rows = 200) {
    engine_ = std::make_unique<ClusterEngine>(&sim_, db_.catalog,
                                              db_.registry, config);
    for (int64_t k = 0; k < rows; ++k) {
      ASSERT_TRUE(
          engine_->LoadRow(db_.table, Row({Value(k), Value(k)})).ok());
    }
    rows_ = rows;
  }

  Simulator sim_;
  testing_util::KvDatabase db_;
  std::unique_ptr<ClusterEngine> engine_;
  int64_t rows_ = 0;
};

TEST_F(InvariantCheckerTest, CleanEnginePasses) {
  BuildEngine(SmallEngineConfig());
  InvariantChecker checker(engine_.get(), nullptr);
  checker.set_expected_rows(rows_);
  EXPECT_TRUE(checker.Check().ok());
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.checks_run(), 1);
}

TEST_F(InvariantCheckerTest, CleanAfterMigration) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  InvariantChecker checker(engine_.get(), &migrator);
  checker.set_expected_rows(rows_);
  ASSERT_TRUE(migrator.StartMove(4, nullptr).ok());
  sim_.RunAll();
  EXPECT_TRUE(checker.Check().ok());
  EXPECT_TRUE(checker.violations().empty());
}

TEST_F(InvariantCheckerTest, CleanAfterCrashFailover) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 4;
  BuildEngine(config);
  InvariantChecker checker(engine_.get(), nullptr);
  checker.set_expected_rows(rows_);
  ASSERT_TRUE(engine_->CrashNode(3).ok());
  EXPECT_TRUE(checker.Check().ok()) << checker.violations().size()
                                    << " violations";
  EXPECT_EQ(engine_->live_nodes(), 3);
}

TEST_F(InvariantCheckerTest, DetectsBucketOwnedByDeadNode) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 4;
  BuildEngine(config);
  ASSERT_TRUE(engine_->CrashNode(3).ok());
  // Corrupt the map: hand a bucket back to the dead node's partition.
  PartitionMap bad = engine_->partition_map();
  bad.Assign(0, 6);  // partition 6 lives on crashed node 3
  engine_->SetPartitionMap(bad);

  InvariantChecker checker(engine_.get(), nullptr);
  EXPECT_FALSE(checker.Check().ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations()[0].what.find("dead node"),
            std::string::npos);
}

TEST_F(InvariantCheckerTest, DetectsBucketOwnedByInactivePartition) {
  BuildEngine(SmallEngineConfig());  // 2 active nodes -> partitions 0..3
  PartitionMap bad = engine_->partition_map();
  bad.Assign(5, 7);  // partition 7 is not active
  engine_->SetPartitionMap(bad);

  InvariantChecker checker(engine_.get(), nullptr);
  EXPECT_FALSE(checker.Check().ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations()[0].what.find("inactive partition"),
            std::string::npos);
}

TEST_F(InvariantCheckerTest, DetectsOrphanRows) {
  BuildEngine(SmallEngineConfig());
  // Reassign a bucket in the map without moving its rows: the old owner
  // now holds rows of a bucket it does not own. Pick a bucket that
  // actually has rows (key->bucket hashing leaves some buckets empty).
  BucketId bucket = -1;
  PartitionId old_owner = -1;
  for (BucketId b = 0; b < 64 && bucket < 0; ++b) {
    const PartitionId p = engine_->partition_map().PartitionOfBucket(b);
    if (engine_->fragment(p)->BucketRowCount(b) > 0) {
      bucket = b;
      old_owner = p;
    }
  }
  ASSERT_GE(bucket, 0);
  const PartitionId new_owner = (old_owner + 1) % 4;
  PartitionMap bad = engine_->partition_map();
  bad.Assign(bucket, new_owner);
  engine_->SetPartitionMap(bad);

  InvariantChecker checker(engine_.get(), nullptr);
  EXPECT_FALSE(checker.Check().ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations()[0].what.find("orphan rows"),
            std::string::npos);
}

TEST_F(InvariantCheckerTest, DetectsRowConservationBreak) {
  BuildEngine(SmallEngineConfig());
  InvariantChecker checker(engine_.get(), nullptr);
  checker.set_expected_rows(rows_ + 1);  // claim one more row than loaded
  EXPECT_FALSE(checker.Check().ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations()[0].what.find("conservation"),
            std::string::npos);
}

TEST_F(InvariantCheckerTest, PeriodicChecksRunOnVirtualClock) {
  BuildEngine(SmallEngineConfig());
  InvariantChecker checker(engine_.get(), nullptr);
  checker.set_expected_rows(rows_);
  checker.StartPeriodic(kSecond);
  sim_.RunUntil(10 * kSecond + kMillisecond);
  checker.Stop();
  sim_.RunAll();
  EXPECT_GE(checker.checks_run(), 10);
  EXPECT_TRUE(checker.violations().empty());
}

TEST_F(InvariantCheckerTest, TxnAccountingStaysConsistentUnderLoad) {
  BuildEngine(SmallEngineConfig());
  InvariantChecker checker(engine_.get(), nullptr);
  checker.set_expected_rows(rows_);
  checker.StartPeriodic(100 * kMillisecond);
  for (int64_t i = 0; i < 100; ++i) {
    TxnRequest get;
    get.proc = db_.get;
    get.key = i % rows_;
    sim_.Schedule(i * 10 * kMillisecond,
                  [this, get]() { engine_->Submit(get); });
  }
  sim_.RunUntil(2 * kSecond);
  checker.Stop();
  sim_.RunAll();
  EXPECT_EQ(engine_->txns_committed(), 100);
  EXPECT_TRUE(checker.violations().empty());
}

}  // namespace
}  // namespace pstore
