#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "fault/invariant_checker.h"

namespace pstore {
namespace {

using testing_util::FastMigration;
using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest() : db_(MakeKvDatabase()) {}

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

TEST_F(FaultInjectorTest, CrashRedistributesBucketsAndRows) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 3;
  BuildEngine(config);
  const auto counts_before = engine_->partition_map().BucketCounts();
  ASSERT_GT(counts_before[4] + counts_before[5], 0);

  ASSERT_TRUE(engine_->CrashNode(2).ok());
  EXPECT_EQ(engine_->live_nodes(), 2);
  EXPECT_EQ(engine_->active_nodes(), 3);  // crashed, not deactivated
  EXPECT_EQ(engine_->fault_epoch(), 1);
  EXPECT_GT(engine_->failover_moves(), 0);

  // The dead node's partitions hold nothing and own nothing.
  for (PartitionId p = 4; p < 6; ++p) {
    EXPECT_EQ(engine_->fragment(p)->TotalRowCount(), 0);
    EXPECT_TRUE(engine_->partition_map().BucketsOfPartition(p).empty());
  }
  EXPECT_EQ(engine_->TotalRowCount(), rows_);
  // Every key is reachable on a live node.
  for (int64_t k = 0; k < rows_; ++k) {
    const PartitionId p = engine_->partition_map().PartitionOfKey(k);
    EXPECT_TRUE(engine_->IsNodeUp(engine_->NodeOfPartition(p)));
    EXPECT_TRUE(engine_->fragment(p)->Contains(db_.table, k));
  }
}

TEST_F(FaultInjectorTest, CrashingLastLiveNodeRejected) {
  BuildEngine(SmallEngineConfig());
  ASSERT_TRUE(engine_->CrashNode(1).ok());
  EXPECT_TRUE(engine_->CrashNode(0).IsFailedPrecondition());
  EXPECT_EQ(engine_->live_nodes(), 1);
}

TEST_F(FaultInjectorTest, CrashValidation) {
  BuildEngine(SmallEngineConfig());
  EXPECT_TRUE(engine_->CrashNode(-1).IsFailedPrecondition());
  EXPECT_TRUE(engine_->CrashNode(5).IsFailedPrecondition());  // inactive
  ASSERT_TRUE(engine_->CrashNode(1).ok());
  EXPECT_TRUE(engine_->CrashNode(1).IsFailedPrecondition());  // already down
}

TEST_F(FaultInjectorTest, RestartRejoinsEmpty) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 3;
  BuildEngine(config);
  ASSERT_TRUE(engine_->CrashNode(2).ok());
  EXPECT_TRUE(engine_->RestartNode(1).IsFailedPrecondition());  // still up
  ASSERT_TRUE(engine_->RestartNode(2).ok());
  EXPECT_EQ(engine_->live_nodes(), 3);
  EXPECT_EQ(engine_->fault_epoch(), 2);
  // Rejoined empty: buckets stay where failover put them until the
  // elasticity controllers rebalance.
  EXPECT_EQ(engine_->fragment(4)->TotalRowCount(), 0);
  EXPECT_EQ(engine_->TotalRowCount(), rows_);
}

TEST_F(FaultInjectorTest, ArmFiresScheduledCrash) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 3;
  BuildEngine(config);
  FaultInjector injector(engine_.get(), nullptr, /*seed=*/1);

  FaultPlan plan;
  FaultEvent crash;
  crash.at = 5 * kSecond;
  crash.type = FaultType::kNodeCrash;  // node = -1: injector picks
  plan.events = {crash};
  ASSERT_TRUE(injector.Arm(plan).ok());
  EXPECT_TRUE(injector.Arm(plan).IsFailedPrecondition());  // armed once

  sim_.RunUntil(4 * kSecond);
  EXPECT_EQ(engine_->live_nodes(), 3);
  sim_.RunUntil(6 * kSecond);
  EXPECT_EQ(engine_->live_nodes(), 2);
  EXPECT_EQ(injector.crashes(), 1);
  // Picks the highest live node, never node 0.
  EXPECT_FALSE(engine_->IsNodeUp(2));
  EXPECT_TRUE(engine_->IsNodeUp(0));
  EXPECT_FALSE(injector.trace().empty());
}

TEST_F(FaultInjectorTest, CrashThenRestartViaPlan) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 3;
  BuildEngine(config);
  FaultInjector injector(engine_.get(), nullptr, 1);

  FaultPlan plan;
  FaultEvent crash;
  crash.at = kSecond;
  crash.type = FaultType::kNodeCrash;
  FaultEvent restart;
  restart.at = 2 * kSecond;
  restart.type = FaultType::kNodeRestart;
  plan.events = {crash, restart};
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim_.RunUntil(3 * kSecond);

  EXPECT_EQ(injector.crashes(), 1);
  EXPECT_EQ(injector.restarts(), 1);
  EXPECT_EQ(engine_->live_nodes(), 3);
  EXPECT_EQ(engine_->fault_epoch(), 2);

  InvariantChecker checker(engine_.get(), nullptr);
  checker.set_expected_rows(rows_);
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(FaultInjectorTest, RestartWithNoCrashedNodeIsSkipped) {
  BuildEngine(SmallEngineConfig());
  FaultInjector injector(engine_.get(), nullptr, 1);
  FaultPlan plan;
  FaultEvent restart;
  restart.at = kSecond;
  restart.type = FaultType::kNodeRestart;
  plan.events = {restart};
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(injector.restarts(), 0);
  bool skipped = false;
  for (const std::string& line : injector.trace().lines()) {
    if (line.find("restart skipped") != std::string::npos) skipped = true;
  }
  EXPECT_TRUE(skipped);
}

TEST_F(FaultInjectorTest, MisforecastWindowScalesForecasts) {
  BuildEngine(SmallEngineConfig());
  FaultInjector injector(engine_.get(), nullptr, 1);
  FaultPlan plan;
  FaultEvent mis;
  mis.at = kSecond;
  mis.type = FaultType::kMisforecast;
  mis.duration = 5 * kSecond;
  mis.forecast_scale = 0.5;
  plan.events = {mis};
  ASSERT_TRUE(injector.Arm(plan).ok());

  OraclePredictor oracle;
  MisforecastPredictor faulty(&oracle, &injector);
  EXPECT_EQ(faulty.name(), "Oracle+faults");
  const std::vector<double> series = {100, 100, 100, 100, 100, 100};

  EXPECT_DOUBLE_EQ(injector.forecast_scale(), 1.0);
  auto before = faulty.Forecast(series, 1, 2);
  ASSERT_TRUE(before.ok());
  EXPECT_DOUBLE_EQ((*before)[0], 100.0);

  sim_.RunUntil(2 * kSecond);  // inside the window
  EXPECT_DOUBLE_EQ(injector.forecast_scale(), 0.5);
  auto during = faulty.Forecast(series, 1, 2);
  ASSERT_TRUE(during.ok());
  EXPECT_DOUBLE_EQ((*during)[0], 50.0);
  EXPECT_DOUBLE_EQ((*during)[1], 50.0);

  sim_.RunUntil(10 * kSecond);  // window closed
  EXPECT_DOUBLE_EQ(injector.forecast_scale(), 1.0);
  auto after = faulty.Forecast(series, 1, 2);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ((*after)[0], 100.0);
}

TEST_F(FaultInjectorTest, ChunkFailureWindowCausesRetriesThenCompletion) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  FaultInjector injector(engine_.get(), &migrator, 7);

  FaultPlan plan;
  FaultEvent fail;
  fail.at = 0;
  fail.type = FaultType::kChunkFailure;
  fail.duration = 50 * kMillisecond;
  fail.probability = 1.0;  // every chunk attempt in the window fails
  plan.events = {fail};
  ASSERT_TRUE(injector.Arm(plan).ok());

  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunAll();

  EXPECT_TRUE(completed);
  EXPECT_GT(injector.chunk_faults(), 0);
  EXPECT_GT(migrator.chunk_retries(), 0);
  EXPECT_EQ(engine_->active_nodes(), 4);
  EXPECT_EQ(engine_->TotalRowCount(), rows_);

  InvariantChecker checker(engine_.get(), &migrator);
  checker.set_expected_rows(rows_);
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(FaultInjectorTest, StallWindowDelaysButCompletesMove) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  FaultInjector injector(engine_.get(), &migrator, 7);

  FaultPlan plan;
  FaultEvent stall;
  stall.at = 0;
  stall.type = FaultType::kMigrationStall;
  stall.duration = 20 * kMillisecond;
  stall.stall = kSecond;  // well past the chunk timeout
  plan.events = {stall};
  ASSERT_TRUE(injector.Arm(plan).ok());

  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunAll();

  EXPECT_TRUE(completed);
  EXPECT_GT(injector.chunk_faults(), 0);
  EXPECT_EQ(engine_->TotalRowCount(), rows_);
}

}  // namespace
}  // namespace pstore
