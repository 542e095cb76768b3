#include "core/reactive_controller.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;

class ReactiveControllerTest : public ::testing::Test {
 protected:
  ReactiveControllerTest() : db_(MakeKvDatabase()) {}

  void Build(int32_t initial_nodes,
             overload::OverloadConfig overload = {}) {
    EngineConfig config = testing_util::SmallEngineConfig();
    config.initial_nodes = initial_nodes;
    config.overload = overload;
    engine_ = std::make_unique<ClusterEngine>(&sim_, db_.catalog,
                                              db_.registry, config);
    MigrationOptions migration;
    migration.chunk_kb = 200;
    migration.rate_kbps = 5000;
    migration.wire_kbps = 50000;
    migration.db_size_mb = 10;
    migrator_ = std::make_unique<MigrationExecutor>(engine_.get(), migration);
  }

  ReactiveConfig Config() {
    ReactiveConfig config;
    config.q = 100.0;
    config.q_hat = 125.0;
    config.high_watermark = 0.9;  // tests exercise the knobs explicitly
    config.headroom = 0.10;
    config.monitor_period = kSecond;
    config.scale_in_hold = 5 * kSecond;
    return config;
  }

  void OfferLoad(double rate, double seconds, double start_s = 0) {
    const int64_t n = static_cast<int64_t>(rate * seconds);
    for (int64_t i = 0; i < n; ++i) {
      TxnRequest put;
      put.proc = db_.put;
      put.key = (i * 48271) % 100000;
      put.args = {Value(int64_t{1})};
      sim_.ScheduleAt(
          SecondsToDuration(start_s + i * seconds / n),
          [this, put]() { engine_->Submit(put); });
    }
  }

  Simulator sim_;
  testing_util::KvDatabase db_;
  std::unique_ptr<ClusterEngine> engine_;
  std::unique_ptr<MigrationExecutor> migrator_;
};

TEST_F(ReactiveControllerTest, ConfigValidation) {
  ReactiveConfig c = Config();
  EXPECT_TRUE(c.Validate().ok());
  c.q_hat = 50;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.high_watermark = 1.5;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.low_watermark = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.headroom = -0.1;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST_F(ReactiveControllerTest, ScalesOutOnlyAfterOverload) {
  Build(1);
  ReactiveController controller(engine_.get(), migrator_.get(), Config());
  controller.Start();
  // Light load first: nothing happens.
  OfferLoad(50.0, 5.0);
  sim_.RunUntil(SecondsToDuration(5.0));
  EXPECT_EQ(engine_->active_nodes(), 1);
  EXPECT_EQ(controller.scale_outs(), 0);
  // Heavy load: 250 txn/s overloads one node (cap_hat 125).
  OfferLoad(250.0, 15.0, 5.0);
  sim_.RunUntil(SecondsToDuration(20.0));
  EXPECT_GT(controller.scale_outs(), 0);
  EXPECT_GE(engine_->active_nodes(), 3);
}

TEST_F(ReactiveControllerTest, ScalesInAfterSustainedLowLoad) {
  Build(4);
  ReactiveController controller(engine_.get(), migrator_.get(), Config());
  controller.Start();
  OfferLoad(60.0, 40.0);  // fits comfortably on 1 node
  sim_.RunUntil(SecondsToDuration(40.0));
  EXPECT_GT(controller.scale_ins(), 0);
  EXPECT_LT(engine_->active_nodes(), 4);
}

TEST_F(ReactiveControllerTest, ScaleInRespectsReplicationFloor) {
  // With k=1 replication the cluster must never shrink below k+1 = 2
  // nodes: dropping to 1 would strand every bucket at degraded k with
  // no node left to rebuild onto.
  EngineConfig config =
      testing_util::WithReplication(testing_util::SmallEngineConfig());
  config.initial_nodes = 4;
  engine_ = std::make_unique<ClusterEngine>(&sim_, db_.catalog, db_.registry,
                                            config);
  EXPECT_EQ(engine_->min_active_nodes(), 2);
  MigrationOptions migration;
  migration.chunk_kb = 200;
  migration.rate_kbps = 5000;
  migration.wire_kbps = 50000;
  migration.db_size_mb = 10;
  migrator_ = std::make_unique<MigrationExecutor>(engine_.get(), migration);
  ReactiveController controller(engine_.get(), migrator_.get(), Config());
  controller.Start();
  OfferLoad(20.0, 60.0);  // would fit on one node if not for the floor
  sim_.RunUntil(SecondsToDuration(90.0));
  EXPECT_GT(controller.scale_ins(), 0);
  EXPECT_EQ(engine_->active_nodes(), 2);
  EXPECT_EQ(engine_->replication()->degraded_buckets(), 0);
}

TEST_F(ReactiveControllerTest, ScaleInWaitsForHoldPeriod) {
  Build(2);
  ReactiveConfig config = Config();
  config.scale_in_hold = 30 * kSecond;
  ReactiveController controller(engine_.get(), migrator_.get(), config);
  controller.Start();
  OfferLoad(30.0, 10.0);
  sim_.RunUntil(SecondsToDuration(10.0));
  EXPECT_EQ(engine_->active_nodes(), 2);  // hold not yet elapsed
}

TEST_F(ReactiveControllerTest, StopHaltsDecisions) {
  Build(1);
  ReactiveController controller(engine_.get(), migrator_.get(), Config());
  controller.Start();
  controller.Stop();
  OfferLoad(400.0, 5.0);
  sim_.RunUntil(SecondsToDuration(6.0));
  EXPECT_EQ(controller.scale_outs(), 0);
  EXPECT_EQ(engine_->active_nodes(), 1);
}

TEST_F(ReactiveControllerTest, OpenBreakerTriggersScaleOut) {
  // 50 txn/s fits one node (as in ScalesOutOnlyAfterOverload), but a
  // tripped breaker is overload evidence the admitted rate cannot show.
  // With overload control on, the controller reads it from the engine.
  Build(1, testing_util::StickyBreakerOverload());
  ReactiveController controller(engine_.get(), migrator_.get(), Config());
  testing_util::TripBreaker(engine_.get());
  controller.Start();
  OfferLoad(50.0, 5.0);
  sim_.RunUntil(SecondsToDuration(5.0));
  EXPECT_GE(controller.scale_outs(), 1);
  EXPECT_GT(engine_->active_nodes(), 1);
}

// --- Fault-handling regressions --------------------------------------

TEST_F(ReactiveControllerTest, CrashedNodeCapacityLossTriggersScaleOut) {
  Build(2);
  ReactiveController controller(engine_.get(), migrator_.get(), Config());
  controller.Start();
  // 150 txn/s fits two live nodes (cap_hat 250, watermark 225): steady
  // state, no trigger.
  OfferLoad(150.0, 25.0);
  sim_.RunUntil(SecondsToDuration(10.0));
  EXPECT_EQ(controller.scale_outs(), 0);
  EXPECT_EQ(engine_->active_nodes(), 2);

  // Killing a node halves serving capacity at unchanged offered load:
  // 150 txn/s now exceeds 0.9 x 125, so the controller must scale out
  // even though the allocation count never dropped.
  ASSERT_TRUE(engine_->CrashNode(1).ok());
  sim_.RunUntil(SecondsToDuration(20.0));
  EXPECT_GE(controller.scale_outs(), 1);
  EXPECT_GT(engine_->active_nodes(), 2);
}

TEST_F(ReactiveControllerTest, CrashResetsScaleInHoldTimer) {
  Build(3);
  ReactiveConfig config = Config();
  config.scale_in_hold = 8 * kSecond;
  ReactiveController controller(engine_.get(), migrator_.get(), config);
  controller.Start();
  OfferLoad(30.0, 30.0);  // low: scale-in would fire at ~9-10 s
  sim_.Schedule(5 * kSecond,
                [this]() { ASSERT_TRUE(engine_->CrashNode(2).ok()); });
  sim_.RunUntil(SecondsToDuration(12.0));
  // The 5 s crash reset the hold timer, so the earliest scale-in is
  // ~14 s; nothing may have fired yet.
  EXPECT_EQ(controller.scale_ins(), 0);
  sim_.RunUntil(SecondsToDuration(30.0));
  EXPECT_GE(controller.scale_ins(), 1);  // re-established low period
}

}  // namespace
}  // namespace pstore
