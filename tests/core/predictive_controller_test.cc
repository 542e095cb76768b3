#include "core/predictive_controller.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "fault/fault_injector.h"
#include "prediction/spar.h"
#include "workload/b2w_client.h"

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;

/// A scripted predictor anchored to absolute control slots: forecasting
/// from measured slot t returns script[t+1..t+horizon]. This makes the
/// scripted "future" actually arrive as ticks pass (a fixed
/// relative-future would recede forever and the receding-horizon
/// controller would rightly keep waiting).
class ScriptedPredictor : public LoadPredictor {
 public:
  explicit ScriptedPredictor(std::vector<double> script)
      : script_(std::move(script)) {}
  std::string name() const override { return "Scripted"; }
  Status Fit(const std::vector<double>&, int32_t) override {
    return Status::OK();
  }
  int64_t MinHistory() const override { return 0; }
  Result<std::vector<double>> Forecast(const std::vector<double>&, int64_t t,
                                       int32_t horizon) const override {
    std::vector<double> out;
    for (int32_t h = 1; h <= horizon; ++h) {
      const int64_t idx = t + h;
      out.push_back(idx < static_cast<int64_t>(script_.size())
                        ? script_[static_cast<size_t>(idx)]
                        : script_.back());
    }
    return out;
  }

 private:
  std::vector<double> script_;
};

class PredictiveControllerTest : public ::testing::Test {
 protected:
  PredictiveControllerTest() : db_(MakeKvDatabase()) {}

  void Build(int32_t initial_nodes,
             overload::OverloadConfig overload = {}) {
    EngineConfig config = testing_util::SmallEngineConfig();
    config.initial_nodes = initial_nodes;
    config.max_nodes = 8;
    config.overload = overload;
    engine_ = std::make_unique<ClusterEngine>(&sim_, db_.catalog,
                                              db_.registry, config);
    MigrationOptions migration;
    migration.chunk_kb = 200;
    migration.rate_kbps = 2000;
    migration.wire_kbps = 50000;
    migration.db_size_mb = 12;
    migrator_ = std::make_unique<MigrationExecutor>(engine_.get(), migration);
  }

  ControllerConfig Config() {
    ControllerConfig config;
    config.move_model.q = 100.0;              // txn/s per node
    config.move_model.partitions_per_node = 2;
    // D: 12 MB at 2000 kB/s = ~6.1 s -> ~0.102 "minutes"; use 0.12 with
    // buffer. Interval: 2 s of virtual time.
    config.move_model.d_minutes = 0.12;
    config.move_model.interval_minutes = 2.0 / 60.0;
    config.q_hat = 125.0;
    config.horizon_intervals = 10;
    config.prediction_inflation = 0.0;
    config.scale_in_confirmations = 3;
    return config;
  }

  /// Offers `rate` txn/s of Put load for `seconds`.
  void OfferLoad(double rate, double seconds) {
    const int64_t n = static_cast<int64_t>(rate * seconds);
    const SimTime start = sim_.Now();
    for (int64_t i = 0; i < n; ++i) {
      TxnRequest put;
      put.proc = db_.put;
      put.key = (i * 2654435761LL) % 100000;
      put.args = {Value(int64_t{1})};
      sim_.ScheduleAt(
          start + static_cast<SimTime>(i * seconds / n * kSecond),
          [this, put]() { engine_->Submit(put); });
    }
  }

  Simulator sim_;
  testing_util::KvDatabase db_;
  std::unique_ptr<ClusterEngine> engine_;
  std::unique_ptr<MigrationExecutor> migrator_;
};

TEST_F(PredictiveControllerTest, ConfigValidation) {
  ControllerConfig c = Config();
  EXPECT_TRUE(c.Validate().ok());
  c.q_hat = 10;  // below q
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.horizon_intervals = 1;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.scale_in_confirmations = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = Config();
  c.infeasible_rate_multiplier = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST_F(PredictiveControllerTest, ScalesOutAheadOfPredictedRise) {
  Build(1);
  // Predictor (absolute script, one entry per 2-second control slot)
  // forecasts a rise to 250 txn/s (needs 3 nodes) at slot 6; current
  // load is light.
  std::vector<double> script(30, 250.0);
  for (size_t s = 0; s < 6; ++s) script[s] = 80.0;
  ScriptedPredictor predictor(std::move(script));
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  Config());
  controller.Start();
  OfferLoad(60.0, 20.0);
  sim_.RunUntil(SecondsToDuration(20.0));
  // The controller should have scaled out proactively.
  EXPECT_GE(engine_->active_nodes(), 3);
  EXPECT_GE(controller.moves_started(), 1);
  EXPECT_EQ(controller.infeasible_cycles(), 0);
}

TEST_F(PredictiveControllerTest, HoldsWhenForecastFlat) {
  Build(2);
  ScriptedPredictor predictor(std::vector<double>(10, 90.0));
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  Config());
  controller.Start();
  OfferLoad(90.0, 20.0);
  sim_.RunUntil(SecondsToDuration(20.0));
  // 90 txn/s fits one node, but scale-in to 1 is the expected endpoint;
  // what must NOT happen is a scale-out.
  EXPECT_LE(engine_->active_nodes(), 2);
}

TEST_F(PredictiveControllerTest, ScaleInRequiresConfirmationCycles) {
  Build(4);
  ScriptedPredictor predictor(std::vector<double>(10, 50.0));
  ControllerConfig config = Config();
  config.scale_in_confirmations = 3;
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  config);
  controller.Start();
  OfferLoad(50.0, 30.0);
  // After 2 intervals (4 s), no scale-in may have fired yet.
  sim_.RunUntil(SecondsToDuration(5.0));
  EXPECT_EQ(engine_->active_nodes(), 4);
  // Eventually it scales in.
  sim_.RunUntil(SecondsToDuration(30.0));
  EXPECT_LT(engine_->active_nodes(), 4);
}

TEST_F(PredictiveControllerTest, InfeasibleForecastTriggersFallback) {
  Build(1);
  // A 6-node spike predicted at the very next interval: no feasible
  // plan exists from 1 node, so the reactive fallback fires.
  ScriptedPredictor predictor(std::vector<double>(10, 550.0));
  ControllerConfig config = Config();
  config.infeasible_rate_multiplier = 8.0;
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  config);
  controller.Start();
  OfferLoad(80.0, 20.0);
  sim_.RunUntil(SecondsToDuration(20.0));
  EXPECT_GT(controller.infeasible_cycles(), 0);
  EXPECT_GE(engine_->active_nodes(), 6);
}

TEST_F(PredictiveControllerTest, MeasuresLoadSeries) {
  Build(2);
  ScriptedPredictor predictor(std::vector<double>(10, 90.0));
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  Config());
  controller.SeedHistory({10.0, 20.0});
  controller.Start();
  OfferLoad(100.0, 10.0);
  sim_.RunUntil(SecondsToDuration(10.0));
  const auto& series = controller.load_series();
  ASSERT_GT(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 10.0);
  // Measured entries should be near the offered 100 txn/s.
  EXPECT_NEAR(series[3], 100.0, 25.0);
}

TEST_F(PredictiveControllerTest, SafetyNetCatchesUnpredictedOverload) {
  Build(1);
  // The predictor insists everything is calm, but the actual offered
  // load is far beyond one node: the composite strategy's reactive leg
  // must fire (measured overload), not the infeasible-plan path.
  ScriptedPredictor predictor(std::vector<double>(40, 80.0));
  ControllerConfig config = Config();
  config.enable_reactive_safety_net = true;
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  config);
  controller.Start();
  OfferLoad(300.0, 20.0);  // >> q_hat = 125
  sim_.RunUntil(SecondsToDuration(20.0));
  EXPECT_GT(controller.safety_net_activations(), 0);
  EXPECT_GE(engine_->active_nodes(), 3);
}

TEST_F(PredictiveControllerTest, SafetyNetCanBeDisabled) {
  Build(1);
  ScriptedPredictor predictor(std::vector<double>(40, 80.0));
  ControllerConfig config = Config();
  config.enable_reactive_safety_net = false;
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  config);
  controller.Start();
  OfferLoad(300.0, 10.0);
  sim_.RunUntil(SecondsToDuration(10.0));
  // With the net disabled the fast path never fires; recovery still
  // happens (slower) because the measured rate makes L[0] exceed
  // cap(1), driving the planner's infeasible fallback instead.
  EXPECT_EQ(controller.safety_net_activations(), 0);
  EXPECT_GT(controller.infeasible_cycles(), 0);
}

TEST_F(PredictiveControllerTest, OnlineRefitRuns) {
  Build(2);
  // A real SPAR predictor being refit from measured data. Short period
  // so MinHistory is reachable within the test.
  SparConfig spar_config;
  spar_config.period = 10;
  spar_config.num_periods = 2;
  spar_config.num_recent = 3;
  SparPredictor spar(spar_config);
  ControllerConfig config = Config();
  config.horizon_intervals = 4;
  config.refit_interval = 30;
  PredictiveController controller(engine_.get(), migrator_.get(), &spar,
                                  config);
  controller.Start();
  OfferLoad(90.0, 140.0);
  sim_.RunUntil(SecondsToDuration(140.0));
  // 140 s / 2 s interval = 70 ticks -> refit attempts at ticks 30 and
  // 60; the first lacks history (SPAR needs n*period + m + tau slots),
  // the second succeeds.
  EXPECT_GE(controller.refits(), 1);
}

TEST_F(PredictiveControllerTest, StopPreventsFurtherMoves) {
  Build(2);
  ScriptedPredictor predictor(std::vector<double>(10, 700.0));
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  Config());
  controller.Start();
  controller.Stop();
  OfferLoad(50.0, 10.0);
  sim_.RunUntil(SecondsToDuration(10.0));
  EXPECT_EQ(controller.moves_started(), 0);
  EXPECT_EQ(engine_->active_nodes(), 2);
}

// --- Fault-handling regressions --------------------------------------

TEST_F(PredictiveControllerTest, MisforecastTripsSafetyNet) {
  Build(1);
  // The underlying predictor is perfectly accurate (flat 300 txn/s), but
  // an injected misforecast window scales its output to 75 txn/s: the
  // plan holds at 1 node while the real load is far beyond it, so the
  // reactive safety net must catch the overload.
  FaultInjector injector(engine_.get(), migrator_.get(), /*seed=*/3);
  FaultPlan plan;
  FaultEvent mis;
  mis.at = 0;
  mis.type = FaultType::kMisforecast;
  mis.duration = 60 * kSecond;
  mis.forecast_scale = 0.25;
  plan.events = {mis};
  ASSERT_TRUE(injector.Arm(plan).ok());

  ScriptedPredictor accurate(std::vector<double>(40, 300.0));
  MisforecastPredictor predictor(&accurate, &injector);
  ControllerConfig config = Config();
  config.enable_reactive_safety_net = true;
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  config);
  controller.Start();
  OfferLoad(300.0, 20.0);
  sim_.RunUntil(SecondsToDuration(20.0));

  EXPECT_GT(controller.safety_net_activations(), 0);
  EXPECT_GE(engine_->active_nodes(), 3);
}

TEST_F(PredictiveControllerTest, OpenBreakerTripsSafetyNet) {
  // 50 txn/s fits one node, but a tripped breaker says the offered load
  // exceeds what the cluster admits. With overload control on, the
  // controller reads the breaker from the engine: the safety net fires.
  Build(1, testing_util::StickyBreakerOverload());
  ScriptedPredictor predictor(std::vector<double>(40, 50.0));
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  Config());
  testing_util::TripBreaker(engine_.get());
  controller.Start();
  OfferLoad(50.0, 10.0);
  sim_.RunUntil(SecondsToDuration(10.0));
  EXPECT_GT(controller.safety_net_activations(), 0);
  EXPECT_GE(engine_->active_nodes(), 2);
}

TEST_F(PredictiveControllerTest, OpenBreakerDefersPlannedScaleIn) {
  // The calm forecast plans a scale-in from 4 nodes (as in
  // ScaleInRequiresConfirmationCycles), but the cluster is shedding: the
  // planned scale-in waits for as long as the breaker stays open.
  Build(4, testing_util::StickyBreakerOverload());
  ScriptedPredictor predictor(std::vector<double>(10, 50.0));
  ControllerConfig config = Config();
  config.enable_reactive_safety_net = false;  // Only the planned path.
  PredictiveController controller(engine_.get(), migrator_.get(), &predictor,
                                  config);
  obs::EventStream events;
  obs::Telemetry telemetry;
  telemetry.events = &events;
  controller.set_telemetry(telemetry);
  testing_util::TripBreaker(engine_.get());
  controller.Start();
  OfferLoad(50.0, 30.0);
  sim_.RunUntil(SecondsToDuration(30.0));
  EXPECT_EQ(engine_->active_nodes(), 4);
  EXPECT_EQ(controller.moves_started(), 0);
  const auto& lines = events.lines();
  EXPECT_TRUE(std::any_of(lines.begin(), lines.end(), [](const auto& line) {
    return line.find("scale-in deferred: circuit breaker open") !=
           std::string::npos;
  }));
}

TEST_F(PredictiveControllerTest, CrashDuringScaleInConfirmationResetsStreak) {
  // A scale-in needs 3 consecutive confirming cycles (ticks at 2/4/6 s).
  // A crash between the second and third tick must reset the streak: the
  // confirmation was established against a topology that no longer
  // exists. The control run (no crash) is free to scale in on schedule.
  auto run = [&](bool crash, int64_t* moves_by_7s, int32_t* nodes_at_7s) {
    Simulator sim;
    EngineConfig engine_config = testing_util::SmallEngineConfig();
    engine_config.initial_nodes = 4;
    engine_config.max_nodes = 8;
    ClusterEngine engine(&sim, db_.catalog, db_.registry, engine_config);
    MigrationOptions migration;
    migration.chunk_kb = 200;
    migration.rate_kbps = 2000;
    migration.wire_kbps = 50000;
    migration.db_size_mb = 12;
    MigrationExecutor migrator(&engine, migration);
    ScriptedPredictor predictor(std::vector<double>(30, 50.0));
    ControllerConfig config = Config();
    config.scale_in_confirmations = 3;
    PredictiveController controller(&engine, &migrator, &predictor, config);
    controller.Start();
    // 50 txn/s of Put load for 10 s.
    for (int64_t i = 0; i < 500; ++i) {
      TxnRequest put;
      put.proc = db_.put;
      put.key = (i * 2654435761LL) % 100000;
      put.args = {Value(int64_t{1})};
      sim.ScheduleAt(static_cast<SimTime>(i * 20 * kMillisecond),
                     [&engine, put]() { engine.Submit(put); });
    }
    if (crash) {
      sim.Schedule(5 * kSecond,
                   [&engine]() { ASSERT_TRUE(engine.CrashNode(3).ok()); });
    }
    sim.RunUntil(SecondsToDuration(7.0));
    *moves_by_7s = controller.moves_started();
    *nodes_at_7s = engine.active_nodes();
  };

  int64_t moves_control = 0, moves_crash = 0;
  int32_t nodes_control = 0, nodes_crash = 0;
  run(false, &moves_control, &nodes_control);
  run(true, &moves_crash, &nodes_crash);

  // Control: confirmations complete at the 6 s tick and scale-in starts.
  EXPECT_GE(moves_control, 1);
  // Crash at 5 s: the streak resets, so no scale-in may start by 7 s and
  // the allocation is untouched.
  EXPECT_EQ(moves_crash, 0);
  EXPECT_EQ(nodes_crash, 4);
}

}  // namespace
}  // namespace pstore
