#include "sim/strategies.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "prediction/spar.h"
#include "workload/b2w_trace.h"

namespace pstore {
namespace {

CapacitySimConfig SimConfig() {
  CapacitySimConfig config;
  config.move_model.q = 100.0;
  config.move_model.partitions_per_node = 2;
  config.move_model.d_minutes = 40.0;
  config.move_model.interval_minutes = 5.0;
  config.q_hat = 125.0;
  config.max_machines = 16;
  return config;
}

/// Sine-wave day: trough ~80, peak ~800 txn/s, minute granularity.
std::vector<double> SineLoad(int32_t days) {
  std::vector<double> load(static_cast<size_t>(days) * 1440);
  for (size_t t = 0; t < load.size(); ++t) {
    const double phase = 2 * M_PI * (t % 1440) / 1440.0;
    load[t] = 440.0 - 360.0 * std::cos(phase);
  }
  return load;
}

/// Oracle over the true minute trace, aggregated to 5-minute slots.
class SlotOracle : public LoadPredictor {
 public:
  SlotOracle(const std::vector<double>& minute_load, int32_t slot_minutes)
      : slot_minutes_(slot_minutes) {
    for (size_t i = 0; i + slot_minutes <= minute_load.size();
         i += slot_minutes) {
      double acc = 0;
      for (int32_t j = 0; j < slot_minutes; ++j) acc += minute_load[i + j];
      slots_.push_back(acc / slot_minutes);
    }
  }
  std::string name() const override { return "SlotOracle"; }
  Status Fit(const std::vector<double>&, int32_t) override {
    return Status::OK();
  }
  int64_t MinHistory() const override { return 0; }
  Result<std::vector<double>> Forecast(const std::vector<double>&, int64_t t,
                                       int32_t horizon) const override {
    std::vector<double> out;
    for (int32_t h = 1; h <= horizon; ++h) {
      const int64_t idx = t + h;
      out.push_back(idx < static_cast<int64_t>(slots_.size())
                        ? slots_[static_cast<size_t>(idx)]
                        : slots_.back());
    }
    return out;
  }

 private:
  int32_t slot_minutes_;
  std::vector<double> slots_;
};

PStoreStrategyConfig PStoreConfig() {
  PStoreStrategyConfig config;
  config.move_model = SimConfig().move_model;
  config.horizon_intervals = 12;
  config.prediction_inflation = 0.10;
  config.max_machines = 16;
  return config;
}

TEST(StaticStrategyTest, AlwaysSameTarget) {
  StaticStrategy strategy(7);
  EXPECT_EQ(strategy.Decide({}, 0, 3).target_machines, 7);
  EXPECT_EQ(strategy.Decide({}, 999, 7).target_machines, 7);
  EXPECT_EQ(strategy.name(), "Static-7");
}

TEST(SimpleStrategyTest, TogglesByTimeOfDay) {
  SimpleStrategy strategy(8, 2, 6.0, 23.0);
  // 03:00 -> night, 12:00 -> day, 23:30 -> night.
  EXPECT_EQ(strategy.Decide({}, 180, 2).target_machines, 2);
  EXPECT_EQ(strategy.Decide({}, 720, 2).target_machines, 8);
  EXPECT_EQ(strategy.Decide({}, 1410, 8).target_machines, 2);
  // Second day, same hours.
  EXPECT_EQ(strategy.Decide({}, 1440 + 720, 2).target_machines, 8);
}

TEST(ReactiveStrategyTest, ScaleOutOnOverload) {
  ReactiveStrategyConfig config;
  config.q = 100;
  config.q_hat = 125;
  ReactiveStrategy strategy(config);
  strategy.Reset();
  std::vector<double> load(100, 300.0);
  // One machine, load 300 > cap_hat(1): must scale out to fit the
  // observed load (sized at q with no headroom under the late-reacting
  // defaults).
  const auto decision = strategy.Decide(load, 50, 1);
  EXPECT_GE(decision.target_machines, 3);  // ceil(300/100)
}

TEST(ReactiveStrategyTest, ScaleInNeedsSustainedLow) {
  ReactiveStrategyConfig config;
  config.q = 100;
  config.q_hat = 125;
  ReactiveStrategy strategy(config);
  strategy.Reset();
  std::vector<double> load(200, 50.0);
  // First decision at minute 5 starts the low streak; the hold elapses
  // 15 observed-low minutes later, at the minute-20 decision.
  EXPECT_EQ(strategy.Decide(load, 5, 3).target_machines, 3);
  EXPECT_EQ(strategy.Decide(load, 10, 3).target_machines, 3);
  EXPECT_EQ(strategy.Decide(load, 15, 3).target_machines, 3);
  EXPECT_LT(strategy.Decide(load, 20, 3).target_machines, 3);
}

TEST(ReactiveStrategyTest, HoldInNormalBand) {
  ReactiveStrategyConfig config;
  ReactiveStrategy strategy(config);
  strategy.Reset();
  std::vector<double> load(100, 200.0);  // 2 machines: fine band
  EXPECT_EQ(strategy.Decide(load, 10, 3).target_machines, 3);
}

TEST(PStoreStrategyTest, OracleTracksSineWithLowInsufficiency) {
  const auto load = SineLoad(3);
  CapacitySimConfig sim_config = SimConfig();
  CapacitySimulator sim(sim_config);

  PStoreStrategy pstore(PStoreConfig(),
                        std::make_unique<SlotOracle>(load, 5),
                        "P-Store Oracle");
  auto result = sim.Run(load, &pstore, 0, 3 * 1440);
  ASSERT_TRUE(result.ok());
  // Should track the wave: very little insufficiency, cost well below
  // static peak provisioning (9 machines for 2160 * 3 minutes).
  EXPECT_LT(result->pct_time_insufficient, 1.0);
  const double static_cost = 9.0 * 3 * 1440;
  EXPECT_LT(result->total_machine_minutes, 0.8 * static_cost);
  EXPECT_GT(result->moves_started, 4);
}

TEST(PStoreStrategyTest, SparTracksSyntheticB2w) {
  // End-to-end: SPAR fit on 2 weeks of the synthetic B2W trace
  // (5-minute slots), then P-Store plans over the following 3 days.
  B2wTraceConfig trace_config = B2wRegularTraffic(20, 21);
  auto trace = GenerateB2wTrace(trace_config);
  ASSERT_TRUE(trace.ok());
  // Scale to ~800 txn/s peak.
  double peak = 0;
  for (double v : *trace) peak = std::max(peak, v);
  std::vector<double> load(trace->size());
  for (size_t i = 0; i < load.size(); ++i) {
    load[i] = (*trace)[i] / peak * 800.0;
  }

  SparConfig spar;
  spar.period = 288;  // 5-minute slots per day
  spar.num_periods = 7;
  spar.num_recent = 6;
  auto predictor = std::make_unique<SparPredictor>(spar);
  std::vector<double> train_slots;
  for (size_t i = 0; i + 5 <= 14u * 1440; i += 5) {
    double acc = 0;
    for (size_t j = 0; j < 5; ++j) acc += load[i + j];
    train_slots.push_back(acc / 5);
  }
  ASSERT_TRUE(predictor->Fit(train_slots, 12).ok());

  PStoreStrategy pstore(PStoreConfig(), std::move(predictor),
                        "P-Store SPAR");
  CapacitySimulator sim(SimConfig());
  auto result = sim.Run(load, &pstore, 14 * 1440, 17 * 1440);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->pct_time_insufficient, 3.0);
  EXPECT_GT(result->moves_started, 3);
  const double static_cost = 9.0 * 3 * 1440;
  EXPECT_LT(result->total_machine_minutes, static_cost);
}

TEST(PStoreStrategyTest, InfeasibleSpikeTriggersFallback) {
  // Flat low load, then a cliff that no feasible plan can cover.
  std::vector<double> load(1440, 80.0);
  for (size_t t = 700; t < 1440; ++t) load[t] = 1200.0;
  // Blind predictor: always forecasts the current value (so the spike
  // is never anticipated).
  class Blind : public LoadPredictor {
   public:
    std::string name() const override { return "Blind"; }
    Status Fit(const std::vector<double>&, int32_t) override {
      return Status::OK();
    }
    int64_t MinHistory() const override { return 0; }
    Result<std::vector<double>> Forecast(const std::vector<double>& s,
                                         int64_t t,
                                         int32_t horizon) const override {
      return std::vector<double>(static_cast<size_t>(horizon),
                                 s[static_cast<size_t>(t)]);
    }
  };
  PStoreStrategy pstore(PStoreConfig(), std::make_unique<Blind>(),
                        "P-Store Blind");
  CapacitySimConfig sim_config = SimConfig();
  sim_config.record_series = true;
  CapacitySimulator sim(sim_config);
  auto result = sim.Run(load, &pstore, 0, 1440);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(pstore.infeasible_cycles(), 0);
  // The fallback sizes for the peak: 12 machines at q = 100.
  EXPECT_GE(result->machines.back(), 12.0);
  EXPECT_LT(result->pct_time_insufficient, 10.0);
}

TEST(PStoreStrategyTest, ScaleInConfirmationDelaysShrink) {
  std::vector<double> load(1440, 80.0);
  load[0] = 600.0;  // forces a large initial allocation
  PStoreStrategyConfig config = PStoreConfig();
  config.scale_in_confirmations = 3;
  PStoreStrategy pstore(config,
                        std::make_unique<SlotOracle>(load, 5),
                        "P-Store Oracle");
  // First few decisions must hold the size even though load is low.
  pstore.Reset();
  EXPECT_EQ(pstore.Decide(load, 5, 6).target_machines, 6);
  EXPECT_EQ(pstore.Decide(load, 10, 6).target_machines, 6);
  EXPECT_LT(pstore.Decide(load, 15, 6).target_machines, 6);
}

}  // namespace
}  // namespace pstore
