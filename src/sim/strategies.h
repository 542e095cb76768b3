#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "planner/receding_horizon.h"
#include "prediction/predictor.h"
#include "sim/capacity_sim.h"

/// \file strategies.h
/// The allocation strategies compared in Figures 12 and 13:
///
///  - StaticStrategy:   a fixed cluster ("Static").
///  - SimpleStrategy:   scale up every morning, down every night
///                      ("Simple") — works until the pattern breaks.
///  - ReactiveStrategy: E-Store-style thresholds ("Reactive").
///  - PStoreStrategy:   P-Store's predict-plan loop, with either a SPAR
///                      predictor ("P-Store SPAR") or the true future
///                      ("P-Store Oracle"). It averages the observed
///                      minutes into control slots and runs the same
///                      RecedingHorizonStep the engine's
///                      PredictiveController runs.
///
/// Each strategy's cost/capacity trade-off knob (Q, or the reactive
/// buffer) is exposed so benches can sweep it into Figure 12's curves.

namespace pstore {

/// \brief Fixed allocation.
class StaticStrategy : public AllocationStrategy {
 public:
  explicit StaticStrategy(int32_t machines) : machines_(machines) {}
  std::string name() const override {
    return "Static-" + std::to_string(machines_);
  }
  AllocationDecision Decide(const std::vector<double>&, int64_t,
                            int32_t) override {
    return AllocationDecision{machines_, 1.0};
  }

 private:
  int32_t machines_;
};

/// \brief Morning scale-out / night scale-in on a fixed clock.
class SimpleStrategy : public AllocationStrategy {
 public:
  /// \param day_machines cluster size from ramp_up_hour to ramp_down_hour
  /// \param night_machines cluster size overnight
  /// \param ramp_up_hour local hour to begin the morning scale-out
  /// \param ramp_down_hour local hour to begin the night scale-in
  SimpleStrategy(int32_t day_machines, int32_t night_machines,
                 double ramp_up_hour = 6.0, double ramp_down_hour = 23.0)
      : day_(day_machines),
        night_(night_machines),
        up_minute_(static_cast<int64_t>(ramp_up_hour * 60)),
        down_minute_(static_cast<int64_t>(ramp_down_hour * 60)) {}

  std::string name() const override {
    return "Simple-" + std::to_string(night_) + "/" + std::to_string(day_);
  }
  AllocationDecision Decide(const std::vector<double>&, int64_t minute,
                            int32_t) override {
    const int64_t m = minute % 1440;
    const bool daytime = m >= up_minute_ && m < down_minute_;
    return AllocationDecision{daytime ? day_ : night_, 1.0};
  }

 private:
  int32_t day_;
  int32_t night_;
  int64_t up_minute_;
  int64_t down_minute_;
};

/// Reactive strategy parameters (analytic counterpart of
/// ReactiveConfig): out at actual overload, in after 15 minutes below
/// 70% of q on one machine fewer.
struct ReactiveStrategyConfig {
  double q = 350.0;       ///< Sizing basis (reactive sizes at Q-hat).
  double q_hat = 350.0;
  double headroom = 0.0;  ///< No forward-looking buffer.
};

/// \brief Threshold-driven scale-out/in.
class ReactiveStrategy : public AllocationStrategy {
 public:
  explicit ReactiveStrategy(ReactiveStrategyConfig config)
      : config_(config) {}

  std::string name() const override { return "Reactive"; }
  void Reset() override { low_streak_minutes_ = 0; }
  AllocationDecision Decide(const std::vector<double>& load, int64_t minute,
                            int32_t current) override;

 private:
  ReactiveStrategyConfig config_;
  int64_t low_streak_minutes_ = 0;
  int64_t last_decision_minute_ = -1;
};

/// P-Store strategy parameters. An infeasible plan falls back to
/// scaling straight to the peak at rate R.
struct PStoreStrategyConfig {
  MoveModelConfig move_model;  ///< Q, P, D, interval (5 minutes).
  int32_t horizon_intervals = 12;
  double prediction_inflation = 0.15;
  int32_t scale_in_confirmations = 3;
  int32_t max_machines = 40;
};

/// \brief The predict -> plan loop as an analytic strategy.
class PStoreStrategy : public AllocationStrategy {
 public:
  /// \param predictor fitted predictor over control slots (owned)
  /// \param label "P-Store SPAR" / "P-Store Oracle"
  PStoreStrategy(PStoreStrategyConfig config,
                 std::unique_ptr<LoadPredictor> predictor,
                 std::string label);

  std::string name() const override { return label_; }
  void Reset() override;
  AllocationDecision Decide(const std::vector<double>& load, int64_t minute,
                            int32_t current) override;

  int64_t infeasible_cycles() const { return step_.infeasible_cycles(); }

 private:
  PStoreStrategyConfig config_;
  std::unique_ptr<LoadPredictor> predictor_;
  std::string label_;
  RecedingHorizonStep step_;
  std::vector<double> slot_series_;  ///< Aggregated actuals (lazy).
  int64_t slots_filled_ = 0;
};

}  // namespace pstore
