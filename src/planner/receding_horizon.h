#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "planner/dp_planner.h"

/// \file receding_horizon.h
/// One cycle of P-Store's control loop (Sections 4.3.1 and 6), shared
/// by the engine's PredictiveController and the capacity simulator's
/// PStoreStrategy: inflate the forecast, plan the horizon with
/// Algorithm 1, and execute only the plan's first move once its start
/// has arrived. A scale-in waits for consecutive confirming cycles, and
/// a horizon with no feasible plan falls back to a reactive scale-out
/// sized for the predicted peak.

namespace pstore {

/// \brief The receding-horizon step: planner, scale-in streak and
/// infeasible-cycle count.
class RecedingHorizonStep {
 public:
  enum class Action {
    kHold,      ///< Keep the current size.
    kDeferred,  ///< Hold: a planned scale-in met a non-empty veto.
    kMove,      ///< Start the plan's first move now.
    kFallback,  ///< No feasible plan: scale out reactively.
  };

  struct Decision {
    Action action = Action::kHold;
    /// kMove: the first move's to_nodes. kFallback: the inflated peak's
    /// size, clamped to the planner's cap, never below the current
    /// count. Otherwise the current count.
    int32_t target = 0;
    double peak = 0.0;           ///< Inflated horizon's peak (kFallback).
    const Plan* plan = nullptr;  ///< Valid until the next Step().
  };

  /// \param max_nodes the planner's machine cap (> 0)
  /// \param prediction_inflation forecast inflation (0.15 = +15%)
  /// \param scale_in_confirmations consecutive cycles that must plan a
  ///        scale-in before it starts
  RecedingHorizonStep(MoveModel model, int32_t max_nodes,
                      double prediction_inflation,
                      int32_t scale_in_confirmations);

  /// Plans from `current_rate` (interval 0) and the raw per-interval
  /// `forecast`, starting at `current` machines. A non-empty `veto`
  /// names strain that forbids a scale-in now: the scale-in is deferred
  /// and its confirmation restarts.
  Decision Step(double current_rate, const std::vector<double>& forecast,
                int32_t current, std::string_view veto);

  /// Restarts scale-in confirmation (a fault or a reactive action
  /// invalidated the cycles counted so far).
  void ResetScaleInStreak() { scale_in_streak_ = 0; }

  void Reset() {
    scale_in_streak_ = 0;
    infeasible_cycles_ = 0;
  }

  /// Steps that found no feasible plan; a stable reference, so a
  /// metrics registry can bind it.
  const int64_t& infeasible_cycles() const { return infeasible_cycles_; }

  const DpPlanner& planner() const { return planner_; }

 private:
  DpPlanner planner_;
  double inflation_factor_;
  int32_t scale_in_confirmations_;
  std::vector<double> horizon_;  ///< Reused across steps.
  Plan plan_;
  int32_t scale_in_streak_ = 0;
  int64_t infeasible_cycles_ = 0;
};

}  // namespace pstore
