#include "planner/receding_horizon.h"

#include <algorithm>
#include <cassert>

namespace pstore {

RecedingHorizonStep::RecedingHorizonStep(MoveModel model, int32_t max_nodes,
                                         double prediction_inflation,
                                         int32_t scale_in_confirmations)
    : planner_(std::move(model), max_nodes),
      inflation_factor_(1.0 + prediction_inflation),
      scale_in_confirmations_(scale_in_confirmations) {
  assert(max_nodes > 0);
}

RecedingHorizonStep::Decision RecedingHorizonStep::Step(
    double current_rate, const std::vector<double>& forecast,
    int32_t current, std::string_view veto) {
  horizon_.clear();
  horizon_.push_back(current_rate);
  for (double v : forecast) {
    horizon_.push_back(std::max(0.0, v * inflation_factor_));
  }
  plan_ = planner_.BestMoves(horizon_, current);
  Decision hold{Action::kHold, current, 0.0, &plan_};

  if (!plan_.feasible) {
    // Reactive fallback (Section 4.3.1): scale straight to the size the
    // predicted peak needs.
    ++infeasible_cycles_;
    scale_in_streak_ = 0;
    const double peak = *std::max_element(horizon_.begin(), horizon_.end());
    const int32_t target = std::max(
        current,
        std::min(planner_.max_nodes(), planner_.NodesForLoad(peak)));
    return Decision{Action::kFallback, target, peak, &plan_};
  }

  const PlannedMove* first = plan_.FirstRealMove();
  if (first == nullptr) {
    scale_in_streak_ = 0;
    return hold;  // the plan is "hold" across the horizon
  }
  if (first->to_nodes < current) {
    if (!veto.empty()) {
      scale_in_streak_ = 0;
      hold.action = Action::kDeferred;
      return hold;
    }
    // Scale-in must be confirmed by consecutive cycles to avoid
    // spurious latency-inducing flapping (Section 6).
    if (++scale_in_streak_ < scale_in_confirmations_) return hold;
    scale_in_streak_ = 0;
  } else {
    scale_in_streak_ = 0;
  }
  // Execute only the first move, and only when its planned start has
  // arrived (the planner delays scale-outs as long as possible;
  // re-planning next cycle keeps the start time honest).
  if (first->start_interval > 0) return hold;
  return Decision{Action::kMove, first->to_nodes, 0.0, &plan_};
}

}  // namespace pstore
