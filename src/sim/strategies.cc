#include "sim/strategies.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pstore {

namespace {
/// Reactive scale-in: load below this share of q on one machine fewer,
/// held for kScaleInHoldMinutes.
constexpr double kLowWatermark = 0.70;
constexpr int64_t kScaleInHoldMinutes = 15;
}  // namespace

AllocationDecision ReactiveStrategy::Decide(const std::vector<double>& load,
                                            int64_t minute, int32_t current) {
  // Use the most recent completed minute as the load signal.
  const double rate =
      minute > 0 ? load[static_cast<size_t>(minute - 1)] : load[0];
  const int64_t since_last =
      last_decision_minute_ < 0 ? 1 : minute - last_decision_minute_;
  last_decision_minute_ = minute;

  auto size_for = [&](double demand) {
    return std::max<int32_t>(
        1, static_cast<int32_t>(
               std::ceil(demand * (1.0 + config_.headroom) / config_.q)));
  };

  if (rate > config_.q_hat * current) {
    low_streak_minutes_ = 0;
    return AllocationDecision{std::max(current + 1, size_for(rate)), 1.0};
  }
  if (current > 1 &&
      rate < kLowWatermark * config_.q * (current - 1)) {
    low_streak_minutes_ += since_last;
    if (low_streak_minutes_ >= kScaleInHoldMinutes) {
      low_streak_minutes_ = 0;
      return AllocationDecision{std::min(current - 1, size_for(rate)), 1.0};
    }
  } else {
    low_streak_minutes_ = 0;
  }
  return AllocationDecision{current, 1.0};
}

PStoreStrategy::PStoreStrategy(PStoreStrategyConfig config,
                               std::unique_ptr<LoadPredictor> predictor,
                               std::string label)
    : config_(config),
      predictor_(std::move(predictor)),
      label_(std::move(label)),
      planner_(MoveModel(config.move_model), config.max_machines) {
  assert(predictor_ != nullptr);
}

void PStoreStrategy::Reset() {
  slot_series_.clear();
  slots_filled_ = 0;
  scale_in_streak_ = 0;
  infeasible_cycles_ = 0;
}

AllocationDecision PStoreStrategy::Decide(const std::vector<double>& load,
                                          int64_t minute, int32_t current) {
  const int32_t slot_minutes =
      static_cast<int32_t>(config_.move_model.interval_minutes);
  // Maintain the control-slot series of *observed* load: slot s covers
  // minutes [s*slot, (s+1)*slot). Only fully elapsed slots are usable.
  const int64_t complete_slots = minute / slot_minutes;
  while (slots_filled_ < complete_slots) {
    double acc = 0;
    for (int32_t j = 0; j < slot_minutes; ++j) {
      acc += load[static_cast<size_t>(slots_filled_ * slot_minutes + j)];
    }
    slot_series_.push_back(acc / slot_minutes);
    ++slots_filled_;
  }
  const int64_t t = slots_filled_ - 1;
  if (t < predictor_->MinHistory()) {
    return AllocationDecision{current, 1.0};
  }

  auto forecast =
      predictor_->Forecast(slot_series_, t, config_.horizon_intervals);
  if (!forecast.ok()) return AllocationDecision{current, 1.0};

  std::vector<double> horizon;
  horizon.reserve(static_cast<size_t>(config_.horizon_intervals) + 1);
  const double now_rate =
      minute > 0 ? load[static_cast<size_t>(minute - 1)]
                 : load[static_cast<size_t>(minute)];
  horizon.push_back(now_rate);
  for (double v : *forecast) {
    horizon.push_back(
        std::max(0.0, v * (1.0 + config_.prediction_inflation)));
  }

  const Plan plan = planner_.BestMoves(horizon, current);
  if (!plan.feasible) {
    // Reactive fallback (Section 4.3.1): scale straight to the needed
    // size, migrating at rate R.
    ++infeasible_cycles_;
    scale_in_streak_ = 0;
    const double peak = *std::max_element(horizon.begin(), horizon.end());
    const int32_t target =
        std::min(config_.max_machines, planner_.NodesForLoad(peak));
    return AllocationDecision{std::max(current, target), 1.0};
  }

  const PlannedMove* first = plan.FirstRealMove();
  if (first == nullptr) {
    scale_in_streak_ = 0;
    return AllocationDecision{current, 1.0};
  }
  if (first->to_nodes < current) {
    ++scale_in_streak_;
    if (scale_in_streak_ < config_.scale_in_confirmations) {
      return AllocationDecision{current, 1.0};
    }
    scale_in_streak_ = 0;
  } else {
    scale_in_streak_ = 0;
  }
  if (first->start_interval > 0) {
    return AllocationDecision{current, 1.0};  // not time yet
  }
  return AllocationDecision{first->to_nodes, 1.0};
}

}  // namespace pstore
