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
      step_(MoveModel(config.move_model), config.max_machines,
            config.prediction_inflation, config.scale_in_confirmations) {
  assert(predictor_ != nullptr);
}

void PStoreStrategy::Reset() {
  slot_series_.clear();
  slots_filled_ = 0;
  step_.Reset();
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

  const double now_rate =
      minute > 0 ? load[static_cast<size_t>(minute - 1)]
                 : load[static_cast<size_t>(minute)];
  return AllocationDecision{
      step_.Step(now_rate, *forecast, current, {}).target, 1.0};
}

}  // namespace pstore
