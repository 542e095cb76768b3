#include "overload/circuit_breaker.h"

namespace pstore {
namespace overload {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

Status BreakerConfig::Validate() const {
  if (shed_threshold <= 0 || shed_threshold >= 1) {
    return Status::InvalidArgument("shed_threshold out of (0, 1)");
  }
  if (min_samples < 1) return Status::InvalidArgument("min_samples < 1");
  if (cooldown <= 0) return Status::InvalidArgument("cooldown <= 0");
  return Status::OK();
}

void CircuitBreaker::TransitionTo(BreakerState next, SimTime at) {
  if (next == state_) return;
  const BreakerState from = state_;
  state_ = next;
  if (next == BreakerState::kOpen) ++trips_;
  if (on_state_change_) on_state_change_(at, from, next);
}

void CircuitBreaker::Advance(SimTime now) {
  // Apply, in order, every transition whose logical time has passed:
  // cooldown expiries (Open -> HalfOpen) and window evaluations
  // (Closed/HalfOpen -> Open or HalfOpen -> Closed).
  while (true) {
    if (state_ == BreakerState::kOpen) {
      if (now < open_until_) return;
      TransitionTo(BreakerState::kHalfOpen, open_until_);
      window_start_ = open_until_;
      window_admitted_ = 0;
      window_shed_ = 0;
      continue;
    }
    if (now - window_start_ < kBreakerWindow) return;
    const SimTime window_end = window_start_ + kBreakerWindow;
    const int64_t total = window_admitted_ + window_shed_;
    const bool overloaded =
        total >= config_.min_samples &&
        static_cast<double>(window_shed_) >
            config_.shed_threshold * static_cast<double>(total);
    if (overloaded) {
      TransitionTo(BreakerState::kOpen, window_end);
      open_until_ = window_end + config_.cooldown;
    } else if (state_ == BreakerState::kHalfOpen && total > 0) {
      // A probe window with healthy traffic: recover. Empty windows keep
      // probing — closing on no evidence would mask a still-saturated
      // node whose clients have all backed off.
      TransitionTo(BreakerState::kClosed, window_end);
    }
    window_start_ = window_end;
    window_admitted_ = 0;
    window_shed_ = 0;
  }
}

void CircuitBreaker::RecordAdmitted(SimTime now) {
  Advance(now);
  ++window_admitted_;
}

void CircuitBreaker::RecordShed(SimTime now) {
  Advance(now);
  ++window_shed_;
}

BreakerState CircuitBreaker::state(SimTime now) {
  Advance(now);
  return state_;
}

}  // namespace overload
}  // namespace pstore
