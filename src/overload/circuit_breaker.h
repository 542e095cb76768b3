#pragma once

#include <cstdint>
#include <functional>

#include "common/sim_time.h"
#include "common/status.h"

/// \file circuit_breaker.h
/// Per-node circuit breaker for overload control. The breaker watches
/// the shed rate of one node over tumbling virtual-time windows and
/// trips (Closed -> Open) when shedding stays above a threshold — the
/// signal that the node is past its effective capacity and that
/// admitting more work only wastes queueing. While Open, non-critical
/// admissions are rejected up front; after a cooldown the breaker
/// half-opens and probes one window of real traffic before closing.
///
/// Everything is driven by the simulator's virtual clock, handed in as
/// `now` by the caller; no wall-clock or hidden randomness, so breaker
/// behaviour replays byte-identically from a seed.

namespace pstore {
namespace overload {

/// Breaker lifecycle. Closed admits; Open rejects non-critical work;
/// HalfOpen admits (probing) and re-opens if shedding persists.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

/// Tumbling evaluation window of every breaker.
inline constexpr SimDuration kBreakerWindow = kSecond;

/// Breaker tuning knobs.
struct BreakerConfig {
  /// Trip when shed / (admitted + shed) exceeds this within a window.
  double shed_threshold = 0.5;
  /// Windows with fewer samples than this never trip (startup noise).
  int64_t min_samples = 20;
  /// Time spent Open before probing again (HalfOpen).
  SimDuration cooldown = 5 * kSecond;

  Status Validate() const;
};

/// \brief Windowed shed-rate state machine for one node.
class CircuitBreaker {
 public:
  /// Observer for state transitions: (virtual time, from, to). The time
  /// is the *logical* transition time (window boundary or cooldown
  /// expiry), which may precede the call that observed it.
  using StateChangeFn =
      std::function<void(SimTime at, BreakerState from, BreakerState to)>;

  explicit CircuitBreaker(const BreakerConfig& config) : config_(config) {}

  /// Feed one admitted request at `now` into the current window.
  void RecordAdmitted(SimTime now);

  /// Feed one shed/rejected request at `now` into the current window.
  void RecordShed(SimTime now);

  /// Current state after applying every window boundary and cooldown
  /// expiry up to `now`. Lazy evaluation keeps the breaker off the hot
  /// path when idle; transitions are a pure function of the recorded
  /// history, so any caller order yields the same states.
  BreakerState state(SimTime now);

  bool IsOpen(SimTime now) { return state(now) == BreakerState::kOpen; }

  /// Closed/HalfOpen -> Open transitions so far.
  int64_t trips() const { return trips_; }

  void set_on_state_change(StateChangeFn fn) {
    on_state_change_ = std::move(fn);
  }

  const BreakerConfig& config() const { return config_; }

 private:
  void Advance(SimTime now);
  void TransitionTo(BreakerState next, SimTime at);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  SimTime window_start_ = 0;
  int64_t window_admitted_ = 0;
  int64_t window_shed_ = 0;
  SimTime open_until_ = 0;
  int64_t trips_ = 0;
  StateChangeFn on_state_change_;
};

}  // namespace overload
}  // namespace pstore
