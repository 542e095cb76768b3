#pragma once

#include <cstdint>

#include "guard/guard_config.h"
#include "obs/telemetry.h"

/// \file forecast_monitor.h
/// Deterministic forecast-divergence detection on the virtual clock.
/// Each control window the monitor ingests (observed, predicted) load,
/// tracks the relative residual with an EWMA (catches large sudden
/// misses) and a two-sided CUSUM (catches sustained small bias), and
/// runs a hysteretic kHealthy -> kSuspect -> kDiverged state machine.
/// No randomness, no clock reads: state is a pure function of the
/// observation sequence, so a guard-enabled run replays byte-identical
/// from a seed.

namespace pstore {
namespace guard {

/// Divergence state. kSuspect is the hysteresis buffer: evidence must
/// persist for `diverge_windows` consecutive windows before control is
/// handed to the reactive path, and settle for `rejoin_windows` before
/// prediction gets it back.
enum class GuardState {
  kHealthy,
  kSuspect,
  kDiverged,
};

const char* GuardStateName(GuardState state);

/// \brief EWMA/CUSUM residual tracker with a hysteretic state machine.
class ForecastMonitor {
 public:
  explicit ForecastMonitor(GuardConfig config);

  /// Ingests one control window's (observed, predicted) load pair and
  /// advances the state machine. Returns the state after the update.
  GuardState Observe(double observed, double predicted);

  GuardState state() const { return state_; }

  /// Smoothed absolute relative residual.
  double ewma_abs_residual() const { return ewma_; }
  /// One-sided CUSUM of under-forecast mass (observed above predicted).
  double cusum_high() const { return cusum_high_; }
  /// One-sided CUSUM of over-forecast mass (observed below predicted).
  double cusum_low() const { return cusum_low_; }

  int64_t windows_observed() const { return windows_observed_; }
  /// Transitions into kDiverged.
  int64_t divergences() const { return divergences_; }
  /// Transitions kDiverged -> kHealthy (prediction re-admitted).
  int64_t rejoins() const { return rejoins_; }

  /// Attaches observability sinks ("guard.*" metrics: per-window
  /// residual gauges, CUSUM levels, state, divergence/rejoin counts).
  /// Call before the first Observe(). The caller gates this on
  /// GuardConfig::enabled so disabled runs register nothing.
  void set_telemetry(const obs::Telemetry& telemetry);

  const GuardConfig& config() const { return config_; }

 private:
  /// True while the residual trackers exceed either alarm level.
  bool Alarming() const;

  GuardConfig config_;
  GuardState state_ = GuardState::kHealthy;
  double ewma_ = 0.0;
  double cusum_high_ = 0.0;
  double cusum_low_ = 0.0;
  int32_t suspect_streak_ = 0;
  int32_t settle_streak_ = 0;
  int64_t windows_observed_ = 0;
  int64_t divergences_ = 0;
  int64_t rejoins_ = 0;
  // Gauge handles (null until set_telemetry); the counts above are
  // bound into the registry.
  obs::Gauge* m_state_ = nullptr;
  obs::Gauge* m_residual_ = nullptr;
  obs::Gauge* m_ewma_ = nullptr;
  obs::Gauge* m_cusum_high_ = nullptr;
  obs::Gauge* m_cusum_low_ = nullptr;
};

}  // namespace guard
}  // namespace pstore
