#pragma once

#include <cstdint>

#include "obs/telemetry.h"

/// \file forecast_monitor.h
/// Deterministic forecast-divergence detection on the virtual clock
/// (DESIGN.md §16). Each control window the monitor ingests (observed,
/// predicted) load, tracks the relative residual with an EWMA (catches
/// large sudden misses) and a two-sided CUSUM (catches sustained small
/// bias), and runs a hysteretic kHealthy -> kSuspect -> kDiverged state
/// machine. No randomness, no clock reads: state is a pure function of
/// the observation sequence, so a guard-enabled run replays
/// byte-identical from a seed.

namespace pstore {
namespace guard {

/// EWMA smoothing factor for the absolute relative residual
/// |observed - predicted| / max(predicted, kMinRate).
constexpr double kEwmaAlpha = 0.3;

/// CUSUM reference value k (allowed per-window drift, in relative
/// residual units): residual mass below k is slack, mass above it
/// accumulates toward the decision threshold.
constexpr double kCusumK = 0.25;

/// CUSUM decision threshold h: either one-sided sum crossing it is
/// divergence evidence (sustained small bias trips this even when no
/// single window looks alarming).
constexpr double kCusumH = 1.5;

/// Upper clamp on either CUSUM accumulator. Without it a long surge
/// banks unbounded mass that then drains at only k per window, so the
/// guard would stay diverged long after the forecast settled; the cap
/// bounds that rejoin inertia to (kCusumCap - kCusumH) / kCusumK = 6
/// windows.
constexpr double kCusumCap = 3.0;

/// EWMA level above which a single window counts as suspect evidence
/// (large instantaneous misses trip this before CUSUM accumulates).
constexpr double kSuspectThreshold = 0.5;

/// Consecutive suspect windows required to enter kDiverged — the
/// hysteresis that keeps one noisy window from handing control to the
/// reactive path.
constexpr int32_t kDivergeWindows = 2;

/// Consecutive settled windows required to leave kDiverged and rejoin
/// prediction — the opposite-direction hysteresis that keeps a
/// briefly-lucky forecast from reclaiming control mid-surge.
constexpr int32_t kRejoinWindows = 3;

/// Floor for the relative-residual denominator (txn/s), so near-zero
/// forecasts cannot inflate residuals without bound.
constexpr double kMinRate = 1.0;

/// Divergence state. kSuspect is the hysteresis buffer: evidence must
/// persist for kDivergeWindows consecutive windows before control is
/// handed to the reactive path, and settle for kRejoinWindows before
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
  /// Call before the first Observe(). Only a guarded controller owns a
  /// monitor, so unguarded runs register nothing.
  void set_telemetry(const obs::Telemetry& telemetry);

 private:
  /// True while the residual trackers exceed either alarm level.
  bool Alarming() const;

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
