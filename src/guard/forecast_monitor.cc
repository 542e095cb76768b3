#include "guard/forecast_monitor.h"

#include <algorithm>
#include <cmath>

namespace pstore {
namespace guard {

const char* GuardStateName(GuardState state) {
  switch (state) {
    case GuardState::kHealthy:
      return "healthy";
    case GuardState::kSuspect:
      return "suspect";
    case GuardState::kDiverged:
      return "diverged";
  }
  return "unknown";
}

void ForecastMonitor::set_telemetry(const obs::Telemetry& telemetry) {
  if (telemetry.metrics == nullptr) return;
  obs::MetricsRegistry& m = *telemetry.metrics;
  m.BindCounter("guard.windows", &windows_observed_);
  m.BindCounter("guard.divergences", &divergences_);
  m.BindCounter("guard.rejoins", &rejoins_);
  m_state_ = m.GetGauge("guard.state");
  m_residual_ = m.GetGauge("guard.residual");
  m_ewma_ = m.GetGauge("guard.ewma_abs_residual");
  m_cusum_high_ = m.GetGauge("guard.cusum_high");
  m_cusum_low_ = m.GetGauge("guard.cusum_low");
}

bool ForecastMonitor::Alarming() const {
  return ewma_ > kSuspectThreshold || cusum_high_ > kCusumH ||
         cusum_low_ > kCusumH;
}

GuardState ForecastMonitor::Observe(double observed, double predicted) {
  ++windows_observed_;
  // Relative residual: positive = under-forecast (reality above the
  // model), negative = over-forecast. The denominator floor keeps
  // near-zero forecasts from inflating residuals without bound.
  const double residual =
      (observed - predicted) / std::max(predicted, kMinRate);
  ewma_ = kEwmaAlpha * std::abs(residual) + (1.0 - kEwmaAlpha) * ewma_;
  // The cap bounds rejoin inertia: a long surge otherwise banks mass
  // that drains at only k per window, pinning the guard in kDiverged
  // long after the forecast has settled.
  cusum_high_ =
      std::min(kCusumCap, std::max(0.0, cusum_high_ + residual - kCusumK));
  cusum_low_ =
      std::min(kCusumCap, std::max(0.0, cusum_low_ - residual - kCusumK));

  const bool alarming = Alarming();
  switch (state_) {
    case GuardState::kHealthy:
      if (alarming) {
        state_ = GuardState::kSuspect;
        suspect_streak_ = 1;
      }
      break;
    case GuardState::kSuspect:
      if (alarming) {
        if (++suspect_streak_ >= kDivergeWindows) {
          state_ = GuardState::kDiverged;
          ++divergences_;
          settle_streak_ = 0;
        }
      } else {
        // One settled window clears suspicion: hysteresis is only in
        // the diverge direction here, the costly transition.
        state_ = GuardState::kHealthy;
        suspect_streak_ = 0;
      }
      break;
    case GuardState::kDiverged:
      if (!alarming) {
        if (++settle_streak_ >= kRejoinWindows) {
          state_ = GuardState::kHealthy;
          suspect_streak_ = 0;
          // The accumulated CUSUM mass belongs to the surge just
          // ridden out; carrying it over would re-trip on the first
          // post-rejoin window.
          cusum_high_ = 0.0;
          cusum_low_ = 0.0;
          ++rejoins_;
        }
      } else {
        settle_streak_ = 0;
      }
      break;
  }

  if (m_state_ != nullptr) {
    m_state_->Set(static_cast<double>(state_));
    m_residual_->Set(residual);
    m_ewma_->Set(ewma_);
    m_cusum_high_->Set(cusum_high_);
    m_cusum_low_->Set(cusum_low_);
  }
  return state_;
}

}  // namespace guard
}  // namespace pstore
