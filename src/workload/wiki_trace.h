#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

/// \file wiki_trace.h
/// Synthetic stand-in for the Wikipedia per-hour page-view statistics
/// the paper uses as its second workload (Section 5, Figure 6). The
/// English-language trace is highly regular; the German-language trace
/// is smaller and noisier, so SPAR's error is visibly higher on it —
/// that contrast is the figure's point, and the generator exposes it
/// through the noise and irregularity knobs.

namespace pstore {

/// Knobs of the synthetic Wikipedia trace (hourly slots). The editions
/// share the 19:00 peak and its sharpening, the weekday factors, the
/// drift coefficient and the event width (wiki_trace.cc).
struct WikiTraceConfig {
  int32_t days = 62;              ///< July + August 2016.
  double peak_views = 9.0e6;      ///< Requests/hour at the daily peak.
  double peak_to_trough = 2.2;    ///< Diurnal ratio (shallower than B2W).

  /// Short-term correlated noise (log-AR(1) per hour).
  double noise_rho = 0.75;
  double noise_sigma = 0.02;

  /// Slow drift across days: log-AR(1) with coefficient 0.9.
  double daily_drift_sigma = 0.03;

  /// News-event bursts: 8-hour surges on random days (current events
  /// drive unpredictable traffic, more so for smaller editions).
  double event_probability = 0.04;  ///< Per day.
  double event_boost = 0.35;

  uint64_t seed = 777;

  Status Validate() const;
};

/// Generates the hourly trace (requests per hour), length days * 24.
Result<std::vector<double>> GenerateWikiTrace(const WikiTraceConfig& config);

/// English Wikipedia: large, regular, low noise (Figure 6 left).
WikiTraceConfig WikiEnglish(int32_t days = 62, uint64_t seed = 201607);

/// German Wikipedia: smaller, noisier, more event-driven (Figure 6
/// right) — SPAR's MRE on it stays under ~10% at tau <= 2h and ~13% at
/// tau = 6h in the paper.
WikiTraceConfig WikiGerman(int32_t days = 62, uint64_t seed = 201608);

}  // namespace pstore
