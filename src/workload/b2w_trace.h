#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

/// \file b2w_trace.h
/// Synthetic stand-in for B2W Digital's proprietary load traces. The
/// paper's traces are per-minute request counts over several months with
/// a strong diurnal pattern (peak about 10x the trough, Figure 1), weekly
/// seasonality, day-to-day variability, occasional promotions, and the
/// Black Friday surge (Figure 13). This generator produces a trace with
/// exactly those structures — the structures SPAR exploits — calibrated
/// to the statistics the paper reports. See DESIGN.md for the
/// substitution rationale.

namespace pstore {

/// Hour of the daily load peak. The rest of the measured load shape
/// (peak rate, sharpening, weekdays, drift, promotions) is b2w_trace.cc's.
inline constexpr double kB2wPeakHour = 15.0;

/// Knobs of the synthetic B2W trace.
struct B2wTraceConfig {
  int32_t days = 7 * 10;           ///< Trace length in days.

  /// Short-term correlated multiplicative noise: log-AR(1) with
  /// coefficient 0.97. Calibrated so SPAR's MRE lands near the paper's
  /// (~6% at tau=10 min rising to ~10% at tau=60, Figure 5b).
  double noise_sigma = 0.026;

  /// Slow day-scale drift (seasonality of demand): log-AR(1) per day
  /// with coefficient 0.85.
  double daily_drift_sigma = 0.05;

  /// Promotions: each day may carry an advertising bump (+50% at its
  /// center, 3 hours wide).
  double promo_probability = 0.05;  ///< Per day.

  /// Black Friday: a much larger surge on one day, starting at midnight
  /// (doorbuster sales), as in Figure 13 (right).
  int32_t black_friday_day = -1;    ///< Day index, or -1 for none.

  /// Unpredictable flash-crowd spikes (Figure 11): sudden load jumps
  /// lasting under an hour, at random times.
  double spike_probability = 0.0;   ///< Per day.
  double spike_boost = 1.0;         ///< Fractional increase.
  double spike_minutes = 45.0;      ///< Spike duration.

  /// Deterministically place one spike (for Figure 11's scripted
  /// "unexpected load spike" day) at 14:00, near the daily peak: day
  /// index, or -1 for none.
  int32_t forced_spike_day = -1;

  uint64_t seed = 20160701;

  Status Validate() const;
};

/// Generates the per-minute trace (requests per minute), length
/// days * 1440. Deterministic for a given config.
Result<std::vector<double>> GenerateB2wTrace(const B2wTraceConfig& config);

/// Convenience presets.

/// ~10 weeks of regular traffic; the first 4 weeks are the conventional
/// training window (Section 5).
B2wTraceConfig B2wRegularTraffic(int32_t days = 70, uint64_t seed = 20160701);

/// The 4.5-month August-December window of Section 8.3, including a
/// Black Friday surge and sporadic promotions/load tests.
B2wTraceConfig B2wAugustToDecember(uint64_t seed = 20160801);

/// A day with a large unexpected flash-crowd spike (Figure 11's
/// September day), appended after `lead_in_days` of regular traffic.
B2wTraceConfig B2wSpikeDay(int32_t lead_in_days = 35,
                           uint64_t seed = 20160901);

}  // namespace pstore
