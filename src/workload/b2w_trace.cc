#include "workload/b2w_trace.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/rng.h"

namespace pstore {

namespace {
constexpr int32_t kMinutesPerDay = 1440;
constexpr double kPeakRpm = 25000.0;  ///< Typical weekday peak (Figure 1).
constexpr double kPeakToTrough = 10.0;  ///< Diurnal ratio (~10x in the paper).
constexpr double kNoiseRho = 0.97;    ///< Short-term noise AR(1) coefficient.
constexpr double kShapePower = 1.6;   ///< Sharpens the diurnal curve.
/// Day-of-week multipliers, Monday first.
constexpr double kWeekdayFactors[7] = {1.0,  1.02, 1.01, 0.99,
                                       1.05, 0.88, 0.82};
constexpr double kDailyDriftRho = 0.85;
constexpr double kPromoBoost = 0.5;  ///< Fractional load increase at center.
constexpr double kPromoHours = 3.0;  ///< Width (FWHM) of the bump.
/// Black Friday's fractional load increase at its peak: the surge
/// clearly dominates ordinary promotions (Figure 13 shows roughly double
/// the normal peak).
constexpr double kBlackFridayBoost = 2.6;
constexpr double kForcedSpikeMinute = 840.0;  ///< 14:00.
}  // namespace

Status B2wTraceConfig::Validate() const {
  if (days < 1) return Status::InvalidArgument("days < 1");
  if (black_friday_day >= days) {
    return Status::InvalidArgument("black_friday_day beyond trace");
  }
  return Status::OK();
}

Result<std::vector<double>> GenerateB2wTrace(const B2wTraceConfig& config) {
  PSTORE_RETURN_NOT_OK(config.Validate());
  Rng rng(config.seed);
  Rng promo_rng = rng.Fork();
  Rng spike_rng = rng.Fork();

  const int64_t total = static_cast<int64_t>(config.days) * kMinutesPerDay;
  std::vector<double> trace(static_cast<size_t>(total));

  // Per-day drift and event placement.
  std::vector<double> drift_factor(static_cast<size_t>(config.days), 0.0);
  std::vector<double> promo_center(static_cast<size_t>(config.days), -1.0);
  std::vector<double> spike_start(static_cast<size_t>(config.days), -1.0);
  double drift = 0;
  for (int32_t d = 0; d < config.days; ++d) {
    drift = kDailyDriftRho * drift +
            config.daily_drift_sigma * rng.NextGaussian();
    drift_factor[static_cast<size_t>(d)] = std::exp(drift);
    if (promo_rng.NextBernoulli(config.promo_probability)) {
      // Promotions land in the daytime (10:00 - 20:00).
      promo_center[static_cast<size_t>(d)] =
          600.0 + promo_rng.NextDouble() * 600.0;
    }
    if (spike_rng.NextBernoulli(config.spike_probability)) {
      spike_start[static_cast<size_t>(d)] =
          480.0 + spike_rng.NextDouble() * 720.0;
    }
  }
  if (config.forced_spike_day >= 0 && config.forced_spike_day < config.days) {
    spike_start[static_cast<size_t>(config.forced_spike_day)] =
        kForcedSpikeMinute;
  }

  // Diurnal shape: raised sine sharpened by kShapePower, scaled so
  // max/min = kPeakToTrough. It depends only on the minute of the day,
  // as the drift factor does only on the day, so both are tabulated
  // once; the minute loop multiplies the same values in the same order
  // as evaluating them in place would.
  const double trough_level = 1.0 / kPeakToTrough;
  std::vector<double> diurnal(kMinutesPerDay);
  for (int32_t m = 0; m < kMinutesPerDay; ++m) {
    const double phase = 2.0 * M_PI *
                         (static_cast<double>(m) - kB2wPeakHour * 60.0) /
                         kMinutesPerDay;
    const double raised = (1.0 + std::cos(phase)) / 2.0;  // 1 at peak hour
    const double shaped = std::pow(raised, kShapePower);
    diurnal[static_cast<size_t>(m)] =
        trough_level + (1.0 - trough_level) * shaped;
  }

  // Short-term correlated noise, built in `trace` itself: the minutes'
  // standard normals in one bulk draw, then the AR(1) recurrence in
  // order, in place.
  rng.NextGaussians(trace.data(), trace.size());
  double noise = 0;
  for (double& slot : trace) {
    noise = kNoiseRho * noise + config.noise_sigma * slot;
    slot = noise;
  }

  // Each minute's level times exp(its noise), one day per index: every
  // minute reads only its own slot and the per-day tables.
  ParallelFor(config.days, [&](int64_t day_index) {
    const int32_t day = static_cast<int32_t>(day_index);
    const int32_t dow = day % 7;
    double* slots = trace.data() + day_index * kMinutesPerDay;
    for (int32_t minute_of_day = 0; minute_of_day < kMinutesPerDay;
         ++minute_of_day) {
      const double minute = static_cast<double>(minute_of_day);
      double level = kPeakRpm * diurnal[static_cast<size_t>(minute_of_day)] *
                     kWeekdayFactors[dow] *
                     drift_factor[static_cast<size_t>(day)];

      // Promotion bump: Gaussian in time around the promo center.
      const double promo = promo_center[static_cast<size_t>(day)];
      if (promo >= 0) {
        const double width = kPromoHours * 60.0 / 2.355;  // FWHM
        const double d2 = (minute - promo) * (minute - promo);
        level *= 1.0 + kPromoBoost * std::exp(-d2 / (2 * width * width));
      }

      // Black Friday: surge that starts abruptly at midnight and stays
      // high all day (midnight doorbusters + elevated daytime peak).
      if (day == config.black_friday_day) {
        const double midnight_burst =
            std::exp(-minute / 180.0);  // decays over ~3 hours
        level *= 1.0 + kBlackFridayBoost * (0.55 * midnight_burst + 0.45);
        level += 0.35 * kBlackFridayBoost * kPeakRpm * midnight_burst;
      }

      // Flash-crowd spike: fast ramp, brief plateau, fast decay.
      const double spike = spike_start[static_cast<size_t>(day)];
      if (spike >= 0 && minute >= spike &&
          minute < spike + config.spike_minutes) {
        const double into = minute - spike;
        const double ramp = std::min(1.0, into / 5.0);
        const double decay =
            std::min(1.0, (config.spike_minutes - into) / 10.0);
        level *= 1.0 + config.spike_boost * std::min(ramp, decay);
      }

      level *= std::exp(slots[minute_of_day]);
      slots[minute_of_day] = std::max(0.0, level);
    }
  });
  return trace;
}

B2wTraceConfig B2wRegularTraffic(int32_t days, uint64_t seed) {
  B2wTraceConfig config;
  config.days = days;
  config.seed = seed;
  return config;
}

B2wTraceConfig B2wAugustToDecember(uint64_t seed) {
  B2wTraceConfig config;
  config.days = 137;  // Aug 1 - Dec 15, 2016
  config.seed = seed;
  config.promo_probability = 0.06;
  // Nov 25, 2016 is day index 116 from Aug 1.
  config.black_friday_day = 116;
  // Occasional internal load tests / unplanned surges.
  config.spike_probability = 0.015;
  config.spike_boost = 0.8;
  return config;
}

B2wTraceConfig B2wSpikeDay(int32_t lead_in_days, uint64_t seed) {
  B2wTraceConfig config;
  config.days = lead_in_days + 1;
  config.seed = seed;
  config.spike_probability = 0.0;
  config.promo_probability = 0.0;
  config.forced_spike_day = lead_in_days;
  config.spike_boost = 0.9;
  config.spike_minutes = 60.0;
  return config;
}

}  // namespace pstore
