#include "workload/wiki_trace.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace pstore {

namespace {
constexpr int32_t kHoursPerDay = 24;
constexpr double kPeakHour = 19.0;  ///< Evening reading peak.
constexpr double kShapePower = 1.2;
/// Day-of-week multipliers, Monday first.
constexpr double kWeekdayFactors[7] = {1.03, 1.02, 1.0, 0.99,
                                       0.95, 0.92, 0.98};
constexpr double kDailyDriftRho = 0.9;
constexpr double kEventHours = 8.0;  ///< Width (FWHM) of a news burst.
}  // namespace

Status WikiTraceConfig::Validate() const {
  if (days < 1) return Status::InvalidArgument("days < 1");
  if (peak_views <= 0) return Status::InvalidArgument("peak_views <= 0");
  if (peak_to_trough < 1) {
    return Status::InvalidArgument("peak_to_trough < 1");
  }
  if (noise_rho < 0 || noise_rho >= 1) {
    return Status::InvalidArgument("noise_rho out of [0, 1)");
  }
  return Status::OK();
}

Result<std::vector<double>> GenerateWikiTrace(const WikiTraceConfig& config) {
  PSTORE_RETURN_NOT_OK(config.Validate());
  Rng rng(config.seed);
  Rng event_rng = rng.Fork();

  const int64_t total = static_cast<int64_t>(config.days) * kHoursPerDay;
  std::vector<double> trace(static_cast<size_t>(total));

  std::vector<double> day_drift(static_cast<size_t>(config.days), 0.0);
  std::vector<double> event_center(static_cast<size_t>(config.days), -1.0);
  double drift = 0;
  for (int32_t d = 0; d < config.days; ++d) {
    drift = kDailyDriftRho * drift +
            config.daily_drift_sigma * rng.NextGaussian();
    day_drift[static_cast<size_t>(d)] = drift;
    if (event_rng.NextBernoulli(config.event_probability)) {
      event_center[static_cast<size_t>(d)] = event_rng.NextDouble() * 24.0;
    }
  }

  const double trough_level = 1.0 / config.peak_to_trough;
  auto diurnal = [&](double hour_of_day) {
    const double phase =
        2.0 * M_PI * (hour_of_day - kPeakHour) / kHoursPerDay;
    const double raised = (1.0 + std::cos(phase)) / 2.0;
    const double shaped = std::pow(raised, kShapePower);
    return trough_level + (1.0 - trough_level) * shaped;
  };

  double noise = 0;
  for (int64_t t = 0; t < total; ++t) {
    const int32_t day = static_cast<int32_t>(t / kHoursPerDay);
    const double hour = static_cast<double>(t % kHoursPerDay);
    const int32_t dow = day % 7;

    double level = config.peak_views * diurnal(hour) *
                   kWeekdayFactors[dow] *
                   std::exp(day_drift[static_cast<size_t>(day)]);

    const double center = event_center[static_cast<size_t>(day)];
    if (center >= 0) {
      const double width = kEventHours / 2.355;
      const double d2 = (hour - center) * (hour - center);
      level *= 1.0 + config.event_boost * std::exp(-d2 / (2 * width * width));
    }

    noise = config.noise_rho * noise + config.noise_sigma * rng.NextGaussian();
    level *= std::exp(noise);
    trace[static_cast<size_t>(t)] = std::max(0.0, level);
  }
  return trace;
}

WikiTraceConfig WikiEnglish(int32_t days, uint64_t seed) {
  WikiTraceConfig config;
  config.days = days;
  config.seed = seed;
  return config;
}

WikiTraceConfig WikiGerman(int32_t days, uint64_t seed) {
  WikiTraceConfig config;
  config.days = days;
  config.seed = seed;
  config.peak_views = 2.2e6;
  config.peak_to_trough = 3.0;
  config.noise_rho = 0.6;
  config.noise_sigma = 0.07;
  config.daily_drift_sigma = 0.08;
  config.event_probability = 0.15;
  config.event_boost = 0.6;
  return config;
}

}  // namespace pstore
