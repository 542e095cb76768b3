#pragma once

#include <cstdint>

#include "common/histogram.h"

/// \file histogram.h (obs)
/// Percentile readouts over metric histograms: interpolated
/// p50/p90/p99/p999 quantile summaries.

namespace pstore {
namespace obs {

/// \brief Interpolated quantile summary of one histogram.
struct Quantiles {
  int64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
  int64_t min = 0;
  int64_t max = 0;
};

/// Computes interpolated p50/p90/p99/p999 (plus count/mean/min/max).
Quantiles ComputeQuantiles(const Histogram& histogram);

}  // namespace obs
}  // namespace pstore
