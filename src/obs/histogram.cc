#include "obs/histogram.h"

namespace pstore {
namespace obs {

Quantiles ComputeQuantiles(const Histogram& histogram) {
  Quantiles q;
  q.count = histogram.count();
  q.mean = histogram.Mean();
  q.p50 = histogram.PercentileInterpolated(50);
  q.p90 = histogram.PercentileInterpolated(90);
  q.p99 = histogram.PercentileInterpolated(99);
  q.p999 = histogram.PercentileInterpolated(99.9);
  q.min = histogram.min();
  q.max = histogram.max();
  return q;
}

}  // namespace obs
}  // namespace pstore
