#include "planner/move_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pstore {

Status MoveModelConfig::Validate() const {
  if (q <= 0) return Status::InvalidArgument("q must be positive");
  if (partitions_per_node < 1) {
    return Status::InvalidArgument("partitions_per_node must be >= 1");
  }
  if (d_minutes <= 0) return Status::InvalidArgument("d_minutes must be > 0");
  if (interval_minutes <= 0) {
    return Status::InvalidArgument("interval_minutes must be > 0");
  }
  return Status::OK();
}

MoveModel::MoveModel(MoveModelConfig config) : config_(config) {
  assert(config_.Validate().ok());
}

int32_t MoveModel::MaxParallelism(int32_t b, int32_t a) const {
  assert(b >= 1 && a >= 1);
  const int32_t p = config_.partitions_per_node;
  if (b == a) return 0;
  if (b < a) return p * std::min(b, a - b);
  return p * std::min(a, b - a);
}

double MoveModel::FractionMoved(int32_t b, int32_t a) const {
  if (b == a) return 0.0;
  const double s = std::min(b, a);
  const double l = std::max(b, a);
  return 1.0 - s / l;
}

double MoveModel::MoveTimeMinutes(int32_t b, int32_t a) const {
  if (b == a) return 0.0;
  const int32_t par = MaxParallelism(b, a);
  return config_.d_minutes / par * FractionMoved(b, a);
}

int32_t MoveModel::MoveTimeIntervals(int32_t b, int32_t a) const {
  if (b == a) return 0;
  const double t = MoveTimeMinutes(b, a) / config_.interval_minutes;
  return std::max<int32_t>(1, static_cast<int32_t>(std::ceil(t - 1e-9)));
}

double MoveModel::AvgMachinesAllocated(int32_t b, int32_t a) const {
  // Algorithm 4. Allocation is symmetric in scale-in/scale-out: what
  // matters is the larger and smaller cluster sizes.
  const int32_t l = std::max(b, a);
  const int32_t s = std::min(b, a);
  const int32_t delta = l - s;
  if (delta == 0) return l;
  const int32_t r = delta % s;

  // Case 1: all machines added or removed at once.
  if (s >= delta) return l;

  // Case 2: delta is a perfect multiple of the smaller cluster.
  if (r == 0) return (2.0 * s + l) / 2.0;

  // Case 3: three phases (Section 4.4.1, Figure 4c).
  const double n1 = std::floor(static_cast<double>(delta) / s) - 1;
  const double t1 = static_cast<double>(s) / delta;   // time per phase-1 step
  const double m1 = (s + l - r) / 2.0;                // avg machines, phase 1
  const double phase1 = n1 * t1 * m1;

  const double t2 = static_cast<double>(r) / delta;   // time for phase 2
  const double m2 = l - r;                            // machines in phase 2
  const double phase2 = t2 * m2;

  const double t3 = static_cast<double>(s) / delta;   // time for phase 3
  const double m3 = l;                                // machines in phase 3
  const double phase3 = t3 * m3;

  return phase1 + phase2 + phase3;
}

double MoveModel::MoveCost(int32_t b, int32_t a) const {
  if (b == a) return 0.0;
  return static_cast<double>(MoveTimeIntervals(b, a)) *
         AvgMachinesAllocated(b, a);
}

double MoveModel::Capacity(int32_t n) const { return config_.q * n; }

double MoveModel::EvacuationTimeMinutes(double g) const {
  g = std::clamp(g, 0.0, 1.0);
  return g * config_.d_minutes;
}

double MoveModel::EvacuableFraction(double notice_minutes, int32_t n) const {
  if (n < 1 || notice_minutes <= 0) return 0.0;
  const double share = 1.0 / n;
  return std::min(share, notice_minutes / config_.d_minutes);
}

double MoveModel::EvacuationCost(int32_t n) const {
  if (n < 1) return 0.0;
  return EvacuationTimeMinutes(1.0 / n);
}

double MoveModel::EffectiveCapacity(int32_t b, int32_t a, double f) const {
  assert(b >= 1 && a >= 1);
  f = std::clamp(f, 0.0, 1.0);
  if (b == a) return Capacity(b);
  const double inv_b = 1.0 / b;
  const double inv_a = 1.0 / a;
  double largest_fraction;
  if (b < a) {
    // Scale-out: the original B machines drain from 1/B toward 1/A.
    largest_fraction = inv_b - f * (inv_b - inv_a);
  } else {
    // Scale-in: the surviving A machines fill from 1/B toward 1/A.
    largest_fraction = inv_b + f * (inv_a - inv_b);
  }
  return Capacity(1) / largest_fraction;  // Q / f_n
}

}  // namespace pstore
