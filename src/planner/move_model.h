#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

/// \file move_model.h
/// The paper's analytical model of a *move* — a reconfiguration from B
/// machines to A machines (Section 4.4):
///
///  - MaxParallelism       — Equation (2): max concurrent data transfers.
///  - MoveTimeMinutes      — Equation (3): T(B,A), move duration.
///  - AvgMachinesAllocated — Algorithm 4: average machines held during
///                           the move under just-in-time allocation.
///  - MoveCost             — Equation (4): C(B,A) in machine-intervals.
///  - Capacity             — Equation (5): cap(N) = Q * N.
///  - EffectiveCapacity    — Equation (7): eff-cap(B, A, f), the load the
///                           system can absorb after a fraction f of the
///                           move's data has shipped.

namespace pstore {

/// Parameters of the move model, discovered offline per Section 4.1/8.1.
struct MoveModelConfig {
  /// Q: target throughput per node, in the same unit as predicted load
  /// (e.g. txns/sec). The paper uses 65% of single-node saturation.
  double q = 285.0;

  /// P: logical data partitions per node (6 in the paper's evaluation).
  int32_t partitions_per_node = 6;

  /// D: minutes to migrate the entire database once with one
  /// sender-receiver thread pair without hurting latency (77 in §8.1,
  /// including the 10% buffer).
  double d_minutes = 77.0;

  /// Length of one planning interval in minutes (the paper simulates at
  /// five-minute granularity, §8.3).
  double interval_minutes = 5.0;

  /// Validates ranges (q > 0, P >= 1, D > 0, interval > 0).
  Status Validate() const;
};

/// \brief Pure functions over MoveModelConfig implementing Section 4.4.
class MoveModel {
 public:
  explicit MoveModel(MoveModelConfig config);

  const MoveModelConfig& config() const { return config_; }

  /// Equation (2): the maximum number of parallel bucket transfers when
  /// moving from `b` to `a` machines. Zero when b == a.
  int32_t MaxParallelism(int32_t b, int32_t a) const;

  /// Equation (3): T(B,A) in minutes (continuous). Zero when b == a.
  double MoveTimeMinutes(int32_t b, int32_t a) const;

  /// T(B,A) in whole planning intervals, rounded up ("each move lasts
  /// some positive number of time intervals, rounded up to the nearest
  /// integer"). Zero when b == a; callers apply the do-nothing rule.
  int32_t MoveTimeIntervals(int32_t b, int32_t a) const;

  /// Algorithm 4: average machines allocated during the move, assuming
  /// machines are added (removed) as late (early) as possible.
  double AvgMachinesAllocated(int32_t b, int32_t a) const;

  /// Equation (4): C(B,A) = T(B,A) * avg-mach-alloc(B,A), in
  /// machine-intervals, using the integer interval duration so cost and
  /// feasibility use the same clock. Zero when b == a (Algorithm 2
  /// charges do-nothing moves B machine-intervals explicitly).
  double MoveCost(int32_t b, int32_t a) const;

  /// Equation (5): cap(N) = Q * N.
  double Capacity(int32_t n) const;

  /// Equation (7): effective capacity after fraction `f` in [0,1] of the
  /// move's data has been migrated. For b == a this is cap(b).
  double EffectiveCapacity(int32_t b, int32_t a, double f) const;

  /// Fraction of the database that the move transfers: |1 - s/l|.
  double FractionMoved(int32_t b, int32_t a) const;

  // --- Evacuation costing (graceful drain of one node of n) ------------
  //
  // A spot revocation gives one node a notice window to evacuate its
  // 1/n share of the database. The stream is sequential (one
  // sender-receiver pair; the draining node is both the bottleneck and
  // the only sender), so the single-pair rate D governs: evacuating a
  // fraction g of the database takes g * D minutes.

  /// Minutes to evacuate fraction `g` in [0, 1] of the database through
  /// one sender-receiver pair: g * D.
  double EvacuationTimeMinutes(double g) const;

  /// Fraction of the database a notice window of `notice_minutes` can
  /// evacuate through one pair, capped at the draining node's 1/n share.
  /// 0 when n < 1 — with no cluster there is nothing to evacuate.
  double EvacuableFraction(double notice_minutes, int32_t n) const;

  /// Machine-minutes the evacuation holds beyond steady state: the
  /// replacement node runs for the full transfer of the node's 1/n
  /// share (capacity must exist before the deadline, Section 4.4's
  /// just-in-time allocation applied to a forced move).
  double EvacuationCost(int32_t n) const;

 private:
  MoveModelConfig config_;
};

}  // namespace pstore
