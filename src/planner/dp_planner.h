#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "planner/move_model.h"

/// \file dp_planner.h
/// P-Store's predictive elasticity algorithm (Section 4.3): a dynamic
/// program over (time interval, machine count) states that finds the
/// cheapest feasible sequence of moves — Algorithms 1 (best-moves),
/// 2 (cost) and 3 (sub-cost) of the paper.

namespace pstore {

/// One planned reconfiguration. A move with from_nodes == to_nodes is
/// the "do nothing" move and spans exactly one interval.
struct PlannedMove {
  int32_t start_interval = 0;  ///< Interval at which migration begins.
  int32_t end_interval = 0;    ///< Interval at which the move completes.
  int32_t from_nodes = 0;      ///< B: machines before the move.
  int32_t to_nodes = 0;        ///< A: machines after the move.

  bool IsNoop() const { return from_nodes == to_nodes; }
  std::string ToString() const;

  bool operator==(const PlannedMove& other) const {
    return start_interval == other.start_interval &&
           end_interval == other.end_interval &&
           from_nodes == other.from_nodes && to_nodes == other.to_nodes;
  }
};

/// Result of planning: the move sequence plus its total cost in
/// machine-intervals (Equation 1 over the horizon).
struct Plan {
  std::vector<PlannedMove> moves;  ///< Contiguous, ordered by start.
  double total_cost = 0.0;
  bool feasible = false;
  /// Distinct (time, machines) DP states evaluated while planning —
  /// the work metric the observability layer reports per cycle.
  int64_t dp_cells_evaluated = 0;

  /// Machines at the end of the horizon (N at time T); 0 if infeasible.
  int32_t final_nodes() const {
    return moves.empty() ? 0 : moves.back().to_nodes;
  }

  /// The first non-noop move, or nullptr if the plan only idles. The
  /// Predictive Controller executes just this move (receding horizon).
  const PlannedMove* FirstRealMove() const;

  std::string ToString() const;
};

/// \brief The dynamic-programming planner.
///
/// Given a predicted load series L[0..T] (L[0] is the current load) and
/// the current machine count N0, finds a sequence of moves that (a) never
/// lets predicted load exceed (effective) capacity and (b) minimizes
/// total machine-intervals, ending with as few machines as possible.
///
/// A planner owns the memo and scratch buffers its calls reuse, so
/// BestMoves mutates it: a planner is never shared across threads. Give
/// each thread its own.
class DpPlanner {
 public:
  /// Generation stamp that invalidates the memo between calls. The
  /// memo's stamps are re-zeroed once every
  /// std::numeric_limits<MemoStamp>::max() calls, when it wraps.
  using MemoStamp = uint16_t;

  /// \param model the move model (shared parameters Q, P, D, interval)
  /// \param max_nodes hard cap on cluster size (0 = derived from load).
  ///        A positive cap also bounds every plan's machine count, so
  ///        the per-(b, a) move tables are built here, once.
  explicit DpPlanner(MoveModel model, int32_t max_nodes = 0);

  /// Algorithm 1 (best-moves). `load` must have at least 2 entries
  /// (now plus one future interval); entry t is the predicted load at
  /// interval t. Returns an infeasible Plan when no feasible sequence
  /// exists from N0 — the controller then falls back to reactive
  /// scale-out (Section 4.3.1's options 1 and 2). Once the planner's
  /// buffers have grown to the largest call seen, a call with
  /// max_nodes > 0 allocates nothing but the returned plan's moves.
  Plan BestMoves(const std::vector<double>& load, int32_t n0);

  /// Convenience: the smallest machine count whose *steady* capacity
  /// (MoveModel::Capacity) covers `load`, at least 1: ceil(load / Q),
  /// forgiving a 1e-9 rounding excess.
  int32_t NodesForLoad(double load) const;

  /// Forces the textbook recursion: no precomputed per-(b, a) move
  /// tables, no capacity-threshold pruning. Plans and costs are
  /// identical either way (the equivalence suite proves it); exhaustive
  /// mode exists as that suite's reference and for debugging.
  void set_exhaustive(bool exhaustive) { exhaustive_ = exhaustive; }
  bool exhaustive() const { return exhaustive_; }

  const MoveModel& model() const { return model_; }
  int32_t max_nodes() const { return max_nodes_; }

 private:
  /// Move tables for machine counts 1..z (fast mode only): move
  /// durations and costs with Algorithm 3's do-nothing convention
  /// applied (b == a: duration 1, cost b), each move's
  /// effective-capacity profile, and each machine count's steady
  /// capacity, all flat and indexed with the table's own stride. They
  /// depend only on (b, a), never on the load, and hold exactly the
  /// values the exhaustive recursion would recompute, so results are
  /// bit-identical.
  struct MoveTables {
    int32_t stride = 0;  ///< z + 1; 0 = not built.
    std::vector<int32_t> duration;
    std::vector<double> move_cost;
    /// Profile of (b, a) starts at effcap[effcap_offset[Index(b, a)]]:
    /// entry i - 1 = EffectiveCapacity(b, a, i / duration), i = 1..d.
    std::vector<uint32_t> effcap_offset;
    std::vector<double> effcap;
    /// cap[n] = Capacity(n) for n = 1..z (cap[0] unused).
    std::vector<double> cap;
    /// max_duration[n] = the longest move among machine counts 1..n.
    std::vector<int32_t> max_duration;

    MoveTables() = default;
    MoveTables(const MoveModel& model, int32_t z);

    /// Target-major, so the scan over predecessors b reads
    /// consecutive entries.
    size_t Index(int32_t b, int32_t a) const {
      return static_cast<size_t>(a) * static_cast<size_t>(stride) +
             static_cast<size_t>(b);
    }
  };

  /// Buffers every call reuses, grown to the largest call seen and
  /// never shrunk. Memo cell (t, a) of a call with z machines lives at
  /// t * (z + 1) + a and is live iff stamp == generation, so a new call
  /// invalidates the whole memo by bumping the generation.
  struct Workspace {
    std::vector<double> cost;
    std::vector<int32_t> prev_time;
    std::vector<int32_t> prev_nodes;
    std::vector<MemoStamp> stamp;
    /// 0 only before the first call; never equal to a stale stamp.
    MemoStamp generation = 0;
    /// Cells first stamped in this call (Plan::dp_cells_evaluated).
    int64_t cells = 0;
    /// Fast mode: amin[t] = the smallest machine count a with
    /// load[t] <= Capacity(a), or z + 1 when even z machines are
    /// overloaded. Capacity is monotonic in a, so
    /// "load[t] > Capacity(a)" == "a < amin[t]".
    std::vector<int32_t> amin;
    /// Fast mode: b_lo[t] = min amin[s] over the starts s in
    /// [t - max_duration, t - 1] a move ending at t can have. A
    /// predecessor b < b_lo[t] is overloaded at its start whatever the
    /// move's duration.
    std::vector<int32_t> b_lo;

    /// Grows the memo to at least `size` cells and opens a new
    /// generation.
    void BeginCall(size_t size);
    /// Stamps cell `i` live, counting it. Returns false if it already
    /// was live in this call.
    bool Stamp(size_t i) {
      if (stamp[i] == generation) return false;
      stamp[i] = generation;
      ++cells;
      return true;
    }
  };

  /// The call being planned; both recursions read it.
  struct Call {
    const double* load = nullptr;
    int32_t n0 = 0;
    int32_t z = 0;
    const MoveTables* moves = nullptr;  ///< Fast mode only.

    size_t Cell(int32_t t, int32_t a) const {
      return static_cast<size_t>(t) * static_cast<size_t>(z + 1) +
             static_cast<size_t>(a);
    }
  };

  // Algorithm 2 (exhaustive mode): min cost of a feasible series ending
  // with `a` nodes at interval `t`.
  double Cost(int32_t t, int32_t a);

  // Algorithm 3 (exhaustive mode): min cost ending at `t` with the last
  // move being b -> a.
  double SubCost(int32_t t, int32_t b, int32_t a);

  // Algorithms 2 and 3 fused over the move tables (fast mode). The
  // caller has checked a >= amin[t] and, at t == 0, a == n0.
  double FastCost(int32_t t, int32_t a);

  MoveModel model_;
  int32_t max_nodes_;
  bool exhaustive_ = false;
  /// Built by the constructor when max_nodes_ > 0; BestMoves builds a
  /// per-call set for its own z otherwise.
  MoveTables tables_;
  Workspace ws_;
  Call call_;
};

}  // namespace pstore
