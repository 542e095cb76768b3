#include "planner/dp_planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <sstream>

namespace pstore {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::string PlannedMove::ToString() const {
  std::ostringstream os;
  if (IsNoop()) {
    os << "[" << start_interval << "," << end_interval << "] hold "
       << from_nodes;
  } else {
    os << "[" << start_interval << "," << end_interval << "] " << from_nodes
       << " -> " << to_nodes;
  }
  return os.str();
}

const PlannedMove* Plan::FirstRealMove() const {
  for (const auto& m : moves) {
    if (!m.IsNoop()) return &m;
  }
  return nullptr;
}

std::string Plan::ToString() const {
  std::ostringstream os;
  if (!feasible) return "Plan{infeasible}";
  os << "Plan{cost=" << total_cost << ": ";
  for (size_t i = 0; i < moves.size(); ++i) {
    if (i > 0) os << "; ";
    os << moves[i].ToString();
  }
  os << "}";
  return os.str();
}

DpPlanner::DpPlanner(MoveModel model, int32_t max_nodes)
    : model_(std::move(model)), max_nodes_(max_nodes) {
  if (max_nodes_ > 0) tables_ = MoveTables(model_, max_nodes_);
}

int32_t DpPlanner::NodesForLoad(double load) const {
  if (load <= 0) return 1;
  return std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(load / model_.config().q - 1e-9)));
}

DpPlanner::MoveTables::MoveTables(const MoveModel& model, int32_t z)
    : stride(z + 1) {
  const size_t pairs =
      static_cast<size_t>(stride) * static_cast<size_t>(stride);
  duration.assign(pairs, 0);
  move_cost.assign(pairs, 0.0);
  effcap_offset.assign(pairs, 0);
  for (int32_t a = 1; a <= z; ++a) {
    for (int32_t b = 1; b <= z; ++b) {
      const size_t idx = Index(b, a);
      int32_t d = model.MoveTimeIntervals(b, a);
      double cost = model.MoveCost(b, a);
      if (d == 0) {
        d = 1;
        cost = b;
      }
      duration[idx] = d;
      move_cost[idx] = cost;
      effcap_offset[idx] = static_cast<uint32_t>(effcap.size());
      for (int32_t i = 1; i <= d; ++i) {
        effcap.push_back(
            model.EffectiveCapacity(b, a, static_cast<double>(i) / d));
      }
    }
  }
}

struct DpPlanner::PlanTables {
  const MoveTables& moves;
  /// amin[t] = smallest machine count a with load[t] <= Capacity(a),
  /// or z + 1 when even z machines are overloaded. Capacity is
  /// monotonic in a, so "load[t] > Capacity(a)" == "a < amin[t]".
  std::vector<int32_t> amin;

  PlanTables(const MoveTables& moves_in, const MoveModel& model,
             const std::vector<double>& load, int32_t z)
      : moves(moves_in), amin(load.size()) {
    for (size_t t = 0; t < load.size(); ++t) {
      int32_t a = 1;
      while (a <= z && load[t] > model.Capacity(a)) ++a;
      amin[t] = a;
    }
  }
};

double DpPlanner::SubCost(int32_t t, int32_t b, int32_t a,
                          const std::vector<double>& load, int32_t n0,
                          int32_t z, const PlanTables* tables,
                          std::vector<MemoEntry>* memo) const {
  // Algorithm 3. A move must last at least one time interval; the
  // do-nothing move (b == a) gets duration 1 and cost b.
  int32_t duration;
  double move_cost;
  const double* caps = nullptr;
  if (tables != nullptr) {
    const MoveTables& moves = tables->moves;
    const size_t idx = moves.Index(b, a);
    duration = moves.duration[idx];
    move_cost = moves.move_cost[idx];
    caps = moves.effcap.data() + moves.effcap_offset[idx];
  } else {
    duration = model_.MoveTimeIntervals(b, a);
    move_cost = model_.MoveCost(b, a);
    if (duration == 0) {
      duration = 1;
      move_cost = b;
    }
  }

  const int32_t start_move = t - duration;
  if (start_move < 0) {
    // This reconfiguration would need to start in the past.
    return kInf;
  }

  // Prune candidates whose predecessor state is overloaded outright:
  // Cost(start_move, b) would return kInf from its capacity check
  // before touching the memo, so skipping the recursion (and the
  // effective-capacity scan below) changes nothing observable.
  if (tables != nullptr &&
      b < tables->amin[static_cast<size_t>(start_move)]) {
    return kInf;
  }

  // The predicted load must never exceed the effective capacity of the
  // system at any interval during the move.
  for (int32_t i = 1; i <= duration; ++i) {
    const double predicted = load[static_cast<size_t>(start_move + i)];
    const double cap =
        caps != nullptr
            ? caps[i - 1]
            : model_.EffectiveCapacity(b, a,
                                       static_cast<double>(i) / duration);
    if (predicted > cap) {
      return kInf;
    }
  }

  const double prior = Cost(start_move, b, load, n0, z, tables, memo);
  if (prior == kInf) return kInf;
  return prior + move_cost;
}

double DpPlanner::Cost(int32_t t, int32_t a, const std::vector<double>& load,
                       int32_t n0, int32_t z, const PlanTables* tables,
                       std::vector<MemoEntry>* memo) const {
  // Algorithm 2.
  if (t < 0 || (t == 0 && a != n0)) return kInf;
  if (tables != nullptr ? a < tables->amin[static_cast<size_t>(t)]
                        : load[static_cast<size_t>(t)] > model_.Capacity(a)) {
    return kInf;
  }

  MemoEntry& entry = (*memo)[static_cast<size_t>(t) * (z + 1) +
                             static_cast<size_t>(a)];
  if (entry.exists) return entry.cost;
  entry.exists = true;  // set before recursing; recursion only visits t' < t

  if (t == 0) {
    // Base case: allocating `a` machines for the first interval.
    entry.cost = a;
    entry.prev_time = -1;
    entry.prev_nodes = -1;
    return entry.cost;
  }

  // Recursive step: choose the predecessor machine count b minimizing
  // the cost of a series whose last move is b -> a.
  double best = kInf;
  int32_t best_b = -1;
  for (int32_t b = 1; b <= z; ++b) {
    const double c = SubCost(t, b, a, load, n0, z, tables, memo);
    if (c < best) {
      best = c;
      best_b = b;
    }
  }

  entry.cost = best;
  if (best_b >= 0) {
    int32_t duration =
        tables != nullptr
            ? tables->moves.duration[tables->moves.Index(best_b, a)]
            : model_.MoveTimeIntervals(best_b, a);
    if (duration == 0) duration = 1;
    entry.prev_time = t - duration;
    entry.prev_nodes = best_b;
  }
  return entry.cost;
}

Plan DpPlanner::BestMoves(const std::vector<double>& load, int32_t n0) const {
  Plan plan;
  if (load.size() < 2 || n0 < 1) return plan;
  const int32_t horizon = static_cast<int32_t>(load.size()) - 1;

  // Z: the most machines ever needed for the predicted load (Line 2 of
  // Algorithm 1), also bounded below by N0 so scale-in plans can start.
  const double peak = *std::max_element(load.begin(), load.end());
  int32_t z = std::max(NodesForLoad(peak), n0);
  if (max_nodes_ > 0) z = std::min(z, max_nodes_);
  if (n0 > z) return plan;  // cannot even represent the current state

  // Try final machine counts from smallest to largest; the first
  // feasible one is optimal in final-cluster size. The memo matrix is
  // shared across attempts (the paper's Algorithm 1 re-initializes it
  // per iteration, but cost(t, A) does not depend on the final target,
  // so reuse is sound and saves a factor of Z).
  std::vector<MemoEntry> memo(static_cast<size_t>(horizon + 1) *
                              static_cast<size_t>(z + 1));
  const auto cells_evaluated = [&memo]() {
    int64_t cells = 0;
    for (const MemoEntry& e : memo) cells += e.exists ? 1 : 0;
    return cells;
  };
  // The move tables cover up to max_nodes_ >= z machines when the
  // constructor built them; otherwise build them for this call's z.
  std::optional<MoveTables> call_moves;
  std::optional<PlanTables> plan_tables;
  if (!exhaustive_) {
    const MoveTables* moves = &tables_;
    if (tables_.stride == 0) moves = &call_moves.emplace(model_, z);
    plan_tables.emplace(*moves, model_, load, z);
  }
  const PlanTables* tables = plan_tables ? &*plan_tables : nullptr;
  for (int32_t final_nodes = 1; final_nodes <= z; ++final_nodes) {
    const double total = Cost(horizon, final_nodes, load, n0, z, tables, &memo);
    if (total == kInf) continue;

    // Backtrack through the memo matrix to recover the move series.
    std::vector<PlannedMove> rev;
    int32_t t = horizon;
    int32_t n = final_nodes;
    while (t > 0) {
      const MemoEntry& e = memo[static_cast<size_t>(t) * (z + 1) +
                                static_cast<size_t>(n)];
      assert(e.exists && e.prev_time >= 0);
      PlannedMove mv;
      mv.start_interval = e.prev_time;
      mv.end_interval = t;
      mv.from_nodes = e.prev_nodes;
      mv.to_nodes = n;
      rev.push_back(mv);
      t = e.prev_time;
      n = e.prev_nodes;
    }
    std::reverse(rev.begin(), rev.end());

    plan.moves = std::move(rev);
    plan.total_cost = total;
    plan.feasible = true;
    plan.dp_cells_evaluated = cells_evaluated();
    return plan;
  }

  // No feasible solution: N0 is too low to scale out in time
  // (Section 4.3.1, Line 13).
  plan.dp_cells_evaluated = cells_evaluated();
  return plan;
}

}  // namespace pstore
