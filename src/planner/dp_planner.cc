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
  cap.assign(static_cast<size_t>(stride), 0.0);
  max_duration.assign(static_cast<size_t>(stride), 0);
  for (int32_t a = 1; a <= z; ++a) {
    cap[static_cast<size_t>(a)] = model.Capacity(a);
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
  for (int32_t n = 1; n <= z; ++n) {
    int32_t longest = max_duration[static_cast<size_t>(n - 1)];
    for (int32_t k = 1; k <= n; ++k) {
      longest = std::max({longest, duration[Index(k, n)],
                          duration[Index(n, k)]});
    }
    max_duration[static_cast<size_t>(n)] = longest;
  }
}

void DpPlanner::Workspace::BeginCall(size_t size) {
  if (stamp.size() < size) {
    cost.resize(size);
    prev_time.resize(size);
    prev_nodes.resize(size);
    stamp.resize(size, 0);
  }
  if (generation == std::numeric_limits<MemoStamp>::max()) {
    // Wrap: re-zero every stamp so none can match a reused generation.
    std::fill(stamp.begin(), stamp.end(), MemoStamp{0});
    generation = 0;
  }
  ++generation;
  cells = 0;
}

double DpPlanner::SubCost(int32_t t, int32_t b, int32_t a) {
  // Algorithm 3. A move must last at least one time interval; the
  // do-nothing move (b == a) gets duration 1 and cost b.
  int32_t duration = model_.MoveTimeIntervals(b, a);
  double move_cost = model_.MoveCost(b, a);
  if (duration == 0) {
    duration = 1;
    move_cost = b;
  }

  const int32_t start_move = t - duration;
  if (start_move < 0) {
    // This reconfiguration would need to start in the past.
    return kInf;
  }

  // The predicted load must never exceed the effective capacity of the
  // system at any interval during the move.
  for (int32_t i = 1; i <= duration; ++i) {
    const double predicted = call_.load[start_move + i];
    if (predicted >
        model_.EffectiveCapacity(b, a, static_cast<double>(i) / duration)) {
      return kInf;
    }
  }

  const double prior = Cost(start_move, b);
  if (prior == kInf) return kInf;
  return prior + move_cost;
}

double DpPlanner::Cost(int32_t t, int32_t a) {
  // Algorithm 2.
  if (t < 0 || (t == 0 && a != call_.n0)) return kInf;
  if (call_.load[t] > model_.Capacity(a)) return kInf;

  const size_t cell = call_.Cell(t, a);
  // Stamped before recursing; recursion only visits t' < t.
  if (!ws_.Stamp(cell)) return ws_.cost[cell];

  if (t == 0) {
    // Base case: allocating `a` machines for the first interval.
    ws_.cost[cell] = a;
    ws_.prev_time[cell] = -1;
    ws_.prev_nodes[cell] = -1;
    return a;
  }

  // Recursive step: choose the predecessor machine count b minimizing
  // the cost of a series whose last move is b -> a.
  double best = kInf;
  int32_t best_b = -1;
  for (int32_t b = 1; b <= call_.z; ++b) {
    const double c = SubCost(t, b, a);
    if (c < best) {
      best = c;
      best_b = b;
    }
  }

  ws_.cost[cell] = best;
  ws_.prev_time[cell] =
      best_b >= 0 ? t - std::max(model_.MoveTimeIntervals(best_b, a), 1)
                  : -1;
  ws_.prev_nodes[cell] = best_b;
  return best;
}

double DpPlanner::FastCost(int32_t t, int32_t a) {
  const size_t cell = call_.Cell(t, a);
  if (!ws_.Stamp(cell)) return ws_.cost[cell];

  double* const cost = ws_.cost.data();
  if (t == 0) {
    // Base case: allocating `a` machines for the first interval.
    cost[cell] = a;
    ws_.prev_time[cell] = -1;
    ws_.prev_nodes[cell] = -1;
    return a;
  }

  // The (b, a) rows of the move tables, indexed by b.
  const MoveTables& moves = *call_.moves;
  const size_t row = moves.Index(0, a);
  const int32_t* const duration = moves.duration.data() + row;
  const double* const move_cost = moves.move_cost.data() + row;
  const uint32_t* const effcap_offset = moves.effcap_offset.data() + row;
  const double* const effcap = moves.effcap.data();
  const int32_t* const amin = ws_.amin.data();
  const MemoStamp* const stamp = ws_.stamp.data();
  const MemoStamp generation = ws_.generation;
  const double* const load = call_.load;
  const int32_t n0 = call_.n0;
  const int32_t z = call_.z;
  const size_t stride = static_cast<size_t>(z) + 1;

  double best = kInf;
  int32_t best_b = -1;
  // Every b below b_lo[t] fails the predecessor capacity check below.
  for (int32_t b = ws_.b_lo[static_cast<size_t>(t)]; b <= z; ++b) {
    const int32_t d = duration[b];
    const int32_t start = t - d;
    // A move starting in the past, from an overloaded predecessor, or
    // (Algorithm 2's base rule) from anything but N0 at interval 0
    // costs infinity; skipping it is what SubCost's kInf does.
    if (start < 0 || b < amin[start] || (start == 0 && b != n0)) continue;

    // The predicted load must never exceed the effective capacity of
    // the system at any interval during the move.
    const double* const caps = effcap + effcap_offset[b];
    const double* const during = load + start + 1;
    int32_t i = 0;
    while (i < d && !(during[i] > caps[i])) ++i;
    if (i < d) continue;  // overloaded at interval start + 1 + i

    const size_t prior_cell = static_cast<size_t>(start) * stride +
                              static_cast<size_t>(b);
    const double prior = stamp[prior_cell] == generation
                             ? cost[prior_cell]
                             : FastCost(start, b);
    const double c = prior + move_cost[b];
    if (c < best) {
      best = c;
      best_b = b;
    }
  }

  cost[cell] = best;
  ws_.prev_time[cell] = best_b >= 0 ? t - duration[best_b] : -1;
  ws_.prev_nodes[cell] = best_b;
  return best;
}

Plan DpPlanner::BestMoves(const std::vector<double>& load, int32_t n0) {
  Plan plan;
  if (load.size() < 2 || n0 < 1) return plan;
  const int32_t horizon = static_cast<int32_t>(load.size()) - 1;

  // Z: the most machines ever needed for the predicted load (Line 2 of
  // Algorithm 1), also bounded below by N0 so scale-in plans can start.
  const double peak = *std::max_element(load.begin(), load.end());
  int32_t z = std::max(NodesForLoad(peak), n0);
  if (max_nodes_ > 0) z = std::min(z, max_nodes_);
  if (n0 > z) return plan;  // cannot even represent the current state

  // The memo is shared across the final-machine-count attempts below
  // (the paper's Algorithm 1 re-initializes it per iteration, but
  // cost(t, A) does not depend on the final target, so reuse is sound
  // and saves a factor of Z).
  call_ = Call{load.data(), n0, z, nullptr};
  ws_.BeginCall(static_cast<size_t>(horizon + 1) *
                static_cast<size_t>(z + 1));
  int32_t first_final = 1;
  // The move tables cover up to max_nodes_ >= z machines when the
  // constructor built them; otherwise build them for this call's z.
  std::optional<MoveTables> call_moves;
  if (!exhaustive_) {
    const MoveTables& moves =
        tables_.stride > 0 ? tables_ : call_moves.emplace(model_, z);
    call_.moves = &moves;
    const double* const cap = moves.cap.data();
    ws_.amin.resize(load.size());
    ws_.b_lo.resize(load.size());
    for (size_t t = 0; t < load.size(); ++t) {
      ws_.amin[t] = static_cast<int32_t>(
          std::lower_bound(cap + 1, cap + z + 1, load[t],
                           [](double c, double l) { return c < l; }) -
          cap);
    }
    const int32_t longest = moves.max_duration[static_cast<size_t>(z)];
    for (int32_t t = 1; t <= horizon; ++t) {
      int32_t lo = z + 1;
      for (int32_t s = std::max(0, t - longest); s < t && lo > 1; ++s) {
        lo = std::min(lo, ws_.amin[static_cast<size_t>(s)]);
      }
      ws_.b_lo[static_cast<size_t>(t)] = lo;
    }
    // Final counts below amin[T] are overloaded at the horizon.
    first_final = ws_.amin[static_cast<size_t>(horizon)];
  }

  // Try final machine counts from smallest to largest; the first
  // feasible one is optimal in final-cluster size.
  for (int32_t final_nodes = first_final; final_nodes <= z; ++final_nodes) {
    const double total = exhaustive_ ? Cost(horizon, final_nodes)
                                     : FastCost(horizon, final_nodes);
    if (total == kInf) continue;

    // Backtrack through the memo matrix, last move first; every move
    // spans at least one interval, so the plan never reallocates.
    plan.moves.reserve(static_cast<size_t>(horizon));
    for (int32_t t = horizon, n = final_nodes; t > 0;) {
      const size_t cell = call_.Cell(t, n);
      assert(ws_.stamp[cell] == ws_.generation && ws_.prev_time[cell] >= 0);
      plan.moves.push_back(
          PlannedMove{ws_.prev_time[cell], t, ws_.prev_nodes[cell], n});
      t = ws_.prev_time[cell];
      n = ws_.prev_nodes[cell];
    }
    std::reverse(plan.moves.begin(), plan.moves.end());
    plan.total_cost = total;
    plan.feasible = true;
    break;
  }

  // Infeasible if no final count worked: N0 is too low to scale out in
  // time (Section 4.3.1, Line 13).
  plan.dp_cells_evaluated = ws_.cells;
  return plan;
}

}  // namespace pstore
