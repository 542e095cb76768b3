#include "planner/dp_planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pstore {
namespace {

MoveModelConfig SmallConfig() {
  // Q = 100 txn/interval-unit; moves between small clusters take 1-3
  // intervals, so plans must think ahead.
  MoveModelConfig config;
  config.q = 100.0;
  config.partitions_per_node = 1;
  config.d_minutes = 30.0;
  config.interval_minutes = 5.0;
  return config;
}

/// Independently validates a plan against the load and the move model:
/// contiguity, correct endpoints, and capacity/effective-capacity
/// feasibility at every interval. Returns the recomputed total cost.
double ValidatePlan(const Plan& plan, const std::vector<double>& load,
                    const MoveModel& model, int32_t n0) {
  EXPECT_TRUE(plan.feasible);
  EXPECT_FALSE(plan.moves.empty());
  const int32_t horizon = static_cast<int32_t>(load.size()) - 1;
  EXPECT_EQ(plan.moves.front().start_interval, 0);
  EXPECT_EQ(plan.moves.front().from_nodes, n0);
  EXPECT_EQ(plan.moves.back().end_interval, horizon);

  double cost = n0;  // base case: N0 machines for the first interval
  EXPECT_LE(load[0], model.Capacity(n0));

  int32_t prev_end = 0;
  int32_t prev_nodes = n0;
  for (const auto& mv : plan.moves) {
    EXPECT_EQ(mv.start_interval, prev_end);
    EXPECT_EQ(mv.from_nodes, prev_nodes);
    const int32_t dur = mv.end_interval - mv.start_interval;
    if (mv.IsNoop()) {
      EXPECT_EQ(dur, 1);
      EXPECT_LE(load[static_cast<size_t>(mv.end_interval)],
                model.Capacity(mv.to_nodes));
      cost += mv.from_nodes;
    } else {
      EXPECT_EQ(dur, model.MoveTimeIntervals(mv.from_nodes, mv.to_nodes));
      for (int32_t i = 1; i <= dur; ++i) {
        const double f = static_cast<double>(i) / dur;
        EXPECT_LE(
            load[static_cast<size_t>(mv.start_interval + i)],
            model.EffectiveCapacity(mv.from_nodes, mv.to_nodes, f) + 1e-9)
            << "interval " << mv.start_interval + i;
      }
      cost += model.MoveCost(mv.from_nodes, mv.to_nodes);
    }
    prev_end = mv.end_interval;
    prev_nodes = mv.to_nodes;
  }
  EXPECT_NEAR(cost, plan.total_cost, 1e-6);
  return cost;
}

/// Brute-force reference: forward search over all move sequences.
double BruteForceCost(const std::vector<double>& load, int32_t n0,
                      int32_t z, const MoveModel& model,
                      int32_t required_final = -1) {
  const int32_t horizon = static_cast<int32_t>(load.size()) - 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::map<std::pair<int32_t, int32_t>, double> memo;

  std::function<double(int32_t, int32_t)> rest = [&](int32_t t,
                                                     int32_t n) -> double {
    if (t == horizon) {
      if (required_final >= 0 && n != required_final) return kInf;
      return 0.0;
    }
    auto key = std::make_pair(t, n);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    double best = kInf;
    // Hold one interval.
    if (load[static_cast<size_t>(t + 1)] <= model.Capacity(n)) {
      best = std::min(best, n + rest(t + 1, n));
    }
    // Real moves.
    for (int32_t a = 1; a <= z; ++a) {
      if (a == n) continue;
      const int32_t dur = model.MoveTimeIntervals(n, a);
      if (t + dur > horizon) continue;
      bool ok = true;
      for (int32_t i = 1; i <= dur; ++i) {
        const double f = static_cast<double>(i) / dur;
        if (load[static_cast<size_t>(t + i)] >
            model.EffectiveCapacity(n, a, f)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      best = std::min(best, model.MoveCost(n, a) + rest(t + dur, a));
    }
    memo[key] = best;
    return best;
  };

  if (load[0] > model.Capacity(n0)) return kInf;
  const double tail = rest(0, n0);
  return tail == kInf ? kInf : n0 + tail;
}

TEST(DpPlannerTest, NodesForLoad) {
  DpPlanner planner((MoveModel(SmallConfig())));
  EXPECT_EQ(planner.NodesForLoad(0), 1);
  EXPECT_EQ(planner.NodesForLoad(50), 1);
  EXPECT_EQ(planner.NodesForLoad(100), 1);
  EXPECT_EQ(planner.NodesForLoad(101), 2);
  EXPECT_EQ(planner.NodesForLoad(950), 10);
  // Always the smallest n whose capacity covers the load.
  const MoveModel& model = planner.model();
  for (double load = 0.5; load < 2000; load += 7.3) {
    const int32_t n = planner.NodesForLoad(load);
    EXPECT_GE(model.Capacity(n), load) << load;
    if (n > 1) {
      EXPECT_LT(model.Capacity(n - 1), load) << load;
    }
  }
}

TEST(DpPlannerTest, FlatLoadHoldsAtMinimum) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  std::vector<double> load(10, 80.0);  // fits on one node
  Plan plan = planner.BestMoves(load, 1);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.final_nodes(), 1);
  EXPECT_EQ(plan.FirstRealMove(), nullptr);
  // Base (1) + 9 hold intervals (1 each).
  EXPECT_NEAR(plan.total_cost, 10.0, 1e-9);
  ValidatePlan(plan, load, model, 1);
}

TEST(DpPlannerTest, RisingLoadScalesOutInTime) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  // Load fits 1 node until interval 6, then needs 2.
  std::vector<double> load(12, 80.0);
  for (size_t t = 6; t < load.size(); ++t) load[t] = 180.0;
  Plan plan = planner.BestMoves(load, 1);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.final_nodes(), 2);
  const PlannedMove* mv = plan.FirstRealMove();
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->from_nodes, 1);
  EXPECT_EQ(mv->to_nodes, 2);
  // The move must complete by interval 6 (load exceeds eff-cap before
  // the transfer finishes otherwise).
  EXPECT_LE(mv->end_interval, 6);
  ValidatePlan(plan, load, model, 1);
}

TEST(DpPlannerTest, ScaleOutDelayedAsLateAsPossible) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  std::vector<double> load(20, 80.0);
  for (size_t t = 15; t < load.size(); ++t) load[t] = 180.0;
  Plan plan = planner.BestMoves(load, 1);
  ASSERT_TRUE(plan.feasible);
  const PlannedMove* mv = plan.FirstRealMove();
  ASSERT_NE(mv, nullptr);
  // Minimizing cost delays the scale-out: it should not start at 0.
  EXPECT_GT(mv->start_interval, 5);
  ValidatePlan(plan, load, model, 1);
}

TEST(DpPlannerTest, FallingLoadScalesIn) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  std::vector<double> load(12, 250.0);
  for (size_t t = 3; t < load.size(); ++t) load[t] = 60.0;
  Plan plan = planner.BestMoves(load, 3);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.final_nodes(), 1);
  ValidatePlan(plan, load, model, 3);
}

TEST(DpPlannerTest, InfeasibleWhenSpikeArrivesTooSoon) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  // From 1 node, a 9x jump at the very next interval cannot be absorbed:
  // any move is still in flight with eff-cap barely above cap(1).
  std::vector<double> load = {80.0, 900.0, 900.0, 900.0};
  Plan plan = planner.BestMoves(load, 1);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.moves.empty());
}

TEST(DpPlannerTest, OverloadedNowIsInfeasible) {
  DpPlanner planner((MoveModel(SmallConfig())));
  std::vector<double> load = {500.0, 500.0};
  EXPECT_FALSE(planner.BestMoves(load, 1).feasible);
}

TEST(DpPlannerTest, MaxNodesCapsPlans) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model, /*max_nodes=*/2);
  std::vector<double> load(10, 80.0);
  for (size_t t = 5; t < load.size(); ++t) load[t] = 500.0;  // needs 5
  EXPECT_FALSE(planner.BestMoves(load, 1).feasible);
}

TEST(DpPlannerTest, BadInputsYieldInfeasible) {
  DpPlanner planner((MoveModel(SmallConfig())));
  EXPECT_FALSE(planner.BestMoves({}, 1).feasible);
  EXPECT_FALSE(planner.BestMoves({10.0}, 1).feasible);
  EXPECT_FALSE(planner.BestMoves({10.0, 10.0}, 0).feasible);
}

TEST(DpPlannerTest, MatchesBruteForceOnStep) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  std::vector<double> load = {80, 80, 80, 150, 260, 260, 170, 90, 90, 90};
  Plan plan = planner.BestMoves(load, 1);
  ASSERT_TRUE(plan.feasible);
  ValidatePlan(plan, load, model, 1);
  const int32_t z = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(
             *std::max_element(load.begin(), load.end()) / 100.0)));
  const double brute = BruteForceCost(load, 1, z, model,
                                      plan.final_nodes());
  EXPECT_NEAR(plan.total_cost, brute, 1e-6);
}

TEST(DpPlannerTest, FinalNodesIsMinimalFeasible) {
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  // The rise to 250 arrives at interval 4, leaving just enough time for
  // the four-interval 1 -> 3 move to land.
  std::vector<double> load = {80, 80, 80, 80, 250, 250, 120, 120, 120};
  Plan plan = planner.BestMoves(load, 1);
  ASSERT_TRUE(plan.feasible);
  // No feasible plan can end with fewer machines.
  for (int32_t fewer = 1; fewer < plan.final_nodes(); ++fewer) {
    EXPECT_EQ(BruteForceCost(load, 1, 3, model, fewer),
              std::numeric_limits<double>::infinity());
  }
}

// Property sweep: on random diurnal-ish loads, plans validate and match
// the brute-force optimum for their final machine count.
class DpPlannerRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DpPlannerRandomTest, OptimalAndValid) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  MoveModel model(SmallConfig());
  DpPlanner planner(model);
  const int32_t horizon = 10;
  std::vector<double> load(static_cast<size_t>(horizon) + 1);
  const double base = 60 + rng.NextDouble() * 60;
  const double amp = rng.NextDouble() * 250;
  const double phase = rng.NextDouble() * 6.28;
  for (size_t t = 0; t < load.size(); ++t) {
    load[t] = std::max(
        10.0, base + amp * (0.5 + 0.5 * std::sin(phase + 0.5 * t)) +
                  rng.NextGaussian() * 10);
  }
  const int32_t n0 =
      std::max<int32_t>(1, static_cast<int32_t>(std::ceil(load[0] / 100.0)));

  // Match the planner's internal machine bound Z so the reference
  // search explores exactly the same action space.
  const int32_t z = std::max<int32_t>(
      n0, static_cast<int32_t>(std::ceil(
              *std::max_element(load.begin(), load.end()) / 100.0)));
  Plan plan = planner.BestMoves(load, n0);
  if (!plan.feasible) {
    // Brute force must agree that nothing works.
    EXPECT_EQ(BruteForceCost(load, n0, z, model),
              std::numeric_limits<double>::infinity());
    return;
  }
  ValidatePlan(plan, load, model, n0);
  const double brute =
      BruteForceCost(load, n0, z, model, plan.final_nodes());
  EXPECT_NEAR(plan.total_cost, brute, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpPlannerRandomTest,
                         ::testing::Range(0, 25));

TEST(PlannedMoveTest, ToStringFormats) {
  PlannedMove hold{0, 1, 2, 2};
  EXPECT_NE(hold.ToString().find("hold"), std::string::npos);
  PlannedMove move{2, 5, 2, 4};
  EXPECT_NE(move.ToString().find("2 -> 4"), std::string::npos);
}

TEST(PlanTest, ToStringHandlesInfeasible) {
  Plan p;
  EXPECT_NE(p.ToString().find("infeasible"), std::string::npos);
}

}  // namespace
}  // namespace pstore
