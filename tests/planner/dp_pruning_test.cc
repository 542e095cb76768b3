#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "planner/dp_planner.h"

/// \file dp_pruning_test.cc
/// Equivalence suite for the tabled + pruned DP planner: the default
/// (fast) mode must return exactly the plan the textbook recursion
/// returns — same moves, same cost, same feasibility, and even the
/// same number of DP cells evaluated (the prune only skips states the
/// exhaustive recursion rejects before touching the memo).

namespace pstore {
namespace {

MoveModelConfig SmallConfig() {
  MoveModelConfig config;
  config.q = 100.0;
  config.partitions_per_node = 1;
  config.d_minutes = 30.0;
  config.interval_minutes = 5.0;
  return config;
}

void ExpectIdenticalPlans(const Plan& fast, const Plan& reference) {
  EXPECT_EQ(fast.feasible, reference.feasible);
  EXPECT_EQ(fast.total_cost, reference.total_cost);
  EXPECT_EQ(fast.dp_cells_evaluated, reference.dp_cells_evaluated);
  ASSERT_EQ(fast.moves.size(), reference.moves.size());
  for (size_t i = 0; i < fast.moves.size(); ++i) {
    EXPECT_EQ(fast.moves[i], reference.moves[i]) << "move " << i;
  }
}

void ExpectEquivalentOn(const std::vector<double>& load, int32_t n0,
                        int32_t max_nodes) {
  DpPlanner fast(MoveModel(SmallConfig()), max_nodes);
  DpPlanner exhaustive(MoveModel(SmallConfig()), max_nodes);
  exhaustive.set_exhaustive(true);
  ASSERT_FALSE(fast.exhaustive());
  ASSERT_TRUE(exhaustive.exhaustive());
  ExpectIdenticalPlans(fast.BestMoves(load, n0),
                       exhaustive.BestMoves(load, n0));
}

TEST(DpPruningTest, SineLoadsAcrossHorizons) {
  for (const int32_t horizon : {4, 8, 16, 32}) {
    std::vector<double> load(static_cast<size_t>(horizon) + 1);
    for (size_t t = 0; t < load.size(); ++t) {
      load[t] = 250.0 + 180.0 * std::sin(2 * M_PI * static_cast<double>(t) /
                                         static_cast<double>(horizon));
    }
    ExpectEquivalentOn(load, 3, 8);
  }
}

TEST(DpPruningTest, RandomLoadsAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int32_t horizon = 6 + static_cast<int32_t>(rng.NextBounded(10));
    std::vector<double> load(static_cast<size_t>(horizon) + 1);
    // First entry must be coverable by n0 for a feasible instance, but
    // infeasible instances must agree too, so don't force it.
    for (size_t t = 0; t < load.size(); ++t) {
      load[t] = 50.0 + 550.0 * rng.NextDouble();
    }
    const int32_t n0 = 1 + static_cast<int32_t>(rng.NextBounded(6));
    const int32_t max_nodes = 6 + static_cast<int32_t>(rng.NextBounded(4));
    ExpectEquivalentOn(load, n0, max_nodes);
  }
}

TEST(DpPruningTest, SpikeAndCrashShapes) {
  // Sharp spike: forces a scale-out planned ahead of the peak.
  std::vector<double> spike = {100, 100, 100, 600, 600, 100, 100, 100};
  ExpectEquivalentOn(spike, 1, 10);

  // Monotone decay: the planner should ride the scale-in.
  std::vector<double> decay = {800, 700, 550, 400, 300, 200, 120, 90};
  ExpectEquivalentOn(decay, 8, 10);

  // Flat at a capacity boundary: amin sits exactly on the edge.
  std::vector<double> edge(9, 300.0);  // == Capacity(3) with q = 100
  ExpectEquivalentOn(edge, 3, 6);
}

/// One planner instance answers many randomized plans, each checked
/// against a fresh exhaustive planner. With max_nodes > 0 the move
/// tables are built once, for stride max_nodes + 1, and every call with
/// a smaller z must index them correctly; with max_nodes == 0 each call
/// builds its own.
void ExpectReusedPlannerEquivalent(int32_t max_nodes, uint64_t seed) {
  DpPlanner reused(MoveModel(SmallConfig()), max_nodes);
  const int32_t z_cap = max_nodes > 0 ? max_nodes : 12;
  std::vector<bool> z_seen(static_cast<size_t>(z_cap) + 2, false);
  Rng rng(seed);
  for (int call = 0; call < 240; ++call) {
    const int32_t horizon = 1 + static_cast<int32_t>(rng.NextBounded(48));
    // Aim at a machine count in 1..z_cap + 1 (one past the cap covers
    // the max_nodes clamp and infeasible plans), start no higher, and
    // touch that count's capacity once (q = 100).
    const int32_t target = 1 + static_cast<int32_t>(rng.NextBounded(
                                   static_cast<uint64_t>(z_cap) + 1));
    const int32_t n0 = 1 + static_cast<int32_t>(rng.NextBounded(
                               static_cast<uint64_t>(std::min(target, z_cap))));
    const double peak = 100.0 * (target - 0.9 * rng.NextDouble());
    std::vector<double> load(static_cast<size_t>(horizon) + 1);
    for (double& l : load) l = peak * (0.3 + 0.7 * rng.NextDouble());
    load[rng.NextBounded(load.size())] = peak;
    const double load_peak = *std::max_element(load.begin(), load.end());
    int32_t z = std::max(reused.NodesForLoad(load_peak), n0);
    if (max_nodes > 0) z = std::min(z, max_nodes);
    z_seen[static_cast<size_t>(z)] = true;

    DpPlanner exhaustive(MoveModel(SmallConfig()), max_nodes);
    exhaustive.set_exhaustive(true);
    SCOPED_TRACE("call " + std::to_string(call) + ", z " + std::to_string(z));
    ExpectIdenticalPlans(reused.BestMoves(load, n0),
                         exhaustive.BestMoves(load, n0));
  }
  for (int32_t z = 1; z <= z_cap; ++z) {
    EXPECT_TRUE(z_seen[static_cast<size_t>(z)]) << "z " << z << " not drawn";
  }
}

TEST(DpPruningTest, ReusedPlannerWithBuiltTablesMatchesExhaustive) {
  ExpectReusedPlannerEquivalent(/*max_nodes=*/12, /*seed=*/11);
}

TEST(DpPruningTest, ReusedPlannerWithPerCallTablesMatchesExhaustive) {
  ExpectReusedPlannerEquivalent(/*max_nodes=*/0, /*seed=*/12);
}

TEST(DpPruningTest, InfeasibleInstancesAgree) {
  // Load beyond any allowed machine count: both modes must return the
  // same infeasible plan.
  std::vector<double> load = {100, 100, 9999, 100};
  DpPlanner fast(MoveModel(SmallConfig()), 4);
  DpPlanner exhaustive(MoveModel(SmallConfig()), 4);
  exhaustive.set_exhaustive(true);
  const Plan a = fast.BestMoves(load, 1);
  const Plan b = exhaustive.BestMoves(load, 1);
  EXPECT_FALSE(a.feasible);
  ExpectIdenticalPlans(a, b);
}

/// The capacity study's planner (Sec. 8.3): Q = 65% of 438 txn/s,
/// 6 partitions per node, D = 85 min, 5-minute intervals.
MoveModelConfig CapacityPlanConfig() {
  MoveModelConfig config;
  config.q = 0.65 * 438.0;
  config.partitions_per_node = 6;
  config.d_minutes = 85.0;
  config.interval_minutes = 5.0;
  return config;
}

/// One planner shaped like the capacity study's answers a long run of
/// diurnal-ramp plans. Horizons 12, 24 and 48 interleave and the
/// machine count z varies from call to call, so the workspace both
/// grows and serves smaller calls (with other strides) after larger
/// ones; every call must match a fresh exhaustive planner.
TEST(DpPruningTest, ProductionShapedWorkspaceReuse) {
  constexpr int32_t kMaxNodes = 40;
  const MoveModel model(CapacityPlanConfig());
  DpPlanner reused(model, kMaxNodes);
  Rng rng(15);
  int feasible = 0;
  int32_t largest_z = 0;
  for (int call = 0; call < 1200; ++call) {
    const int32_t horizon = std::array<int32_t, 3>{12, 24, 48}[call % 3];
    // Like the study, most plans need a handful of machines; one in ten
    // reaches up to one past the cap.
    const int32_t target =
        call % 10 == 9
            ? 9 + static_cast<int32_t>(rng.NextBounded(kMaxNodes - 7))
            : 1 + static_cast<int32_t>(rng.NextBounded(8));
    const double level =
        model.Capacity(target) * (0.5 + 0.5 * rng.NextDouble());
    const double phase = 2 * M_PI * rng.NextDouble();
    std::vector<double> load(static_cast<size_t>(horizon) + 1);
    for (size_t t = 0; t < load.size(); ++t) {
      const double day = phase + 2 * M_PI * static_cast<double>(t) / 288.0;
      load[t] = level * (0.75 + 0.25 * std::sin(day)) *
                (1 + 0.02 * rng.NextGaussian());
    }
    // Sometimes touch the target's capacity exactly (amin's edge).
    if (rng.NextBounded(4) == 0) {
      load[rng.NextBounded(load.size())] = model.Capacity(target);
    }
    // Start at, below or above what the current load needs: scale-outs,
    // scale-ins, and plans that cannot scale out in time.
    const int32_t needed = reused.NodesForLoad(load[0]);
    const int32_t n0 = std::clamp(
        needed + static_cast<int32_t>(rng.NextBounded(5)) - 2, 1, kMaxNodes);
    const double peak = *std::max_element(load.begin(), load.end());
    largest_z = std::max(largest_z,
                         std::min(std::max(reused.NodesForLoad(peak), n0),
                                  kMaxNodes));

    DpPlanner exhaustive(model, kMaxNodes);
    exhaustive.set_exhaustive(true);
    SCOPED_TRACE("call " + std::to_string(call));
    const Plan plan = reused.BestMoves(load, n0);
    ExpectIdenticalPlans(plan, exhaustive.BestMoves(load, n0));
    feasible += plan.feasible ? 1 : 0;
  }
  // Both outcomes, and the cap, must actually occur.
  EXPECT_GT(feasible, 600);
  EXPECT_LT(feasible, 1200);
  EXPECT_EQ(largest_z, kMaxNodes);
}

/// The memo's generation stamp wraps after
/// numeric_limits<MemoStamp>::max() calls. Plan A stamps its cells in
/// call 1; plan B runs at the last two generations before the wrap;
/// plan C, with A's machine range (so A's memo layout) but a longer
/// horizon and another load, grows the memo in the first call after
/// it, and A runs again in the next. Had the wrap not re-zeroed the
/// stamps, the wrapped generation would read never-stamped cells or
/// A's cells from call 1 as live, and C's plan would differ.
TEST(DpPruningTest, MemoStampWrapAround) {
  constexpr int64_t kPeriod = std::numeric_limits<DpPlanner::MemoStamp>::max();
  const auto sine = [](size_t horizon, double mean, double amplitude) {
    std::vector<double> load(horizon + 1);
    for (size_t t = 0; t < load.size(); ++t) {
      load[t] = mean + amplitude * std::sin(2 * M_PI * static_cast<double>(t) /
                                            static_cast<double>(horizon));
    }
    return load;
  };
  const std::vector<double> plan_a = sine(32, 250, 180);
  const std::vector<double> plan_b = sine(20, 330, 230);
  const std::vector<double> plan_c = sine(48, 240, 190);
  const std::vector<double> tiny = {50, 50};
  const auto reference = [](const std::vector<double>& load, int32_t n0) {
    DpPlanner exhaustive(MoveModel(SmallConfig()), 8);
    exhaustive.set_exhaustive(true);
    return exhaustive.BestMoves(load, n0);
  };
  const Plan ref_a = reference(plan_a, 3);
  const Plan ref_b = reference(plan_b, 4);
  const Plan ref_c = reference(plan_c, 3);
  const Plan ref_tiny = reference(tiny, 1);
  ASSERT_TRUE(ref_a.feasible);
  ASSERT_TRUE(ref_b.feasible);
  ASSERT_TRUE(ref_c.feasible);
  ASSERT_GT(ref_c.dp_cells_evaluated, ref_a.dp_cells_evaluated);

  DpPlanner reused(MoveModel(SmallConfig()), 8);
  for (int64_t call = 1; call <= kPeriod + 2; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    if (call == 1 || call == kPeriod + 2) {
      ExpectIdenticalPlans(reused.BestMoves(plan_a, 3), ref_a);
    } else if (call == kPeriod - 1 || call == kPeriod) {
      ExpectIdenticalPlans(reused.BestMoves(plan_b, 4), ref_b);
    } else if (call == kPeriod + 1) {
      ExpectIdenticalPlans(reused.BestMoves(plan_c, 3), ref_c);
    } else {
      const Plan plan = reused.BestMoves(tiny, 1);
      if (plan.dp_cells_evaluated != ref_tiny.dp_cells_evaluated ||
          plan.total_cost != ref_tiny.total_cost) {
        ADD_FAILURE() << "tiny plan diverged";
        break;
      }
    }
  }
}

}  // namespace
}  // namespace pstore
