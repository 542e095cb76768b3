#include "planner/receding_horizon.h"

#include <vector>

#include <gtest/gtest.h>

namespace pstore {
namespace {

using Action = RecedingHorizonStep::Action;

RecedingHorizonStep SmallStep(int32_t max_nodes, double inflation) {
  // Q = 100 per machine; moves between small clusters take a few
  // 5-minute intervals. Scale-ins need 3 confirming cycles.
  MoveModelConfig config;
  config.q = 100.0;
  config.partitions_per_node = 1;
  config.d_minutes = 30.0;
  config.interval_minutes = 5.0;
  return RecedingHorizonStep(MoveModel(config), max_nodes, inflation, 3);
}

TEST(RecedingHorizonStepTest, ScaleOutWaitsForItsPlannedStart) {
  // 150 txn/s now (2 machines suffice), 350 from interval 10 on: the
  // plan's 2 -> 4 move is due to start some intervals from now.
  std::vector<double> load(40, 150.0);
  for (size_t t = 10; t < load.size(); ++t) load[t] = 350.0;
  RecedingHorizonStep step = SmallStep(8, 0.0);
  // Cycle c sees interval c's rate and forecasts the 12 after it, so
  // the horizon recedes by one interval per cycle.
  auto cycle = [&](size_t c) {
    return step.Step(load[c], {load.begin() + c + 1, load.begin() + c + 13},
                     2, {});
  };

  const RecedingHorizonStep::Decision first = cycle(0);
  ASSERT_TRUE(first.plan->feasible);
  const PlannedMove* move = first.plan->FirstRealMove();
  ASSERT_NE(move, nullptr);
  EXPECT_EQ(move->to_nodes, 4);
  const auto k = static_cast<size_t>(move->start_interval);
  ASSERT_GT(k, 0u);
  EXPECT_EQ(first.action, Action::kHold);
  EXPECT_EQ(first.target, 2);
  // The size holds until the planned start arrives, then the move
  // starts.
  for (size_t c = 1; c < k; ++c) {
    const RecedingHorizonStep::Decision d = cycle(c);
    EXPECT_EQ(d.action, Action::kHold) << "cycle " << c;
    EXPECT_EQ(d.target, 2) << "cycle " << c;
  }
  const RecedingHorizonStep::Decision due = cycle(k);
  EXPECT_EQ(due.action, Action::kMove);
  EXPECT_EQ(due.target, 4);
  EXPECT_EQ(due.plan->FirstRealMove()->start_interval, 0);
  EXPECT_EQ(step.infeasible_cycles(), 0);
}

TEST(RecedingHorizonStepTest, VetoRestartsScaleInConfirmation) {
  // 4 machines for a load one machine carries: every cycle plans a
  // scale-in starting now.
  RecedingHorizonStep step = SmallStep(8, 0.0);
  auto cycle = [&](std::string_view veto) {
    return step.Step(80.0, std::vector<double>(12, 80.0), 4, veto);
  };

  EXPECT_EQ(cycle({}).action, Action::kHold);  // streak 1
  // The veto defers the scale-in before it counts, and the streak
  // restarts from zero.
  const RecedingHorizonStep::Decision vetoed = cycle("breaker open");
  EXPECT_EQ(vetoed.action, Action::kDeferred);
  EXPECT_EQ(vetoed.target, 4);
  EXPECT_EQ(cycle({}).action, Action::kHold);  // streak 1
  EXPECT_EQ(cycle({}).action, Action::kHold);  // streak 2
  const RecedingHorizonStep::Decision confirmed = cycle({});
  EXPECT_EQ(confirmed.action, Action::kMove);
  EXPECT_LT(confirmed.target, 4);
}

TEST(RecedingHorizonStepTest, InfeasibleFallbackSizesForPeakUnderCap) {
  // One machine cannot carry 500 txn/s now: no plan is feasible, and
  // the fallback's 5 machines are clamped to the planner's cap of 4.
  RecedingHorizonStep step = SmallStep(4, 0.15);
  const RecedingHorizonStep::Decision d =
      step.Step(500.0, std::vector<double>(6, 400.0), 1, {});
  EXPECT_FALSE(d.plan->feasible);
  EXPECT_EQ(d.action, Action::kFallback);
  EXPECT_EQ(d.target, 4);
  EXPECT_DOUBLE_EQ(d.peak, 500.0);
  EXPECT_EQ(step.infeasible_cycles(), 1);
  step.Reset();
  EXPECT_EQ(step.infeasible_cycles(), 0);
}

}  // namespace
}  // namespace pstore
