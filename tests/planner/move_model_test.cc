#include "planner/move_model.h"

#include <cmath>

#include <gtest/gtest.h>

namespace pstore {
namespace {

MoveModelConfig UnitConfig(int32_t partitions = 1) {
  // D = 1 "minute" and one partition per node makes Equation 3 read off
  // directly in units of D, matching Figure 4's axes.
  MoveModelConfig config;
  config.q = 100.0;
  config.partitions_per_node = partitions;
  config.d_minutes = 1.0;
  config.interval_minutes = 0.01;
  return config;
}

TEST(MoveModelConfigTest, ValidationCatchesBadValues) {
  MoveModelConfig c;
  EXPECT_TRUE(c.Validate().ok());
  c.q = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = MoveModelConfig{};
  c.partitions_per_node = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = MoveModelConfig{};
  c.d_minutes = -1;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = MoveModelConfig{};
  c.interval_minutes = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST(MoveModelTest, MaxParallelismEquation2) {
  MoveModel m(UnitConfig(1));
  EXPECT_EQ(m.MaxParallelism(3, 3), 0);
  // Scale out: P * min(B, A - B).
  EXPECT_EQ(m.MaxParallelism(3, 5), 2);    // min(3, 2)
  EXPECT_EQ(m.MaxParallelism(3, 9), 3);    // min(3, 6)
  EXPECT_EQ(m.MaxParallelism(3, 14), 3);   // min(3, 11)
  // Scale in: P * min(A, B - A).
  EXPECT_EQ(m.MaxParallelism(5, 3), 2);
  EXPECT_EQ(m.MaxParallelism(14, 3), 3);

  MoveModel m6(UnitConfig(6));
  EXPECT_EQ(m6.MaxParallelism(3, 14), 18);
}

TEST(MoveModelTest, FractionMoved) {
  MoveModel m(UnitConfig());
  EXPECT_DOUBLE_EQ(m.FractionMoved(3, 3), 0.0);
  EXPECT_DOUBLE_EQ(m.FractionMoved(3, 14), 1.0 - 3.0 / 14.0);
  EXPECT_DOUBLE_EQ(m.FractionMoved(14, 3), 1.0 - 3.0 / 14.0);
  EXPECT_DOUBLE_EQ(m.FractionMoved(1, 2), 0.5);
}

TEST(MoveModelTest, MoveTimeEquation3) {
  MoveModel m(UnitConfig(1));
  // 3 -> 5: D / 2 * (1 - 3/5) = 0.2 D.
  EXPECT_NEAR(m.MoveTimeMinutes(3, 5), 0.2, 1e-12);
  // 3 -> 9: D / 3 * (1 - 1/3) = 2/9 D.
  EXPECT_NEAR(m.MoveTimeMinutes(3, 9), 2.0 / 9.0, 1e-12);
  // 3 -> 14: D / 3 * (11/14) = 11/42 D.
  EXPECT_NEAR(m.MoveTimeMinutes(3, 14), 11.0 / 42.0, 1e-12);
  // Scale-in is symmetric.
  EXPECT_NEAR(m.MoveTimeMinutes(14, 3), 11.0 / 42.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.MoveTimeMinutes(4, 4), 0.0);
}

TEST(MoveModelTest, MoveTimeScalesWithPartitions) {
  MoveModel m1(UnitConfig(1));
  MoveModel m6(UnitConfig(6));
  EXPECT_NEAR(m6.MoveTimeMinutes(3, 14) * 6.0, m1.MoveTimeMinutes(3, 14),
              1e-12);
}

TEST(MoveModelTest, PaperScaleMoveDurations) {
  // Section 8.1: D = 77 minutes, P = 6 -> "most reconfigurations last
  // between 2 and 7 minutes".
  MoveModelConfig config;
  config.q = 285;
  config.partitions_per_node = 6;
  config.d_minutes = 77;
  config.interval_minutes = 5;
  MoveModel m(config);
  for (int32_t b = 1; b < 10; ++b) {
    const double t = m.MoveTimeMinutes(b, b + 1);
    EXPECT_GT(t, 0.5);
    EXPECT_LT(t, 8.0);
  }
  EXPECT_LT(m.MoveTimeMinutes(3, 14), 4.0);
}

TEST(MoveModelTest, MoveTimeIntervalsRoundsUp) {
  MoveModelConfig config = UnitConfig(1);
  config.interval_minutes = 0.15;
  MoveModel m(config);
  // 0.2 D / 0.15 = 1.33 -> 2 intervals.
  EXPECT_EQ(m.MoveTimeIntervals(3, 5), 2);
  EXPECT_EQ(m.MoveTimeIntervals(3, 3), 0);
}

TEST(MoveModelTest, MoveTimeIntervalsAtLeastOne) {
  MoveModelConfig config = UnitConfig(1);
  config.interval_minutes = 100.0;  // huge intervals
  MoveModel m(config);
  EXPECT_EQ(m.MoveTimeIntervals(1, 2), 1);
}

TEST(MoveModelTest, AvgMachinesCase1AllAtOnce) {
  MoveModel m(UnitConfig());
  // 3 -> 5 (delta 2 <= s 3): all 5 allocated throughout.
  EXPECT_DOUBLE_EQ(m.AvgMachinesAllocated(3, 5), 5.0);
  EXPECT_DOUBLE_EQ(m.AvgMachinesAllocated(5, 3), 5.0);
  EXPECT_DOUBLE_EQ(m.AvgMachinesAllocated(4, 4), 4.0);
}

TEST(MoveModelTest, AvgMachinesCase2PerfectMultiple) {
  MoveModel m(UnitConfig());
  // 3 -> 9 (delta 6 = 2 * 3): (2s + l) / 2 = (6 + 9)/2 = 7.5.
  EXPECT_DOUBLE_EQ(m.AvgMachinesAllocated(3, 9), 7.5);
  EXPECT_DOUBLE_EQ(m.AvgMachinesAllocated(9, 3), 7.5);
}

TEST(MoveModelTest, AvgMachinesCase3ThreePhases) {
  MoveModel m(UnitConfig());
  // 3 -> 14: delta 11, r 2, f 3. From Algorithm 4:
  // phase1 = 2 * (3/11) * 7.5 = 45/11
  // phase2 = (2/11) * 12      = 24/11
  // phase3 = (3/11) * 14      = 42/11  -> total 111/11.
  EXPECT_NEAR(m.AvgMachinesAllocated(3, 14), 111.0 / 11.0, 1e-12);
  EXPECT_NEAR(m.AvgMachinesAllocated(14, 3), 111.0 / 11.0, 1e-12);
}

TEST(MoveModelTest, AvgMachinesBounds) {
  MoveModel m(UnitConfig());
  for (int32_t b = 1; b <= 12; ++b) {
    for (int32_t a = 1; a <= 12; ++a) {
      const double avg = m.AvgMachinesAllocated(b, a);
      EXPECT_GE(avg, std::max(b, a) == std::min(b, a)
                         ? std::min(b, a)
                         : std::min(b, a) + 0.0)
          << b << "->" << a;
      EXPECT_LE(avg, std::max(b, a)) << b << "->" << a;
      // Symmetry (the paper's "allocation symmetric" note).
      EXPECT_DOUBLE_EQ(avg, m.AvgMachinesAllocated(a, b));
    }
  }
}

TEST(MoveModelTest, MoveCostEquation4) {
  MoveModelConfig config = UnitConfig(1);
  config.interval_minutes = 1.0 / 42.0;  // one interval per round, 3->14
  MoveModel m(config);
  const int32_t t = m.MoveTimeIntervals(3, 14);
  EXPECT_EQ(t, 11);
  EXPECT_NEAR(m.MoveCost(3, 14), 11.0 * 111.0 / 11.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.MoveCost(5, 5), 0.0);
}

TEST(MoveModelTest, CapacityEquation5) {
  MoveModel m(UnitConfig());
  EXPECT_DOUBLE_EQ(m.Capacity(1), 100.0);
  EXPECT_DOUBLE_EQ(m.Capacity(7), 700.0);
}

TEST(MoveModelTest, EffectiveCapacityEndpointsScaleOut) {
  MoveModel m(UnitConfig());
  // f = 0: capacity of B machines. f = 1: capacity of A machines.
  EXPECT_DOUBLE_EQ(m.EffectiveCapacity(3, 14, 0.0), m.Capacity(3));
  EXPECT_NEAR(m.EffectiveCapacity(3, 14, 1.0), m.Capacity(14), 1e-9);
}

TEST(MoveModelTest, EffectiveCapacityEndpointsScaleIn) {
  MoveModel m(UnitConfig());
  EXPECT_DOUBLE_EQ(m.EffectiveCapacity(14, 3, 0.0), m.Capacity(14));
  EXPECT_NEAR(m.EffectiveCapacity(14, 3, 1.0), m.Capacity(3), 1e-9);
}

TEST(MoveModelTest, EffectiveCapacityMidpointFormula) {
  MoveModel m(UnitConfig());
  // Equation 7, B < A, f = 0.5: 1/(1/B - 0.5*(1/B - 1/A)).
  const double f_n = 1.0 / 3.0 - 0.5 * (1.0 / 3.0 - 1.0 / 14.0);
  EXPECT_NEAR(m.EffectiveCapacity(3, 14, 0.5), 100.0 / f_n, 1e-9);
}

TEST(MoveModelTest, EffectiveCapacityMonotoneInProgress) {
  MoveModel m(UnitConfig());
  // Scale-out capacity grows with f; scale-in shrinks.
  double prev_out = 0, prev_in = 1e18;
  for (double f = 0; f <= 1.0; f += 0.05) {
    const double out = m.EffectiveCapacity(2, 10, f);
    const double in = m.EffectiveCapacity(10, 2, f);
    EXPECT_GE(out, prev_out - 1e-9);
    EXPECT_LE(in, prev_in + 1e-9);
    prev_out = out;
    prev_in = in;
  }
}

TEST(MoveModelTest, EffectiveCapacityBelowAllocatedDuringBigMoves) {
  // Figure 4c's message: during 3 -> 14, effective capacity is far below
  // the allocated machine count for most of the move.
  MoveModel m(UnitConfig());
  const double halfway = m.EffectiveCapacity(3, 14, 0.5);
  EXPECT_LT(halfway, m.Capacity(6));  // nominal allocation is already >= 9
}

TEST(MoveModelTest, EffectiveCapacityClampsProgress) {
  MoveModel m(UnitConfig());
  EXPECT_DOUBLE_EQ(m.EffectiveCapacity(3, 6, -0.5),
                   m.EffectiveCapacity(3, 6, 0.0));
  EXPECT_DOUBLE_EQ(m.EffectiveCapacity(3, 6, 1.5),
                   m.EffectiveCapacity(3, 6, 1.0));
}

// Figure 4 reproduction at the model level: effective capacity in
// machine-equivalents at f = 1 equals the target size for all cases.
class Figure4SweepTest
    : public ::testing::TestWithParam<std::tuple<int32_t, int32_t>> {};

TEST_P(Figure4SweepTest, CapacityInterpolatesBetweenEndpoints) {
  const auto [b, a] = GetParam();
  MoveModel m(UnitConfig());
  for (double f = 0; f <= 1.0; f += 0.1) {
    const double cap = m.EffectiveCapacity(b, a, f);
    EXPECT_GE(cap, std::min(m.Capacity(b), m.Capacity(a)) - 1e-9);
    EXPECT_LE(cap, std::max(m.Capacity(b), m.Capacity(a)) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Moves, Figure4SweepTest,
    ::testing::Values(std::make_tuple(3, 5), std::make_tuple(3, 9),
                      std::make_tuple(3, 14), std::make_tuple(5, 3),
                      std::make_tuple(9, 3), std::make_tuple(14, 3),
                      std::make_tuple(1, 2), std::make_tuple(2, 1),
                      std::make_tuple(7, 8), std::make_tuple(10, 40)));

}  // namespace
}  // namespace pstore
