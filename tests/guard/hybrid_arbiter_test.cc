#include "guard/hybrid_arbiter.h"

#include "gtest/gtest.h"

namespace pstore {
namespace guard {
namespace {

ArbiterInputs Diverged(int32_t active, int32_t needed, int32_t floor,
                       int32_t max) {
  ArbiterInputs in;
  in.state = GuardState::kDiverged;
  in.active_nodes = active;
  in.needed_nodes = needed;
  in.min_floor = floor;
  in.max_nodes = max;
  return in;
}

TEST(HybridArbiterTest, ActionNamesAreDistinct) {
  EXPECT_STREQ(ArbiterActionName(ArbiterAction::kAllowPredictive),
               "allow-predictive");
  EXPECT_STREQ(ArbiterActionName(ArbiterAction::kReactiveControl),
               "reactive-control");
  EXPECT_STREQ(ArbiterActionName(ArbiterAction::kRepairInFlight),
               "repair-in-flight");
}

TEST(HybridArbiterTest, HealthyAndSuspectAllowPredictive) {
  HybridArbiter arbiter;
  ArbiterInputs in;
  in.state = GuardState::kHealthy;
  EXPECT_EQ(arbiter.Decide(in).action, ArbiterAction::kAllowPredictive);
  // Suspect is hysteresis, not a ruling: prediction keeps control
  // until the divergence is confirmed.
  in.state = GuardState::kSuspect;
  EXPECT_EQ(arbiter.Decide(in).action, ArbiterAction::kAllowPredictive);
}

TEST(HybridArbiterTest, DivergedTracksMeasuredNeed) {
  HybridArbiter arbiter;
  const ArbiterRuling ruling = arbiter.Decide(Diverged(3, 6, 1, 8));
  EXPECT_EQ(ruling.action, ArbiterAction::kReactiveControl);
  EXPECT_EQ(ruling.reactive_target, 6);
}

TEST(HybridArbiterTest, DivergenceNeverShrinksTheCluster) {
  HybridArbiter arbiter;
  // Measured need below the current size: while diverged the arbiter
  // holds capacity — the measurements condemning the forecast are not
  // trusted enough to release machines either.
  const ArbiterRuling ruling = arbiter.Decide(Diverged(5, 2, 1, 8));
  EXPECT_EQ(ruling.action, ArbiterAction::kReactiveControl);
  EXPECT_EQ(ruling.reactive_target, 5);
}

TEST(HybridArbiterTest, ReactiveTargetRespectsFloorAndCeiling) {
  HybridArbiter arbiter;
  // k-aware floor binds even when need and active sit below it.
  EXPECT_EQ(arbiter.Decide(Diverged(2, 1, 3, 8)).reactive_target, 3);
  // max_nodes caps a need the cluster cannot provision.
  EXPECT_EQ(arbiter.Decide(Diverged(3, 20, 1, 8)).reactive_target, 8);
}

TEST(HybridArbiterTest, UndersizedInFlightMoveIsRepaired) {
  HybridArbiter arbiter;
  ArbiterInputs in = Diverged(3, 6, 1, 8);
  in.move_in_flight = true;
  in.move_target = 2;  // A stale-forecast scale-in, now exactly wrong.
  const ArbiterRuling ruling = arbiter.Decide(in);
  EXPECT_EQ(ruling.action, ArbiterAction::kRepairInFlight);
  EXPECT_EQ(ruling.reactive_target, 6);
}

TEST(HybridArbiterTest, AdequateInFlightMoveIsLeftAlone) {
  HybridArbiter arbiter;
  ArbiterInputs in = Diverged(3, 6, 1, 8);
  in.move_in_flight = true;
  in.move_target = 7;  // Already heading past the reactive target.
  const ArbiterRuling ruling = arbiter.Decide(in);
  EXPECT_EQ(ruling.action, ArbiterAction::kReactiveControl);
  EXPECT_EQ(ruling.reactive_target, 6);
}

TEST(HybridArbiterTest, InFlightMoveIgnoredWhileHealthy) {
  HybridArbiter arbiter;
  ArbiterInputs in;
  in.state = GuardState::kHealthy;
  in.move_in_flight = true;
  in.move_target = 2;
  EXPECT_EQ(arbiter.Decide(in).action, ArbiterAction::kAllowPredictive);
}

}  // namespace
}  // namespace guard
}  // namespace pstore
