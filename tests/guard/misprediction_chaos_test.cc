#include <gtest/gtest.h>

#include "../test_util.h"

/// \file misprediction_chaos_test.cc
/// 50-seed misprediction chaos sweep (DESIGN.md §16; scenario row
/// "guard_sweep"), sharded five seeds per ctest unit. Each seed drives a
/// SPAR-fed PredictiveController with the forecast-divergence guard
/// enabled through a random control-plane fault mix — flash crowds the
/// forecast cannot see, trace dropouts that starve the controller of
/// fresh telemetry, plus crashes, restarts and migration faults — with
/// the InvariantChecker auditing every virtual second. The hard lines:
/// zero invariant violations (so no bucket is ever stranded or
/// double-owned by an aborted plan), plan-repair bookkeeping that
/// reconciles exactly, and guard counters that obey their own algebra.

namespace pstore {
namespace {

constexpr uint64_t kSeedsPerShard = 5;

class MispredictionSeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MispredictionSeedShard, GuardedControlSurvivesMispredictionChaos) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const scenario::ScenarioResult out =
        testing_util::RunRow("guard_sweep", seed);
    const auto c = [&out](const char* name) { return out.counter(name); };
    // The hard line: every audit clean — ownership single and live,
    // no orphan rows, and the plan-repair section's proof that no
    // bucket was stranded or double-owned by an aborted plan.
    testing_util::ExpectNoViolations(seed, out);
    EXPECT_GT(c("checks"), 0) << "seed " << seed;
    EXPECT_GT(c("committed"), 0) << "seed " << seed;
    // Repair bookkeeping reconciles: the controller's repairs are the
    // only source of truncation, and truncations abort.
    EXPECT_EQ(c("plan_repairs"), c("moves_truncated")) << "seed " << seed;
    EXPECT_LE(c("moves_truncated"), c("moves_aborted")) << "seed " << seed;
    // Guard algebra: rejoins never outnumber divergences, and each
    // divergence vetoes at least the window that confirmed it.
    EXPECT_LE(c("guard_rejoins"), c("divergences")) << "seed " << seed;
    EXPECT_GE(c("guard_vetoes"), c("divergences")) << "seed " << seed;
    // With no flash crowd drawn, the forecast matches the offered load
    // and the guard must never fire (dropouts alone feed it stale but
    // *accurate* samples of the steady base).
    if (c("flash_crowds") == 0 && c("crashes") == 0) {
      EXPECT_EQ(c("divergences"), 0) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, MispredictionSeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

}  // namespace
}  // namespace pstore
