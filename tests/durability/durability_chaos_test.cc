#include <gtest/gtest.h>

#include "../test_util.h"

/// Chaos property tests for the durability stack (DESIGN.md §14;
/// scenario row "durability_sweep"): random plans mixing crash/restart
/// with the storage faults (bit rot, torn writes, disk stalls) against a
/// k=1 cluster with the content-modeled store and an active scrubber.
/// Every seed must keep the durability tripwire at zero (no corrupt
/// record is ever replayed into live state), lose no committed rows, and
/// pass every placement / row-set invariant; same-seed runs must replay
/// byte-identically down to the durable store's digest (the store_hash
/// counter).

namespace pstore {
namespace {

using testing_util::ExpectNoViolations;

/// 3 nodes, k=1, mixed Put/Get load, content-modeled store with a
/// 64 kB/s scrubber, and a random plan weighted toward crash/restart
/// plus all three storage faults.
scenario::ScenarioResult RunDurabilityChaos(uint64_t seed) {
  return testing_util::RunRow("durability_sweep", seed);
}

// The 50-seed sweep is sharded 5 seeds per ctest unit so `ctest -j`
// runs shards concurrently (and a failure names a 5-seed range, not a
// 50-seed monolith). The shard parameter is the first seed.
constexpr uint64_t kSeedsPerShard = 5;

class DurabilitySeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DurabilitySeedShard, NoCorruptRecordServedAndNoRowLost) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const scenario::ScenarioResult out = RunDurabilityChaos(seed);
    ExpectNoViolations(seed, out);
    // The tripwire: damaged bits must never reach live state, no
    // matter what the plan did to the disks.
    EXPECT_EQ(out.counter("corrupt_served"), 0) << "seed " << seed;
    // k=1 and at most one node down at a time: every committed row
    // survives every plan.
    EXPECT_EQ(out.counter("rows_lost"), 0) << "seed " << seed;
    EXPECT_GT(out.counter("committed"), 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, DurabilitySeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

TEST(DurabilityChaosTest, SweepExercisesDurabilityMachinery) {
  // Scaled-down aggregate over the first ten seeds: the plans must
  // actually damage disks, validation must detect damage, and the
  // scrubber must find and repair some of it. (Per-seed safety lives
  // in the shards; this guards against a silently inert fault surface.)
  int64_t corruptions = 0, tears = 0, stalls = 0;
  int64_t damaged = 0, detected = 0, scrub_found = 0, scrub_repairs = 0;
  int64_t escalations = 0, recoveries = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const scenario::ScenarioResult out = RunDurabilityChaos(seed);
    corruptions += out.counter("disk_corruptions");
    tears += out.counter("torn_writes");
    stalls += out.counter("disk_stalls");
    damaged += out.counter("records_corrupted") + out.counter("records_torn");
    detected += out.counter("crc_detected") + out.counter("torn_detected");
    scrub_found += out.counter("scrub_found");
    scrub_repairs += out.counter("scrub_repairs");
    escalations += out.counter("escalations");
    recoveries += out.counter("recoveries");
  }
  EXPECT_GT(corruptions, 2);
  EXPECT_GT(tears, 1);
  EXPECT_GT(stalls, 1);
  EXPECT_GT(damaged, 10);
  EXPECT_GT(detected, 10);
  EXPECT_GT(scrub_found, 0);
  EXPECT_GT(scrub_repairs, 0);
  EXPECT_GT(escalations, 0);
  EXPECT_GT(recoveries, 1);
}

}  // namespace
}  // namespace pstore
