#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "durability/content_store.h"
#include "durability/durable_store.h"

/// Unit tests for the durable-store pair (DESIGN.md §14): the counting
/// store's fault-free arithmetic, the content store's genuine CRC /
/// length validation, the recovery-plan escalation ladder (normal ->
/// fallback -> rereplicate), the fault surface (bit rot, torn writes),
/// budgeted scrubbing with repair-from-replica, and digest determinism.

namespace pstore {
namespace durability {
namespace {

/// Drives the same node-0 write/checkpoint history into any store.
void ReplayHistory(DurableStore* store) {
  for (int64_t i = 0; i < 10; ++i) store->AppendLog(0, i % 4, i);
  store->TakeCheckpoint(0, 500.0, {{0, 3, 0, 0}, {1, 4, 0, 0}});
  for (int64_t i = 10; i < 17; ++i) store->AppendLog(0, i % 4, i);
}

/// Node-1 history for the two-node tests.
void ReplayNode1History(DurableStore* store) {
  store->AppendLog(1, 0, 99);
  store->TakeCheckpoint(1, 250.0, {{2, 5, 0, 0}});
}

TEST(DurableStoreTest, CountingAndContentAgreeOnFaultFreeTallies) {
  // The replication layer derives recovery cost from log_entries /
  // checkpoint_kb; with no faults the two models must be arithmetically
  // interchangeable (this is what keeps the disabled path identical).
  CountingDurableStore counting(2);
  ContentDurableStore content(2);
  ReplayHistory(&counting);
  ReplayNode1History(&counting);
  ReplayHistory(&content);
  ReplayNode1History(&content);
  for (NodeId n = 0; n < 2; ++n) {
    EXPECT_EQ(counting.log_entries(n), content.log_entries(n)) << n;
    EXPECT_EQ(counting.checkpoint_kb(n), content.checkpoint_kb(n)) << n;
  }
  EXPECT_EQ(counting.checkpoints(), content.checkpoints());
  // Reset drops both models to the rejoin-empty state.
  counting.Reset(0);
  content.Reset(0);
  EXPECT_EQ(counting.log_entries(0), content.log_entries(0));
  EXPECT_EQ(counting.checkpoint_kb(0), content.checkpoint_kb(0));
}

TEST(DurableStoreTest, IntactStatePlansNormalRecovery) {
  ContentDurableStore store(1);
  ReplayHistory(&store);
  const RecoveryPlan plan = store.PlanRecovery(0);
  EXPECT_EQ(plan.mode, RecoveryMode::kNormal);
  EXPECT_EQ(plan.load_kb, 500.0);
  EXPECT_EQ(plan.replay_entries, 7);  // The post-checkpoint appends.
  EXPECT_EQ(plan.crc_failures, 0);
  EXPECT_EQ(plan.torn_segments, 0);
  EXPECT_EQ(store.crc_failures_detected(), 0);
  EXPECT_EQ(store.corrupt_records_served(), 0);
}

TEST(DurableStoreTest, TornCurrentImageFallsBackToPreviousCheckpoint) {
  ContentDurableStore store(1);
  for (int64_t i = 0; i < 6; ++i) store.AppendLog(0, 0, i);
  store.TakeCheckpoint(0, 100.0, {{0, 6, 0, 0}, {1, 2, 0, 0}});
  for (int64_t i = 6; i < 9; ++i) store.AppendLog(0, 0, i);
  store.TakeCheckpoint(0, 120.0, {{0, 9, 0, 0}, {1, 2, 0, 0}});
  for (int64_t i = 9; i < 11; ++i) store.AppendLog(0, 0, i);

  const int64_t torn = store.TearTail(0, 0.5, /*log_side=*/false);
  EXPECT_GT(torn, 0);
  EXPECT_EQ(store.records_torn(), torn);

  const RecoveryPlan plan = store.PlanRecovery(0);
  EXPECT_EQ(plan.mode, RecoveryMode::kFallback);
  EXPECT_EQ(plan.load_kb, 100.0);  // The previous image's size.
  // Fallback replays the longer suffix: everything since the previous
  // checkpoint (3 logged before the latest image + 2 after).
  EXPECT_EQ(plan.replay_entries, 5);
  EXPECT_GE(plan.torn_segments, 1);
  EXPECT_EQ(store.checkpoint_fallbacks(), 1);
  EXPECT_EQ(store.replays_unrecoverable(), 0);
  EXPECT_EQ(store.corrupt_records_served(), 0);
}

TEST(DurableStoreTest, TornLogLeavesNothingTrustworthyToReplay) {
  ContentDurableStore store(1);
  for (int64_t i = 0; i < 6; ++i) store.AppendLog(0, 0, i);
  store.TakeCheckpoint(0, 100.0, {{0, 6, 0, 0}});
  for (int64_t i = 6; i < 12; ++i) store.AppendLog(0, 0, i);
  EXPECT_GT(store.TearTail(0, 0.3, /*log_side=*/true), 0);
  // A torn log invalidates both the normal and the fallback replay (the
  // missing suffix could hold commits either path needs).
  const RecoveryPlan plan = store.PlanRecovery(0);
  EXPECT_EQ(plan.mode, RecoveryMode::kRereplicate);
  EXPECT_EQ(store.replays_unrecoverable(), 1);
}

TEST(DurableStoreTest, CorruptEverythingEscalatesToRereplicate) {
  ContentDurableStore store(1);
  ReplayHistory(&store);
  Rng rng(7);
  const int64_t hit = store.CorruptRecords(0, &rng, 1.0);
  EXPECT_GT(hit, 0);
  EXPECT_EQ(store.records_corrupted(), hit);
  const RecoveryPlan plan = store.PlanRecovery(0);
  EXPECT_EQ(plan.mode, RecoveryMode::kRereplicate);
  EXPECT_GT(plan.crc_failures, 0);
  EXPECT_EQ(store.replays_unrecoverable(), 1);
  EXPECT_EQ(store.corrupt_records_served(), 0);
}

TEST(DurableStoreTest, RepeatedBitRotNeverCancelsItselfOut) {
  ContentDurableStore store(1);
  ReplayHistory(&store);
  Rng rng(7);
  const int64_t first = store.CorruptRecords(0, &rng, 1.0);
  EXPECT_EQ(first, store.durable_records(0));
  EXPECT_EQ(store.damaged_records(0), first);
  // A second pass skips already-damaged records: XORing the rot mask
  // twice would silently restore valid payloads.
  EXPECT_EQ(store.CorruptRecords(0, &rng, 1.0), 0);
  EXPECT_EQ(store.damaged_records(0), first);
}

TEST(DurableStoreTest, TearTailClampsAndReportsCounts) {
  ContentDurableStore store(1);
  for (int64_t i = 0; i < 10; ++i) store.AppendLog(0, 0, i);
  EXPECT_EQ(store.TearTail(0, 0.0, true), 0);    // No tear requested.
  EXPECT_EQ(store.TearTail(0, 1.0, false), 0);   // No checkpoint yet.
  EXPECT_EQ(store.TearTail(0, 1.0, true), 10);   // Full log gone...
  EXPECT_EQ(store.TearTail(0, 1.0, true), 0);    // ...nothing left.
  EXPECT_EQ(store.records_torn(), 10);
}

TEST(DurableStoreTest, ScrubFindsAndRepairsBitRotFromReplica) {
  ContentDurableStore store(2);
  ReplayHistory(&store);
  Rng rng(21);
  const int64_t hit = store.CorruptRecords(0, &rng, 0.5);
  ASSERT_GT(hit, 0);
  const ScrubResult result =
      store.ScrubStep(/*budget_records=*/1000, /*can_repair=*/true);
  EXPECT_GE(result.verified, store.durable_records(0));
  EXPECT_EQ(result.found, hit);
  EXPECT_EQ(result.repaired, hit);
  EXPECT_EQ(store.damaged_records(0), 0);
  EXPECT_EQ(store.scrub_repairs(), hit);
  // Repaired state recovers normally — the damage never reached replay.
  EXPECT_EQ(store.PlanRecovery(0).mode, RecoveryMode::kNormal);
  EXPECT_EQ(store.corrupt_records_served(), 0);
}

TEST(DurableStoreTest, ScrubWithoutReplicaDetectsButCannotRepair) {
  ContentDurableStore store(1);
  ReplayHistory(&store);
  Rng rng(21);
  const int64_t hit = store.CorruptRecords(0, &rng, 0.5);
  ASSERT_GT(hit, 0);
  // Budget for exactly one pass: without repair the damage would be
  // re-found every subsequent pass.
  const ScrubResult result =
      store.ScrubStep(store.durable_records(0), /*can_repair=*/false);
  EXPECT_EQ(result.verified, store.durable_records(0));
  EXPECT_EQ(result.found, hit);
  EXPECT_EQ(result.repaired, 0);
  EXPECT_EQ(store.damaged_records(0), hit);  // Damage stays latent.
  EXPECT_EQ(store.scrub_repairs(), 0);
}

TEST(DurableStoreTest, ScrubResealsTornSegmentsAtEndOfPass) {
  ContentDurableStore store(1);
  for (int64_t i = 0; i < 8; ++i) store.AppendLog(0, 0, i);
  ASSERT_GT(store.TearTail(0, 0.25, /*log_side=*/true), 0);
  const ScrubResult result = store.ScrubStep(1000, /*can_repair=*/true);
  EXPECT_GE(result.found, 1);
  EXPECT_GE(result.repaired, 1);
  EXPECT_EQ(store.torn_segments_detected(), 1);
  // The resealed log validates again.
  EXPECT_EQ(store.PlanRecovery(0).mode, RecoveryMode::kNormal);
}

TEST(DurableStoreTest, ScrubHonorsBudgetAndSkipList) {
  ContentDurableStore store(2);
  ReplayHistory(&store);
  ReplayNode1History(&store);
  // A 3-record budget verifies exactly 3 records.
  EXPECT_EQ(store.ScrubStep(3, true).verified, 3);
  // Skipping every node verifies nothing and terminates.
  const ScrubResult skipped =
      store.ScrubStep(1000, true, [](NodeId) { return true; });
  EXPECT_EQ(skipped.verified, 0);
  // Skipping node 0 only still lets node 1's records verify (budget
  // sized to one pass over node 1).
  const ScrubResult partial = store.ScrubStep(
      store.durable_records(1), true, [](NodeId n) { return n == 0; });
  EXPECT_EQ(partial.verified, store.durable_records(1));
}

TEST(DurableStoreTest, StateHashIsDeterministicAndDamageSensitive) {
  ContentDurableStore a(2), b(2);
  ReplayHistory(&a);
  ReplayHistory(&b);
  EXPECT_EQ(a.StateHash(), b.StateHash());
  // Same damage, same Rng stream -> same digest.
  Rng ra(5), rb(5);
  ASSERT_GT(a.CorruptRecords(0, &ra, 0.5), 0);
  ASSERT_GT(b.CorruptRecords(0, &rb, 0.5), 0);
  EXPECT_EQ(a.StateHash(), b.StateHash());
  // Diverging damage -> different digest.
  ASSERT_GT(a.TearTail(0, 0.5, true), 0);
  EXPECT_NE(a.StateHash(), b.StateHash());
}

TEST(DurableStoreTest, StallWindowAppliesStrictlyBeforeItsEnd) {
  ContentDurableStore store(1);
  EXPECT_EQ(store.stall_factor(0), 1.0);
  store.OpenStall(4.0, 10 * kSecond);
  EXPECT_EQ(store.stall_factor(0), 4.0);
  EXPECT_EQ(store.stall_factor(10 * kSecond - 1), 4.0);
  EXPECT_EQ(store.stall_factor(10 * kSecond), 1.0);
  // A new window replaces the open one.
  store.OpenStall(2.0, 20 * kSecond);
  EXPECT_EQ(store.stall_factor(15 * kSecond), 2.0);
}

}  // namespace
}  // namespace durability
}  // namespace pstore
