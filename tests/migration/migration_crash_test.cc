#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "fault/invariant_checker.h"
#include "migration/migration_executor.h"

/// Crash-during-migration interleavings, pinned deterministically to the
/// middle of a move rather than drawn from a random plan: crash the
/// *destination* node while chunks are in flight toward it, and crash a
/// *source* node mid-drain. In both modes (legacy failover and k-safety
/// promotion) the move must abort or complete cleanly, every bucket must
/// stay owned by a live partition, and no row may silently disappear.

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

struct CrashDuringMoveOutcome {
  bool move_completed = false;
  bool move_aborted = false;
  int64_t violations = 0;
  int64_t rows_lost = 0;
  std::string first_violation;
};

EngineConfig CrashTestConfig(bool replicated) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 2;
  if (replicated) config = WithReplication(config);
  return config;
}

/// Starts a 2 -> 3 scale-out and crashes `victim` once the move is
/// genuinely mid-flight (some chunks landed, more outstanding).
CrashDuringMoveOutcome RunCrashDuringMove(NodeId victim, bool replicated) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry,
                       CrashTestConfig(replicated));
  const int64_t rows = 200;
  for (int64_t k = 0; k < rows; ++k) {
    EXPECT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }

  MigrationOptions options;
  options.chunk_kb = 100;
  options.rate_kbps = 1000;   // Slow enough that the move spans seconds.
  options.wire_kbps = 100000;
  options.db_size_mb = 10;
  MigrationExecutor migrator(&engine, options);

  InvariantChecker checker(&engine, &migrator);
  checker.set_expected_rows(rows);
  checker.StartPeriodic(100 * kMillisecond);

  bool completed = false;
  EXPECT_TRUE(migrator.StartMove(3, [&]() { completed = true; }).ok());

  // Fire the crash mid-chunk: after some data moved, before the move
  // could have finished (10 MB at 1 MB/s per stream spans ~3 s).
  sim.Schedule(kSecond, [&]() {
    if (migrator.InProgress()) (void)engine.CrashNode(victim);
  });

  sim.RunUntil(120 * kSecond);
  checker.Stop();
  Status final_check = checker.Check();
  EXPECT_TRUE(final_check.ok()) << final_check.ToString();

  CrashDuringMoveOutcome out;
  out.move_completed = completed;
  for (const MoveRecord& rec : migrator.history()) {
    if (rec.aborted) out.move_aborted = true;
  }
  out.violations = static_cast<int64_t>(checker.violations().size());
  if (!checker.violations().empty()) {
    out.first_violation = checker.violations()[0].ToString();
  }
  out.rows_lost = engine.rows_lost();
  EXPECT_FALSE(migrator.InProgress());  // Never wedged.
  return out;
}

TEST(MigrationCrashTest, CrashDestinationMidChunkLegacy) {
  const CrashDuringMoveOutcome out =
      RunCrashDuringMove(/*victim=*/2, /*replicated=*/false);
  // The receiver died under the move: it must abort, not complete.
  EXPECT_TRUE(out.move_aborted);
  EXPECT_FALSE(out.move_completed);
  EXPECT_EQ(out.violations, 0) << out.first_violation;
  EXPECT_EQ(out.rows_lost, 0);
}

TEST(MigrationCrashTest, CrashDestinationMidChunkReplicated) {
  const CrashDuringMoveOutcome out =
      RunCrashDuringMove(/*victim=*/2, /*replicated=*/true);
  EXPECT_TRUE(out.move_aborted);
  EXPECT_FALSE(out.move_completed);
  EXPECT_EQ(out.violations, 0) << out.first_violation;
  EXPECT_EQ(out.rows_lost, 0);
}

TEST(MigrationCrashTest, CrashSourceMidDrainLegacy) {
  const CrashDuringMoveOutcome out =
      RunCrashDuringMove(/*victim=*/1, /*replicated=*/false);
  // The sender died: legacy failover teleports its remaining buckets;
  // whether the move aborts or rides through, no state is corrupted.
  EXPECT_TRUE(out.move_aborted || out.move_completed);
  EXPECT_EQ(out.violations, 0) << out.first_violation;
  EXPECT_EQ(out.rows_lost, 0);
}

TEST(MigrationCrashTest, CrashSourceMidDrainReplicated) {
  const CrashDuringMoveOutcome out =
      RunCrashDuringMove(/*victim=*/1, /*replicated=*/true);
  EXPECT_TRUE(out.move_aborted || out.move_completed);
  EXPECT_EQ(out.violations, 0) << out.first_violation;
  // k=1 and a single failure: promotion saves every committed row.
  EXPECT_EQ(out.rows_lost, 0);
}

TEST(MigrationCrashTest, CrashInterleavingsAreDeterministic) {
  for (const bool replicated : {false, true}) {
    for (const NodeId victim : {1, 2}) {
      const CrashDuringMoveOutcome a = RunCrashDuringMove(victim, replicated);
      const CrashDuringMoveOutcome b = RunCrashDuringMove(victim, replicated);
      EXPECT_EQ(a.move_completed, b.move_completed);
      EXPECT_EQ(a.move_aborted, b.move_aborted);
      EXPECT_EQ(a.violations, b.violations);
      EXPECT_EQ(a.rows_lost, b.rows_lost);
    }
  }
}

}  // namespace
}  // namespace pstore
