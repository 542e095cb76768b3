#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "durability/content_store.h"
#include "fault/invariant_checker.h"
#include "obs/telemetry.h"

/// Engine-level durability tests (DESIGN.md §14): the disabled path is
/// schedule-identical to the historical engine, fault-free enablement
/// changes no observable behaviour, and the three recovery escalations
/// (normal / fallback / re-replicate) plus the background scrubber and
/// the disk-stall hook behave as specified — all with zero committed
/// rows lost and the corrupt_records_served tripwire at zero.

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

EngineConfig DurabilityConfig(bool enabled, double scrub_rate_kbps) {
  EngineConfig config = WithReplication(SmallEngineConfig());
  config.initial_nodes = 3;
  config.replication.checkpoint_period = 5 * kSecond;
  config.replication.durability.enabled = enabled;
  config.replication.durability.scrub_rate_kbps = scrub_rate_kbps;
  return config;
}

/// Everything observable from one scripted crash/restart run.
struct RunOutcome {
  uint64_t events_fp = 0;
  int64_t committed = 0;
  int64_t events_executed = 0;
  SimDuration recovery_time = 0;
  int64_t rows_lost = 0;
  int64_t total_rows = 0;
};

/// Fault-free scripted scenario: load, steady writes, crash node 2 at
/// 3s, restart it at 8s, run to 20s. Deterministic for a fixed config.
RunOutcome RunCrashRestartScenario(const EngineConfig& config) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  obs::TelemetryBundle telemetry;
  engine.set_telemetry(telemetry.view());
  for (int64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  RunOutcome out;
  for (int64_t i = 0; i < 36; ++i) {
    sim.ScheduleAt(kSecond / 2 + i * kSecond / 2, [&engine, &db, &out, i]() {
      TxnRequest put;
      put.proc = db.put;
      put.key = (i * 7) % 200;
      put.args.push_back(Value(i));
      engine.Submit(std::move(put), [&out](const TxnResult& r) {
        if (r.status.ok()) ++out.committed;
      });
    });
  }
  sim.ScheduleAt(3 * kSecond,
                 [&engine]() { ASSERT_TRUE(engine.CrashNode(2).ok()); });
  sim.ScheduleAt(8 * kSecond,
                 [&engine]() { ASSERT_TRUE(engine.RestartNode(2).ok()); });
  sim.RunUntil(20 * kSecond);
  out.events_fp = telemetry.events.Fingerprint();
  out.events_executed = sim.events_executed();
  out.recovery_time = engine.total_recovery_time();
  out.rows_lost = engine.rows_lost();
  out.total_rows = engine.TotalRowCount();
  return out;
}

TEST(DurabilityEngineTest, DisabledKnobsAreCompletelyInert) {
  // durability.* settings must change nothing while enabled=false —
  // the opt-in contract says pre-existing configs with stray knobs set
  // still replay byte-identically.
  const RunOutcome base = RunCrashRestartScenario(
      DurabilityConfig(/*enabled=*/false, /*scrub_rate_kbps=*/0.0));
  EngineConfig stray = DurabilityConfig(false, 64.0);
  const RunOutcome knobs = RunCrashRestartScenario(stray);
  EXPECT_EQ(base.events_fp, knobs.events_fp);
  EXPECT_EQ(base.committed, knobs.committed);
  EXPECT_EQ(base.events_executed, knobs.events_executed);
  EXPECT_EQ(base.recovery_time, knobs.recovery_time);
  EXPECT_EQ(base.rows_lost, 0);
  EXPECT_GT(base.recovery_time, 0);
  EXPECT_GT(base.committed, 0);
}

TEST(DurabilityEngineTest, FaultFreeEnablementMatchesDisabledSchedule) {
  // With no storage faults the content store's arithmetic (checkpoint
  // kB, replay entries, recovery plan) matches the counting store's
  // exactly, so the whole observable schedule is unchanged. Without a
  // scrub rate no extra simulator events exist either.
  const RunOutcome off = RunCrashRestartScenario(DurabilityConfig(false, 0.0));
  const RunOutcome on = RunCrashRestartScenario(DurabilityConfig(true, 0.0));
  EXPECT_EQ(off.events_fp, on.events_fp);
  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.events_executed, on.events_executed);
  EXPECT_EQ(off.recovery_time, on.recovery_time);
  EXPECT_EQ(off.total_rows, on.total_rows);

  // A running scrubber adds its tick events to the simulator but finds
  // no damage, so everything the user can see stays identical.
  const RunOutcome scrubbed =
      RunCrashRestartScenario(DurabilityConfig(true, 64.0));
  EXPECT_EQ(off.events_fp, scrubbed.events_fp);
  EXPECT_EQ(off.committed, scrubbed.committed);
  EXPECT_EQ(off.recovery_time, scrubbed.recovery_time);
  EXPECT_EQ(off.total_rows, scrubbed.total_rows);
  EXPECT_GT(scrubbed.events_executed, off.events_executed);
}

bool EventsContain(const obs::EventStream& events, const std::string& what) {
  for (const std::string& line : events.lines()) {
    if (line.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(DurabilityEngineTest, TornCheckpointDegradesToFallbackReplay) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry,
                       DurabilityConfig(true, 0.0));
  obs::TelemetryBundle telemetry;
  engine.set_telemetry(telemetry.view());
  const int64_t rows = 300;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  // Two checkpoint periods so node 2 has a previous image to fall back
  // on, then crash it and tear its latest checkpoint's tail.
  sim.RunUntil(11 * kSecond);
  ASSERT_TRUE(engine.CrashNode(2).ok());
  durability::ContentDurableStore* store = engine.replication()->content();
  ASSERT_NE(store, nullptr);
  ASSERT_GT(store->TearTail(2, 0.5, /*log_side=*/false), 0);
  ASSERT_TRUE(engine.RestartNode(2).ok());
  sim.RunUntil(30 * kSecond);

  EXPECT_EQ(engine.recoveries(), 1);
  EXPECT_EQ(store->checkpoint_fallbacks(), 1);
  EXPECT_EQ(store->replays_unrecoverable(), 0);
  EXPECT_TRUE(EventsContain(telemetry.events,
                            "fallback replay from previous image"));
  EXPECT_EQ(engine.rows_lost(), 0);
  EXPECT_EQ(engine.TotalRowCount(), rows);
  EXPECT_EQ(store->corrupt_records_served(), 0);
  InvariantChecker checker(&engine, nullptr);
  checker.set_expected_rows(rows);
  EXPECT_TRUE(checker.Check().ok());
}

TEST(DurabilityEngineTest, UnrecoverableDiskRereplicatesOverTheWire) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry,
                       DurabilityConfig(true, 0.0));
  obs::TelemetryBundle telemetry;
  engine.set_telemetry(telemetry.view());
  const int64_t rows = 300;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  sim.RunUntil(11 * kSecond);
  ASSERT_TRUE(engine.CrashNode(2).ok());
  durability::ContentDurableStore* store = engine.replication()->content();
  ASSERT_NE(store, nullptr);
  // Rot every record on the dead disk: both images and the log fail
  // validation, so nothing local is trustworthy.
  Rng rot(0xd15c);
  ASSERT_GT(store->CorruptRecords(2, &rot, 1.0), 0);
  ASSERT_TRUE(engine.RestartNode(2).ok());
  sim.RunUntil(30 * kSecond);

  EXPECT_EQ(engine.recoveries(), 1);
  EXPECT_EQ(store->replays_unrecoverable(), 1);
  EXPECT_TRUE(
      EventsContain(telemetry.events, "re-replicating over the wire"));
  // Promotion already restored availability; nothing committed is gone.
  EXPECT_EQ(engine.rows_lost(), 0);
  EXPECT_EQ(engine.TotalRowCount(), rows);
  EXPECT_EQ(store->corrupt_records_served(), 0);
  InvariantChecker checker(&engine, nullptr);
  checker.set_expected_rows(rows);
  EXPECT_TRUE(checker.Check().ok());
}

TEST(DurabilityEngineTest, ScrubberRepairsLiveDamageFromReplicas) {
  auto db = MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry,
                       DurabilityConfig(true, 64.0));
  obs::TelemetryBundle telemetry;
  engine.set_telemetry(telemetry.view());
  const int64_t rows = 300;
  for (int64_t k = 0; k < rows; ++k) {
    ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  sim.RunUntil(11 * kSecond);
  durability::ContentDurableStore* store = engine.replication()->content();
  ASSERT_NE(store, nullptr);
  // Bit-rot on a node that stays up: restart replay never sees it, so
  // only the scrubber can find and repair it (all peers live => the
  // replica copy is available).
  Rng rot(0x5eed);
  const int64_t hit = store->CorruptRecords(1, &rot, 0.5);
  ASSERT_GT(hit, 0);
  EXPECT_EQ(store->damaged_records(1), hit);
  sim.RunUntil(60 * kSecond);

  EXPECT_EQ(store->damaged_records(1), 0);
  EXPECT_EQ(store->scrub_repairs(), hit);
  EXPECT_GT(store->scrub_records_verified(), 0);
  EXPECT_TRUE(EventsContain(telemetry.events, "scrub:"));
  // Damage was latent on disk, never served: the tripwire holds and no
  // recovery was ever needed.
  EXPECT_EQ(store->corrupt_records_served(), 0);
  EXPECT_EQ(engine.recoveries(), 0);
  EXPECT_EQ(engine.rows_lost(), 0);
}

TEST(DurabilityEngineTest, DiskStallWindowMultipliesReplayTime) {
  // Recovery time with no stall (pass 0), with a 4x stall window still
  // open at the restart (pass 1), and with one that closes exactly at
  // the restart (pass 2: a window applies strictly before its end).
  SimDuration times[3] = {0, 0, 0};
  for (int pass = 0; pass < 3; ++pass) {
    auto db = MakeKvDatabase();
    Simulator sim;
    ClusterEngine engine(&sim, db.catalog, db.registry,
                         DurabilityConfig(true, 0.0));
    for (int64_t k = 0; k < 300; ++k) {
      ASSERT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
    }
    sim.RunUntil(11 * kSecond);
    if (pass > 0) {
      engine.replication()->content()->OpenStall(
          4.0, sim.Now() + (pass == 1 ? 1 : 0));
    }
    ASSERT_TRUE(engine.CrashNode(2).ok());
    ASSERT_TRUE(engine.RestartNode(2).ok());
    sim.RunUntil(60 * kSecond);
    ASSERT_EQ(engine.recoveries(), 1);
    times[pass] = engine.total_recovery_time();
  }
  EXPECT_GT(times[0], 0);
  // An open stall window multiplies checkpoint load + log replay 4x.
  EXPECT_GE(times[1], 3 * times[0]);
  EXPECT_LE(times[1], 5 * times[0]);
  EXPECT_EQ(times[2], times[0]);
}

}  // namespace
}  // namespace pstore
