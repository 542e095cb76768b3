#include "scenario/scenario.h"

/// The scenario table. The first seven rows are chaos_run's scenarios
/// (their summaries are what `chaos_run --list-scenarios` prints); the
/// last seven are the per-subsystem 50-seed sweeps under tests/*/.

namespace pstore {
namespace scenario {
namespace {

using FT = FaultType;

/// 64 buckets, two partitions per node, at most 8 nodes, deterministic
/// service times.
EngineConfig Cluster(int32_t nodes, double service_us) {
  EngineConfig config;
  config.num_buckets = 64;
  config.partitions_per_node = 2;
  config.max_nodes = 8;
  config.initial_nodes = nodes;
  config.txn_service_us_mean = service_us;
  config.txn_service_cv = 0.0;
  return config;
}

/// Bounded queues, deadline + priority shedding and per-node breakers.
EngineConfig WithOverload(EngineConfig config) {
  config.overload.enabled = true;
  config.overload.max_queue_depth = 16;
  config.overload.queue_deadline = 200 * kMillisecond;
  config.overload.breaker.shed_threshold = 0.2;
  config.overload.breaker.min_samples = 20;
  config.overload.breaker.cooldown = 3 * kSecond;
  return config;
}

/// k=1 backups, synchronous apply, chunked re-replication, and
/// checkpoint + command-log replay on restart.
EngineConfig WithReplication(EngineConfig config) {
  config.replication.enabled = true;
  config.replication.k = 1;
  config.replication.db_size_mb = 10.0;
  config.replication.rebuild_chunk_kb = 100.0;
  config.replication.rebuild_rate_kbps = 10000.0;
  config.replication.wire_kbps = 100000.0;
  config.replication.checkpoint_period = 5 * kSecond;
  return config;
}

/// The simulated message substrate with the default timer chain: 250 ms
/// heartbeats, 1 s suspicion, 2 s lease, 4 s failover — a partition
/// longer than 4 s fences the isolated node and fails its buckets over.
EngineConfig WithNet(EngineConfig config) {
  config.net.enabled = true;
  return config;
}

/// Content-modeled durable records plus a scrubber fast enough to sweep
/// every node's checkpoint + log a few times in a run.
EngineConfig WithDurability(EngineConfig config) {
  config.replication.durability.enabled = true;
  config.replication.durability.scrub_rate_kbps = 64.0;
  return config;
}

/// Failure domains striped across the node index (n % 3), node 0
/// on-demand, every other node spot-revocable.
EngineConfig WithTopology(EngineConfig config) {
  config.topology.enabled = true;
  config.topology.num_domains = 3;
  return config;
}

MigrationOptions Streams(double rate_kbps = 10000, double wire_kbps = 100000) {
  return {.chunk_kb = 100,
          .rate_kbps = rate_kbps,
          .wire_kbps = wire_kbps,
          .db_size_mb = 10};
}

ReactiveConfig Reactive(double headroom) {
  ReactiveConfig reactive;
  reactive.q = 100.0;
  reactive.q_hat = 125.0;
  reactive.high_watermark = 0.9;
  reactive.headroom = headroom;
  reactive.monitor_period = kSecond;
  reactive.scale_in_hold = 5 * kSecond;
  return reactive;
}

std::vector<Scenario> BuildTable() {
  std::vector<Scenario> t;
  // ---- chaos_run -----------------------------------------------------
  // A small cluster serving a steady read load under reactive control
  // while a seeded plan crashes nodes, stalls migration streams, fails
  // chunks and corrupts forecasts.
  t.push_back({
      .name = "plain",
      .summary = "seeded random fault mix: crashes, restarts, migration "
                 "stalls, chunk failures, misforecast windows",
      .procs = KvProcs::kGetPut,
      .rows = 500,
      .engine = Cluster(3, 1000.0),
      .migration = Streams(),
      .controller = ControllerKind::kReactive,
      .reactive = Reactive(0.10),
      .chaos = {.horizon = 90 * kSecond,
                .num_events = 10,
                .max_window = 15 * kSecond,
                .max_stall = 2 * kSecond},
      .run_seconds = 120,
      .drain_seconds = 30,
  });
  // Service slowed so 3 nodes saturate at ~300 txn/s: 2x-8x load
  // spikes on the 100 txn/s base really overload it. kLoadSpike sits in
  // a trailing bucket, so its weight changes which faults are drawn,
  // never how many draws the plan Rng makes.
  Scenario spike = t[0];
  spike.name = "spike";
  spike.summary = "overload: load-spike windows against bounded queues, "
                  "shedding, breakers and a client retry budget";
  spike.engine = WithOverload(Cluster(3, 20000.0));
  spike.chaos.load_spike_weight = 1.0;
  spike.workload = WorkloadKind::kLoadScaleRetry;
  spike.rate = 100;
  t.push_back(spike);

  // The scripted scenarios: one in four requests writes, and a 2 s
  // scale-out races the first fault, so the plan's assertions hold for
  // every seed.
  Scenario scripted = t[0];
  scripted.engine = WithReplication(Cluster(3, 1000.0));
  scripted.workload = WorkloadKind::kFixedScheduleWriteMix;
  scripted.move_at = 2 * kSecond;
  scripted.move_nodes = 5;

  Scenario recovery = scripted;
  recovery.name = "recovery";
  recovery.summary = "replication: scripted crash/lag/restart/crash with "
                     "promotion failover and re-replication";
  recovery.script = {
      // Races the scale-out's chunk streams.
      {.at = 3 * kSecond, .type = FT::kNodeCrash,
       .scope = CrashScope::kPrimaryHeavy},
      // Overlaps re-replication of the crash.
      {.at = 6 * kSecond, .type = FT::kReplicaLag,
       .duration = 10 * kSecond, .stall = 2 * kMillisecond},
      // Checkpoint + log replay, then rejoin.
      {.at = 20 * kSecond, .type = FT::kNodeRestart},
      // k already restored: still zero loss.
      {.at = 40 * kSecond, .type = FT::kNodeCrash,
       .scope = CrashScope::kBackupHeavy},
      {.at = 55 * kSecond, .type = FT::kNodeRestart},
  };
  // The crash promoted (not teleported), every committed row survived,
  // the restarted node replayed exactly twice, and re-replication
  // restored full k before the end.
  recovery.accept = {{"promotions", Op::kGt, 0},
                     {"rebuilds", Op::kGt, 0},
                     {"backup_applies", Op::kGt, 0},
                     {"replica_lags", Op::kEq, 1},
                     {"recoveries", Op::kEq, 2},
                     {"rows_lost", Op::kEq, 0},
                     {"degraded_at_end", Op::kEq, 0}};
  t.push_back(recovery);

  Scenario partition = scripted;
  partition.name = "partition";
  partition.summary = "network: scripted partitions, loss/duplication and "
                      "delay windows over the message substrate";
  partition.engine = WithNet(partition.engine);
  partition.script = {
      // Outlives the failover timeout: fences + fails over.
      {.at = 3 * kSecond, .type = FT::kNetPartition,
       .duration = 8 * kSecond},
      // Over re-replication + retransmit traffic.
      {.at = 15 * kSecond, .type = FT::kNetLoss, .duration = 10 * kSecond,
       .probability = 0.2, .dup_probability = 0.1},
      {.at = 30 * kSecond, .type = FT::kNetDelay, .duration = 10 * kSecond,
       .stall = 5 * kMillisecond},
      // Second fence/heal cycle on a full-k map.
      {.at = 45 * kSecond, .type = FT::kNetPartition,
       .duration = 6 * kSecond},
  };
  // Both fence/heal cycles opened, suspicion and a fenced failover
  // fired, retransmission carried the move through the fault windows,
  // and the safety tripwires stayed at zero.
  partition.accept = {{"net_partitions", Op::kEq, 2},
                      {"suspicions", Op::kGt, 0},
                      {"fenced_failovers", Op::kGt, 0},
                      {"msgs_dropped", Op::kGt, 0},
                      {"net_retransmits", Op::kGt, 0},
                      {"fenced_commits", Op::kEq, 0},
                      {"net_double_applies", Op::kEq, 0},
                      {"rows_lost", Op::kEq, 0},
                      {"degraded_at_end", Op::kEq, 0}};
  t.push_back(partition);

  Scenario corruption = scripted;
  corruption.name = "corruption";
  corruption.summary = "durability: scripted bit rot, torn writes and disk "
                       "stalls against the content-modeled store";
  corruption.engine = WithDurability(corruption.engine);
  corruption.script = {
      {.at = 3 * kSecond, .type = FT::kNodeCrash,
       .scope = CrashScope::kPrimaryHeavy},
      // Auto-targets the crashed node's disk, then tears its tail.
      {.at = 5 * kSecond, .type = FT::kDiskCorruption, .probability = 0.3},
      {.at = 6 * kSecond, .type = FT::kTornWrite, .probability = 0.3},
      // Must detect the damage and degrade.
      {.at = 20 * kSecond, .type = FT::kNodeRestart},
      // Everything is up: hits a LIVE disk only the scrubber can repair.
      {.at = 30 * kSecond, .type = FT::kDiskCorruption, .probability = 0.3},
      // Stretches the 40 s crash's restart replay and throttles scrub.
      {.at = 38 * kSecond, .type = FT::kDiskStall, .duration = 20 * kSecond,
       .load_scale = 4.0},
      {.at = 40 * kSecond, .type = FT::kNodeCrash,
       .scope = CrashScope::kBackupHeavy},
      {.at = 55 * kSecond, .type = FT::kNodeRestart},
  };
  // All three disk faults fired, the damaged restart detected and
  // degraded, the scrubber found and repaired the live rot, and the
  // hard lines held.
  corruption.accept = {{"disk_corruptions", Op::kEq, 2},
                       {"torn_writes", Op::kEq, 1},
                       {"disk_stalls", Op::kEq, 1},
                       {"records_corrupted", Op::kGt, 0},
                       {"crc_detected", Op::kGt, 0},
                       {"torn_detected", Op::kGt, 0},
                       {"escalations", Op::kGt, 0},
                       {"scrub_found", Op::kGt, 0},
                       {"scrub_repairs", Op::kGt, 0},
                       {"corrupt_served", Op::kEq, 0},
                       {"recoveries", Op::kEq, 2},
                       {"rows_lost", Op::kEq, 0},
                       {"degraded_at_end", Op::kEq, 0}};
  t.push_back(corruption);

  Scenario revocation = scripted;
  revocation.name = "revocation";
  revocation.summary = "topology: scripted spot-revocation notices "
                       "(graceful drain + deadline evacuation) and a domain "
                       "outage";
  revocation.engine = WithTopology(revocation.engine);
  revocation.script = {
      // Generous notice after the scale-out settles: evacuates all.
      {.at = 8 * kSecond, .type = FT::kSpotRevocation,
       .duration = 20 * kSecond},
      {.at = 35 * kSecond, .type = FT::kNodeRestart},
      // Correlated crash of a whole domain.
      {.at = 45 * kSecond, .type = FT::kDomainOutage},
      {.at = 60 * kSecond, .type = FT::kNodeRestart},
      {.at = 62 * kSecond, .type = FT::kNodeRestart},
      // Notice shorter than one bucket's transfer: every bucket misses
      // the deadline and promotes.
      {.at = 80 * kSecond, .type = FT::kSpotRevocation,
       .duration = 10 * kMillisecond},
  };
  revocation.accept = {{"spot_revocations", Op::kEq, 2},
                       {"domain_outages", Op::kEq, 1},
                       {"drains_started", Op::kEq, 2},
                       {"drain_kills", Op::kEq, 2},
                       {"buckets_evacuated", Op::kGt, 0},
                       {"evac_deadline_skipped", Op::kGt, 0},
                       {"promotions", Op::kGt, 0},
                       {"infeasible_outages", Op::kEq, 0},
                       {"drain_kills_infeasible", Op::kEq, 0},
                       {"rows_lost", Op::kEq, 0},
                       {"degraded_at_end", Op::kEq, 0}};
  t.push_back(revocation);

  // A trace dropout opens WITH an unforecast 3x crowd, so a scale-in
  // planned from the stale forecast launches into the surge (streams
  // slowed to ~11 s for 3 -> 2); the guard must detect the divergence
  // once telemetry returns, veto prediction, truncate the move and
  // re-plan reactively, then rejoin after the crowd passes.
  Scenario flashcrowd = t[0];
  flashcrowd.name = "flashcrowd";
  flashcrowd.summary = "guard: scripted unforecast flash crowd under a "
                       "telemetry dropout, with divergence handoff and plan "
                       "repair";
  flashcrowd.migration = Streams(300);
  flashcrowd.controller = ControllerKind::kPredictiveGuard;
  flashcrowd.script = {
      {.at = 30 * kSecond, .type = FT::kTraceDropout,
       .duration = 10 * kSecond},
      // 3x of 230 txn/s needs 8 nodes at Q=100.
      {.at = 30 * kSecond, .type = FT::kFlashCrowd, .duration = 32 * kSecond,
       .load_scale = 3.0},
  };
  flashcrowd.workload = WorkloadKind::kOfferedLoad;
  flashcrowd.rate = 230;
  flashcrowd.move_at = 38 * kSecond;
  flashcrowd.move_nodes = 2;
  flashcrowd.accept = {{"flash_crowds", Op::kEq, 1},
                       {"trace_dropouts", Op::kEq, 1},
                       {"divergences", Op::kGe, 1},
                       {"guard_rejoins", Op::kGe, 1},
                       {"guard_vetoes", Op::kGt, 0},
                       {"plan_repairs", Op::kEq, 1},
                       {"moves_truncated", Op::kEq, 1}};
  t.push_back(flashcrowd);

  // ---- 50-seed sweeps --------------------------------------------------
  t.push_back({
      .name = "fault_sweep",
      .summary = "sweep (ctest -L fault): random crash/restart/stall/chunk/"
                 "misforecast plans under reactive control, read-only load",
      .engine = Cluster(3, 1000.0),
      .migration = Streams(),
      .controller = ControllerKind::kReactive,
      .reactive = Reactive(0.10),
      .chaos = {.horizon = 60 * kSecond,
                .num_events = 8,
                .max_window = 10 * kSecond,
                .max_stall = 2 * kSecond},
      .run_seconds = 80,
      .drain_seconds = 30,
  });
  t.push_back({
      .name = "overload_sweep",
      .summary = "sweep (ctest -L overload): crashes and load spikes against "
                 "shedding, breakers and a client retry budget",
      .engine = WithOverload(Cluster(3, 20000.0)),
      .migration = Streams(),
      .controller = ControllerKind::kReactive,
      .reactive = Reactive(0.10),
      .chaos = {.horizon = 40 * kSecond,
                .num_events = 6,
                .crash_weight = 2.0,
                .restart_weight = 1.0,
                .stall_weight = 0.5,
                .chunk_failure_weight = 0.5,
                .misforecast_weight = 0.5,
                .load_spike_weight = 3.0,
                .max_window = 10 * kSecond,
                .max_stall = 2 * kSecond},
      .workload = WorkloadKind::kLoadScaleRetry,
      .rate = 100,
      .drain_seconds = 30,
  });
  t.push_back({
      .name = "replication_sweep",
      .summary = "sweep (ctest -L replication): crash/restart/replica-lag "
                 "plans with alternating crash scopes against k=1",
      .engine = WithReplication(Cluster(3, 5000.0)),
      .migration = Streams(),
      .controller = ControllerKind::kReactive,
      .reactive = Reactive(0.0),
      .chaos = {.horizon = 40 * kSecond,
                .num_events = 6,
                .crash_weight = 2.0,
                .restart_weight = 2.0,
                .stall_weight = 0.5,
                .chunk_failure_weight = 0.5,
                .misforecast_weight = 0.0,
                .load_spike_weight = 0.5,
                .replica_lag_weight = 2.0,
                .max_window = 10 * kSecond,
                .max_stall = 20 * kMillisecond},
      .alternate_crash_scope = true,
      .workload = WorkloadKind::kWriteMixStream,
  });
  t.push_back({
      .name = "durability_sweep",
      .summary = "sweep (ctest -L durability): crash/restart plus bit rot, "
                 "torn writes and disk stalls under an active scrubber",
      .engine = WithDurability(WithReplication(Cluster(3, 5000.0))),
      .migration = Streams(),
      .chaos = {.horizon = 40 * kSecond,
                .num_events = 8,
                .crash_weight = 2.0,
                .restart_weight = 2.0,
                .stall_weight = 0.0,
                .chunk_failure_weight = 0.0,
                .misforecast_weight = 0.0,
                .disk_corruption_weight = 2.0,
                .torn_write_weight = 1.0,
                .disk_stall_weight = 1.0,
                .max_window = 10 * kSecond},
      .workload = WorkloadKind::kWriteMixStream,
  });
  t.push_back({
      .name = "net_sweep",
      .summary = "sweep (ctest -L net): partitions, message loss and delay "
                 "racing a scale-out over the message substrate",
      .engine = WithNet(WithReplication(Cluster(3, 5000.0))),
      .migration = Streams(),
      .controller = ControllerKind::kReactive,
      .reactive = Reactive(0.0),
      .chaos = {.horizon = 40 * kSecond,
                .num_events = 6,
                .crash_weight = 0.5,
                .restart_weight = 0.5,
                .stall_weight = 0.0,
                .chunk_failure_weight = 0.0,
                .misforecast_weight = 0.0,
                .net_partition_weight = 2.0,
                .net_loss_weight = 1.5,
                .net_delay_weight = 1.0,
                .max_window = 10 * kSecond,
                .max_stall = 20 * kMillisecond},
      .workload = WorkloadKind::kWriteMixStream,
      .move_at = 2 * kSecond,
      .move_nodes = 5,
  });
  t.push_back({
      .name = "topology_sweep",
      .summary = "sweep (ctest -L topology): spot revocations and domain "
                 "outages over 6 nodes striped across 3 domains",
      .engine = WithTopology(WithReplication(Cluster(6, 5000.0))),
      .migration = Streams(),
      .chaos = {.horizon = 40 * kSecond,
                .num_events = 8,
                .crash_weight = 1.0,
                .restart_weight = 2.0,
                .stall_weight = 0.0,
                .chunk_failure_weight = 0.0,
                .misforecast_weight = 0.0,
                .spot_revocation_weight = 2.0,
                .domain_outage_weight = 1.0,
                .max_window = 10 * kSecond},
      .workload = WorkloadKind::kWriteMixStream,
  });
  t.push_back({
      .name = "guard_sweep",
      .summary = "sweep (ctest -L guard): flash crowds and trace dropouts "
                 "against guarded predictive control, slow moves",
      .engine = Cluster(3, 1000.0),
      .migration = Streams(500, 50000),
      .controller = ControllerKind::kPredictiveGuard,
      .chaos = {.horizon = 60 * kSecond,
                .num_events = 8,
                .flash_crowd_weight = 3.0,
                .trace_dropout_weight = 2.0,
                .max_window = 15 * kSecond,
                .max_stall = 2 * kSecond},
      .workload = WorkloadKind::kOfferedLoad,
      .rate = 200,
      .drain_seconds = 20,
  });
  return t;
}

}  // namespace

const std::vector<Scenario>& Scenarios() {
  static const std::vector<Scenario> table = BuildTable();
  return table;
}

const Scenario* FindScenario(std::string_view name) {
  for (const Scenario& s : Scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace scenario
}  // namespace pstore
