#include "scenario/scenario.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include "common/murmur.h"
#include "common/rng.h"
#include "core/predictive_controller.h"
#include "durability/content_store.h"
#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "obs/exporter.h"
#include "obs/telemetry.h"
#include "overload/retry_budget.h"
#include "prediction/spar.h"
#include "sim/simulator.h"

namespace pstore {
namespace scenario {

KvDatabase MakeKvDatabase(KvProcs procs) {
  KvDatabase db;
  db.table = *db.catalog.AddTable(Schema(
      "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
  const TableId table = db.table;
  const auto add_put = [&db, table]() {
    db.put = *db.registry.Register(ProcedureDef{
        "Put",
        [table](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          r.status = ctx.Upsert(
              table, Row({Value(req.key), req.args.empty()
                                              ? Value(int64_t{0})
                                              : req.args[0]}));
          return r;
        },
        1.0});
  };
  const auto add_get = [&db, table]() {
    db.get = *db.registry.Register(ProcedureDef{
        "Get",
        [table](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          auto row = ctx.Get(table, req.key);
          if (!row.ok()) {
            r.status = row.status();
          } else {
            r.rows.push_back(std::move(row).MoveValueUnsafe());
          }
          return r;
        },
        1.0});
  };
  if (procs == KvProcs::kGetPut) {
    add_get();
    add_put();
    return db;
  }
  add_put();
  add_get();
  db.del = *db.registry.Register(ProcedureDef{
      "Del",
      [table](ExecutionContext& ctx, const TxnRequest& req) {
        TxnResult r;
        r.status = ctx.Delete(table, req.key);
        return r;
      },
      1.0});
  return db;
}

namespace {

/// The guard scenarios' predictive controller: SPAR over 2 s slots,
/// Q = 100 txn/s per node, and the forecast-divergence guard armed.
ControllerConfig GuardedControllerConfig() {
  ControllerConfig pc;
  pc.move_model.q = 100.0;
  pc.move_model.partitions_per_node = 2;
  // D: 10 MB at a few hundred kB/s is ~30 s -> ~0.6 "minutes".
  pc.move_model.d_minutes = 0.6;
  pc.move_model.interval_minutes = 2.0 / 60.0;  // 2 s control ticks.
  pc.q_hat = 125.0;
  pc.horizon_intervals = 8;
  pc.prediction_inflation = 0.15;
  pc.guard = true;
  return pc;
}

uint64_t MoveHistoryHash(const MigrationExecutor& migrator) {
  uint64_t h = 0;
  for (const MoveRecord& m : migrator.history()) {
    h = MurmurHash64A(m.start, h);
    h = MurmurHash64A(m.end, h);
    h = MurmurHash64A(int64_t{m.from_nodes} << 32 | m.to_nodes, h);
    h = MurmurHash64A(int64_t{m.aborted} << 1 | m.truncated, h);
  }
  const double kb = migrator.total_kb_moved();
  int64_t kb_bits;
  std::memcpy(&kb_bits, &kb, sizeof(kb_bits));
  return MurmurHash64A(kb_bits, h);
}

int64_t AsCounter(uint64_t hash) { return static_cast<int64_t>(hash); }

Status Execute(const Scenario& s, uint64_t seed, ScenarioTelemetry* tel,
               ScenarioResult* out) {
  KvDatabase db = MakeKvDatabase(s.procs);
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, s.engine);
  obs::TelemetryBundle bundle;
  if (tel != nullptr) {
    bundle.tracer.set_clock([&sim]() { return sim.Now(); });
    if (tel->trace_sample > 0) {
      // A dedicated sampling stream: untraced runs draw nothing.
      obs::TxnTraceRecorder::Config tc;
      tc.sample_rate = tel->trace_sample;
      tc.seed = seed ^ 0xa0761d6478bd642fULL;
      bundle.txn_traces.Configure(tc);
    }
    engine.set_telemetry(bundle.view());
  }
  for (int64_t k = 0; k < s.rows; ++k) {
    Status loaded = engine.LoadRow(db.table, Row({Value(k), Value(k)}));
    if (!loaded.ok()) return loaded;
  }

  MigrationExecutor migrator(&engine, s.migration);
  if (tel != nullptr) migrator.set_telemetry(bundle.view());

  std::unique_ptr<ReactiveController> reactive;
  if (s.controller == ControllerKind::kReactive) {
    reactive = std::make_unique<ReactiveController>(&engine, &migrator,
                                                    s.reactive);
    if (tel != nullptr) reactive->set_telemetry(bundle.view());
    reactive->Start();
  }

  // Predictive control fitted on four minutes of seasonal history at
  // the workload's base rate (2 s slots): only injected flash crowds,
  // which the forecast never sees, make it diverge. Started once the
  // injector exists (the trace-dropout probe polls it).
  SparConfig spar_config;
  spar_config.period = 30;
  spar_config.num_periods = 2;
  spar_config.num_recent = 5;
  SparPredictor spar(spar_config);
  std::unique_ptr<PredictiveController> predictive;
  if (s.controller == ControllerKind::kPredictiveGuard) {
    std::vector<double> history;
    for (int32_t i = 0; i < 120; ++i) {
      history.push_back(s.rate + 20.0 * std::sin(2.0 * M_PI * i / 30.0));
    }
    const ControllerConfig pc = GuardedControllerConfig();
    Status fitted = spar.Fit(history, pc.horizon_intervals);
    if (!fitted.ok()) return fitted;
    predictive = std::make_unique<PredictiveController>(&engine, &migrator,
                                                        &spar, pc);
    if (tel != nullptr) predictive->set_telemetry(bundle.view());
    predictive->SeedHistory(std::move(history));
  }

  // Sample the registry once per virtual second (read-only, so traces
  // match unsampled runs).
  obs::TimeseriesExporter exporter(&bundle.metrics);
  std::function<void()> sample = [&sim, &exporter, &sample]() {
    exporter.Sample(sim.Now());
    sim.Schedule(kSecond, sample);
  };
  if (tel != nullptr) sim.Schedule(0, sample);

  FaultPlan plan;
  if (!s.script.empty()) {
    plan.events = s.script;
  } else {
    // Drawn from the seed, so one integer reproduces the entire run.
    Rng plan_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    plan = RandomFaultPlan(&plan_rng, s.chaos);
    int crash_index = 0;
    for (FaultEvent& event : plan.events) {
      if (!s.alternate_crash_scope || event.type != FaultType::kNodeCrash) {
        continue;
      }
      event.scope = (crash_index++ % 2 == 0) ? CrashScope::kPrimaryHeavy
                                             : CrashScope::kBackupHeavy;
    }
  }
  out->plan = plan.ToString();
  FaultInjector injector(&engine, &migrator, seed);
  Status armed = injector.Arm(plan);
  if (!armed.ok()) return armed;
  if (predictive != nullptr) {
    predictive->set_trace_dropout_probe(
        [&injector]() { return injector.trace_dropout_active(); });
    predictive->Start();
  }

  InvariantChecker checker(&engine, &migrator);
  checker.set_expected_rows(s.rows);
  checker.StartPeriodic(kSecond);

  const SimTime run_end = SecondsToDuration(s.run_seconds);
  const int64_t rows = s.rows;
  const ProcedureId get = db.get, put = db.put;
  // Shed-aware resubmission for kLoadScaleRetry: retries spend a token
  // budget and back off with jitter drawn from a dedicated stream.
  overload::RetryBudget retry_budget;
  Rng retry_rng(seed ^ 0x94d049bb133111ebULL);
  int64_t retries = 0, sheds_seen = 0;
  std::function<void(TxnRequest, int32_t)> submit =
      [&](TxnRequest req, int32_t attempt) {
        if (attempt == 0) retry_budget.OnRequest();
        TxnRequest copy = req;
        engine.Submit(std::move(req), [&, copy = std::move(copy),
                                       attempt](const TxnResult& r) mutable {
          if (!r.shed) return;
          ++sheds_seen;
          if (attempt + 1 >= overload::RetryBudget::kMaxAttempts) return;
          if (!retry_budget.TrySpend()) return;
          ++retries;
          sim.Schedule(retry_budget.Backoff(attempt + 1, &retry_rng),
                       [&submit, copy = std::move(copy), attempt]() mutable {
                         submit(std::move(copy), attempt + 1);
                       });
        });
      };
  // Self-scheduling generators read the injector's live load scale, so
  // fault windows really change the offered load (deterministically —
  // the scale is plan state, not a per-arrival draw).
  std::function<void(int64_t)> generate = [&](int64_t i) {
    if (sim.Now() >= run_end) return;
    TxnRequest req;
    req.key = (i * 48271) % rows;
    SimDuration gap = 10 * kMillisecond;
    if (s.workload == WorkloadKind::kWriteMixStream) {
      req.proc = i % 4 == 0 ? put : get;
      if (i % 4 == 0) req.args.push_back(Value(i));
      engine.Submit(std::move(req));
    } else {
      req.proc = get;
      double rate = s.rate;
      if (s.workload == WorkloadKind::kLoadScaleRetry) {
        submit(std::move(req), 0);
        rate *= injector.load_scale();
      } else {
        engine.Submit(std::move(req));
        rate *= injector.offered_load_scale();
      }
      gap = static_cast<SimDuration>(1e6 / rate);
    }
    sim.Schedule(gap < 1 ? 1 : gap, [&generate, i]() { generate(i + 1); });
  };
  if (s.workload == WorkloadKind::kFixedSchedule ||
      s.workload == WorkloadKind::kFixedScheduleWriteMix) {
    const bool writes = s.workload == WorkloadKind::kFixedScheduleWriteMix;
    for (int64_t i = 0; i < static_cast<int64_t>(s.rate * s.run_seconds);
         ++i) {
      TxnRequest req;
      req.key = (i * 48271) % rows;
      req.proc = writes && i % 4 == 0 ? put : get;
      if (req.proc == put) req.args.push_back(Value(i));
      sim.ScheduleAt(SecondsToDuration(i / s.rate),
                     [&engine, req]() { engine.Submit(req); });
    }
  } else {
    sim.Schedule(0, [&generate]() { generate(0); });
  }
  if (s.move_at >= 0) {
    const int32_t nodes = s.move_nodes;
    sim.ScheduleAt(s.move_at, [&migrator, nodes]() {
      (void)migrator.StartMove(nodes, nullptr);
    });
  }

  sim.RunUntil(run_end);
  checker.Stop();
  if (reactive != nullptr) reactive->Stop();
  if (predictive != nullptr) predictive->Stop();
  sim.RunUntil(SecondsToDuration(s.run_seconds + s.drain_seconds));
  const Status audit = checker.Check();

  out->trace = injector.trace().ToString();
  out->fingerprint = injector.trace().Fingerprint();
  for (const InvariantViolation& v : checker.violations()) {
    out->violations.push_back(v.ToString());
  }
  Counters& c = out->counters;
  c = {
      {"events", sim.events_executed()},
      {"committed", engine.txns_committed()},
      {"checks", checker.checks_run()},
      {"violations", static_cast<int64_t>(checker.violations().size())},
      {"rows_at_end", engine.TotalRowCount()},
      {"rows_lost", engine.rows_lost()},
      {"rows_net_created", engine.rows_net_created()},
      {"recoveries", engine.recoveries()},
      {"crashes", injector.crashes()},
      {"restarts", injector.restarts()},
      {"chunk_faults", injector.chunk_faults()},
      {"load_spikes", injector.load_spikes()},
      {"replica_lags", injector.replica_lags()},
      {"net_partitions", injector.net_partitions()},
      {"net_losses", injector.net_losses()},
      {"net_delays", injector.net_delays()},
      {"disk_corruptions", injector.disk_corruptions()},
      {"torn_writes", injector.torn_writes()},
      {"disk_stalls", injector.disk_stalls()},
      {"records_corrupted", injector.records_corrupted()},
      {"records_torn", injector.records_torn()},
      {"spot_revocations", injector.spot_revocations()},
      {"domain_outages", injector.domain_outages()},
      {"infeasible_outages", injector.infeasible_outages()},
      {"flash_crowds", injector.flash_crowds()},
      {"trace_dropouts", injector.trace_dropouts()},
      {"injector_rng_hash", AsCounter(injector.rng_state_hash())},
      {"disk_rng_hash", AsCounter(injector.disk_rng_state_hash())},
      {"moves", static_cast<int64_t>(migrator.history().size())},
      {"moves_aborted", migrator.moves_aborted()},
      {"moves_truncated", migrator.moves_truncated()},
      {"moves_hash", AsCounter(MoveHistoryHash(migrator))},
      {"chunk_retries", migrator.chunk_retries()},
      {"chunks_backpressured", migrator.chunks_backpressured()},
  };
  if (reactive != nullptr) {
    c.emplace_back("scale_outs", reactive->scale_outs());
  }
  if (s.workload == WorkloadKind::kLoadScaleRetry) {
    c.emplace_back("sheds_seen", sheds_seen);
    c.emplace_back("retries", retries);
  }
  if (engine.admission() != nullptr) {
    c.emplace_back("shed", engine.txns_shed());
    c.emplace_back("evictions", engine.admission()->evictions());
    c.emplace_back("breaker_trips", engine.admission()->total_trips());
  }
  if (const replication::ReplicaManager* rep = engine.replication()) {
    c.emplace_back("promotions", rep->promotions());
    c.emplace_back("rebuilds", rep->rebuilds_completed());
    c.emplace_back("backup_applies", rep->applies());
    c.emplace_back("degraded_at_end", rep->degraded_buckets());
    if (const durability::ContentDurableStore* store = rep->content()) {
      c.emplace_back("crc_detected", store->crc_failures_detected());
      c.emplace_back("torn_detected", store->torn_segments_detected());
      c.emplace_back("fallbacks", store->checkpoint_fallbacks());
      c.emplace_back("rereplicates", store->replays_unrecoverable());
      // Either way of escalating past a damaged checkpoint or log.
      c.emplace_back("escalations", store->checkpoint_fallbacks() +
                                        store->replays_unrecoverable());
      c.emplace_back("scrub_found", store->scrub_corruptions_found());
      c.emplace_back("scrub_repairs", store->scrub_repairs());
      c.emplace_back("corrupt_served", store->corrupt_records_served());
      c.emplace_back("store_hash", AsCounter(store->StateHash()));
    }
  }
  if (const net::NetworkModel* network = engine.net()) {
    c.emplace_back("suspicions", engine.suspicions());
    c.emplace_back("fenced_failovers", engine.fenced_failovers());
    c.emplace_back("fenced_rejections", engine.fenced_rejections());
    c.emplace_back("fenced_commits", engine.fenced_commits());
    c.emplace_back("msgs_sent", network->messages_sent());
    c.emplace_back("msgs_dropped", network->messages_dropped_partition() +
                                       network->messages_dropped_loss());
    c.emplace_back("net_retransmits", migrator.net_retransmits());
    c.emplace_back("net_duplicate_data", migrator.net_duplicate_data());
    c.emplace_back("net_double_applies", migrator.net_double_applies());
  }
  if (s.engine.topology.enabled) {
    c.emplace_back("drains_started", engine.drains_started());
    c.emplace_back("drain_kills", engine.drain_kills());
    c.emplace_back("drain_kills_infeasible", engine.drain_kills_infeasible());
    c.emplace_back("buckets_evacuated", migrator.buckets_evacuated());
    c.emplace_back("evac_deadline_skipped",
                   migrator.evacuations_deadline_skipped());
  }
  if (predictive != nullptr) {
    c.emplace_back("divergences", predictive->guard_monitor()->divergences());
    c.emplace_back("guard_rejoins", predictive->guard_monitor()->rejoins());
    c.emplace_back("guard_vetoes", predictive->guard_vetoes());
    c.emplace_back("plan_repairs", predictive->plan_repairs());
  }
  if (tel != nullptr) {
    c.emplace_back("metrics_fingerprint",
                   AsCounter(bundle.metrics.Fingerprint()));
    c.emplace_back("span_fingerprint", AsCounter(bundle.tracer.Fingerprint()));
    tel->artifacts = {
        {"metrics.json", bundle.metrics.DumpJson()},
        {"metrics.csv", exporter.ToCsv()},
        {"spans.txt", bundle.tracer.ToString()},
        {"events.txt", bundle.events.ToString()},
        {"fault_trace.txt", out->trace},
    };
    // Trace artifacts exist only when tracing is on, so untraced out
    // dirs stay byte-identical to pre-tracing runs.
    if (tel->trace_sample > 0) {
      c.emplace_back("txns_sampled", bundle.txn_traces.sampled());
      c.emplace_back("txn_trace_fingerprint",
                     AsCounter(bundle.txn_traces.Fingerprint()));
      tel->artifacts.emplace_back("txn_traces.txt",
                                  bundle.txn_traces.ToString());
      tel->artifacts.emplace_back(
          "trace.json",
          obs::ToChromeTraceJson(&bundle.tracer, &bundle.txn_traces));
    }
  }
  return audit;
}

}  // namespace

int64_t ScenarioResult::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  throw std::out_of_range("no counter named " + std::string(name));
}

ScenarioResult RunScenario(const Scenario& scenario, uint64_t seed,
                           ScenarioTelemetry* telemetry) {
  ScenarioResult out;
  out.status = Execute(scenario, seed, telemetry, &out);
  return out;
}

std::string FirstDifference(const ScenarioResult& a,
                            const ScenarioResult& b) {
  if (a.plan != b.plan) return "fault plans differ";
  if (a.trace != b.trace || a.fingerprint != b.fingerprint) {
    return "fault traces differ";
  }
  if (a.violations != b.violations) return "violations differ";
  if (a.status.ToString() != b.status.ToString()) {
    return "final audit: " + a.status.ToString() + " vs " +
           b.status.ToString();
  }
  if (a.counters.size() != b.counters.size()) return "counter sets differ";
  for (size_t i = 0; i < a.counters.size(); ++i) {
    const auto& [name, va] = a.counters[i];
    const auto& [name_b, vb] = b.counters[i];
    if (name != name_b) return "counter " + name + " vs " + name_b;
    if (va != vb) {
      return "counter " + name + ": " + std::to_string(va) + " vs " +
             std::to_string(vb);
    }
  }
  return "";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kEq: return "==";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
  }
  return "?";
}

bool Holds(const Check& check, const ScenarioResult& result) {
  const int64_t v = result.counter(check.counter);
  switch (check.op) {
    case Op::kEq: return v == check.bound;
    case Op::kGt: return v > check.bound;
    case Op::kGe: return v >= check.bound;
  }
  return false;
}

}  // namespace scenario
}  // namespace pstore
