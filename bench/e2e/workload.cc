#include "workload.h"

#include <algorithm>

namespace pstore {
namespace e2e {

namespace {

/// Body and submit calls are frequent and cheap, so they are sampled;
/// the control-path layers are sampled lightly where they are frequent
/// (the capacity simulator's Decide and its forecasts) and timed on
/// every call where they are rare.
constexpr int64_t kHotSampleEvery = 64;
constexpr int64_t kDecideSampleEvery = 8;

int64_t Completed(const ClusterEngine& engine) {
  return engine.txns_committed() + engine.txns_aborted() + engine.txns_shed();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double CounterValue(obs::MetricsRegistry* metrics, const std::string& name) {
  return metrics != nullptr ? metrics->GetCounter(name)->value() : 0.0;
}

}  // namespace

Layers AddLayers(LayerTracer* tracer, bool forecast_in_decide) {
  Layers l;
  l.trace_gen = tracer->AddLayer("workload.trace_gen", -1, 1);
  l.preload = tracer->AddLayer("workload.preload", -1, 1);
  l.fit = tracer->AddLayer("prediction.fit", -1, 1);
  l.replay = tracer->AddLayer("sim.run", -1, 1);
  l.body = tracer->AddLayer("txn.body", l.replay, kHotSampleEvery);
  l.submit = tracer->AddLayer("cluster.submit", l.replay, kHotSampleEvery);
  l.start_move = tracer->AddLayer("migration.start_move", l.replay, 1);
  l.decide = tracer->AddLayer("planner.decide", l.replay, kDecideSampleEvery);
  l.forecast = forecast_in_decide
                   ? tracer->AddLayer("prediction.forecast", l.decide,
                                      kDecideSampleEvery)
                   : tracer->AddLayer("prediction.forecast", l.replay, 1);
  return l;
}

const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> names = {
      "workload.trace_gen_s",
      "workload.preload_s",
      "prediction.fit_s",
      "sim.events",
      "sim.events_per_txn",
      "sim.ns_per_event",
      "sim.run_self_s",
      "txn.body_calls",
      "txn.body_samples",
      "txn.body_s",
      "txn.body_ns",
      "txn.body_share",
      "txn.calls_per_commit",
      "txn.aborts",
      "cluster.submit_ns",
      "cluster.submit_samples",
      "cluster.queue_delay_p50_ms",
      "cluster.queue_delay_p99_ms",
      "cluster.txns_forwarded",
      "cluster.goodput_txn_s",
      "cluster.failed_frac",
      "cluster.latency_p50_ms",
      "cluster.latency_p99_ms",
      "cluster.latency_p9999_ms",
      "cluster.sla_violation_s",
      "migration.moves",
      "migration.moves_aborted",
      "migration.reconfig_s",
      "migration.kb_moved",
      "migration.chunks_landed",
      "migration.host_ns_per_txn_moving",
      "migration.host_ns_per_txn_steady",
      "replication.applies",
      "replication.applies_per_commit",
      "replication.checkpoints",
      "durability.scrub_records_verified",
      "core.controller_plans",
      "core.moves_started",
      "core.infeasible_cycles",
      "core.machine_hours",
      "prediction.forecast_calls",
      "prediction.forecast_samples",
      "prediction.forecast_s",
      "planner.decide_calls",
      "planner.decide_samples",
      "planner.decide_self_s",
      "planner.moves_started",
      "planner.insufficient_pct",
      "bench.trace_overhead_frac",
  };
  return names;
}

void RunSliced(Simulator* sim, SimTime until, const ClusterEngine& engine,
               const MigrationExecutor& migrator, SliceCost* cost) {
  SimTime next = sim->Now();
  while (next < until) {
    next = std::min(until, next + kSecond);
    const bool moving = migrator.InProgress();
    const int64_t done_before = Completed(engine);
    const int64_t start = SteadyNowNs();
    sim->RunUntil(next);
    const int64_t ns = SteadyNowNs() - start;
    const int64_t txns = Completed(engine) - done_before;
    if (moving) {
      cost->moving_ns += ns;
      cost->moving_txns += txns;
    } else {
      cost->steady_ns += ns;
      cost->steady_txns += txns;
    }
  }
}

void FinishEngineReplay(const EngineReplay& replay, RunResult* result,
                        Fingerprint* fp) {
  const ClusterEngine& engine = *replay.engine;
  const int64_t submitted = engine.txns_submitted();
  const int64_t committed = engine.txns_committed();
  const int64_t aborted = engine.txns_aborted();
  const int64_t shed = engine.txns_shed();
  if (submitted != committed + aborted + shed ||
      engine.txns_in_flight() != 0) {
    result->check_failures.push_back(
        "txn conservation: submitted " + std::to_string(submitted) +
        " != committed " + std::to_string(committed) + " + aborted " +
        std::to_string(aborted) + " + shed " + std::to_string(shed) +
        " (in flight " + std::to_string(engine.txns_in_flight()) + ")");
  }
  result->attempted = submitted;
  result->failed = submitted - committed - aborted;

  const Histogram& latency = engine.latency_histogram();
  const double hours = DurationToSeconds(replay.sim->Now()) / 3600.0;
  double reconfig_s = 0;
  int64_t moves_aborted = 0;
  for (const MoveRecord& m : replay.migrator->history()) {
    const SimTime end = m.end >= 0 ? m.end : replay.sim->Now();
    reconfig_s += DurationToSeconds(end - m.start);
    if (m.aborted) ++moves_aborted;
  }
  const replication::ReplicaManager* replicas = engine.replication();
  auto& out = result->layer;
  out["cluster.goodput_txn_s"] = Ratio(static_cast<double>(committed),
                                       replay.offered_s);
  out["cluster.failed_frac"] = Ratio(static_cast<double>(aborted + shed),
                                     static_cast<double>(submitted));
  out["cluster.latency_p50_ms"] = latency.PercentileInterpolated(50) / 1e3;
  out["cluster.latency_p99_ms"] = latency.PercentileInterpolated(99) / 1e3;
  out["cluster.latency_p9999_ms"] =
      latency.PercentileInterpolated(99.99) / 1e3;
  out["cluster.sla_violation_s"] = static_cast<double>(
      engine.latencies().CountViolations(99, 500 * kMillisecond));
  out["core.machine_hours"] = engine.AverageNodesAllocated() * hours;
  out["txn.aborts"] = static_cast<double>(aborted);
  out["sim.events"] = static_cast<double>(replay.replay_events);
  out["sim.events_per_txn"] =
      Ratio(static_cast<double>(replay.replay_events),
            static_cast<double>(submitted));
  out["migration.moves"] =
      static_cast<double>(replay.migrator->history().size());
  out["migration.moves_aborted"] = static_cast<double>(moves_aborted);
  out["migration.reconfig_s"] = reconfig_s;
  out["migration.kb_moved"] = replay.migrator->total_kb_moved();
  out["replication.applies"] =
      replicas != nullptr ? static_cast<double>(replicas->applies()) : 0.0;
  out["replication.applies_per_commit"] = Ratio(
      out["replication.applies"], static_cast<double>(committed));
  out["replication.checkpoints"] =
      replicas != nullptr ? static_cast<double>(replicas->checkpoints())
                          : 0.0;

  for (int64_t v : {submitted, committed, aborted, shed, latency.count(),
                    latency.sum(), latency.max(), replay.replay_events,
                    engine.TotalRowCount(), engine.rows_net_created()}) {
    fp->Add(v);
  }
  for (const auto& w : engine.latencies().windows()) {
    fp->Add(w.count);
    fp->Add(w.p99);
  }
  for (const AllocationEvent& a : engine.allocation_timeline()) {
    fp->Add(a.at);
    fp->Add(static_cast<int64_t>(a.nodes));
  }
  for (const MoveRecord& m : replay.migrator->history()) {
    fp->Add(m.start);
    fp->Add(m.end);
    fp->Add(static_cast<int64_t>(m.to_nodes));
  }
  fp->Add(replay.migrator->total_kb_moved());
  if (replicas != nullptr) {
    fp->Add(replicas->applies());
    fp->Add(replicas->checkpoints());
  }
}

void AddEngineLayerMetrics(const EngineReplay& replay,
                           const LayerTracer& tracer, const Layers& layers,
                           RunResult* result) {
  auto& out = result->layer;
  const double replay_ns = tracer.EstimatedNs(layers.replay);
  const double body_ns = tracer.EstimatedNs(layers.body);
  const double body_calls = static_cast<double>(tracer.calls(layers.body));
  const double committed =
      static_cast<double>(replay.engine->txns_committed());
  out["sim.ns_per_event"] =
      Ratio(replay_ns, static_cast<double>(replay.replay_events));
  out["txn.body_calls"] = body_calls;
  out["txn.body_samples"] = static_cast<double>(tracer.sampled(layers.body));
  out["txn.body_s"] = body_ns / 1e9;
  out["txn.body_ns"] = Ratio(body_ns, body_calls);
  out["txn.body_share"] = Ratio(body_ns, replay_ns);
  out["txn.calls_per_commit"] = Ratio(body_calls, committed);
  out["cluster.submit_ns"] =
      Ratio(tracer.EstimatedNs(layers.submit),
            static_cast<double>(tracer.calls(layers.submit)));
  out["cluster.submit_samples"] =
      static_cast<double>(tracer.sampled(layers.submit));
  const Histogram& queue_delay =
      replay.metrics->GetHistogram("cluster.queue_delay_us")->histogram();
  out["cluster.queue_delay_p50_ms"] =
      queue_delay.PercentileInterpolated(50) / 1e3;
  out["cluster.queue_delay_p99_ms"] =
      queue_delay.PercentileInterpolated(99) / 1e3;
  out["cluster.txns_forwarded"] =
      CounterValue(replay.metrics, "cluster.txn_forwarded");
  out["migration.chunks_landed"] =
      CounterValue(replay.metrics, "migration.chunks_landed");
  out["migration.host_ns_per_txn_moving"] =
      Ratio(static_cast<double>(replay.slices.moving_ns),
            static_cast<double>(replay.slices.moving_txns));
  out["migration.host_ns_per_txn_steady"] =
      Ratio(static_cast<double>(replay.slices.steady_ns),
            static_cast<double>(replay.slices.steady_txns));
  out["core.controller_plans"] =
      CounterValue(replay.metrics, "controller.plans");
  const replication::ReplicaManager* replicas = replay.engine->replication();
  const durability::ContentDurableStore* content =
      replicas != nullptr ? replicas->content() : nullptr;
  out["durability.scrub_records_verified"] =
      content != nullptr
          ? static_cast<double>(content->scrub_records_verified())
          : 0.0;
}

void AddCommonLayerMetrics(const LayerTracer& tracer, const Layers& layers,
                           RunResult* result) {
  auto& out = result->layer;
  out["workload.trace_gen_s"] = tracer.EstimatedNs(layers.trace_gen) / 1e9;
  out["workload.preload_s"] = tracer.EstimatedNs(layers.preload) / 1e9;
  out["prediction.fit_s"] = tracer.EstimatedNs(layers.fit) / 1e9;
  out["sim.run_self_s"] = tracer.SelfNs(layers.replay) / 1e9;
  out["prediction.forecast_calls"] =
      static_cast<double>(tracer.calls(layers.forecast));
  out["prediction.forecast_samples"] =
      static_cast<double>(tracer.sampled(layers.forecast));
  out["prediction.forecast_s"] = tracer.EstimatedNs(layers.forecast) / 1e9;
  out["planner.decide_calls"] =
      static_cast<double>(tracer.calls(layers.decide));
  out["planner.decide_samples"] =
      static_cast<double>(tracer.sampled(layers.decide));
  out["planner.decide_self_s"] = tracer.SelfNs(layers.decide) / 1e9;
}

}  // namespace e2e
}  // namespace pstore
