#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "prediction/spar.h"
#include "workload/b2w_procedures.h"
#include "workload/b2w_schema.h"

namespace pstore {

namespace {
/// Trace minutes per control interval (the paper plans at 5-minute
/// granularity).
constexpr int32_t kTraceMinutesPerControlSlot = 5;
/// Virtual time between telemetry exporter samples.
constexpr SimDuration kTelemetrySamplePeriod = 10 * kSecond;
}  // namespace

namespace {

/// Oracle bound to the experiment's own control-slot series: forecasts
/// are the true future of the replayed trace regardless of what the
/// controller has measured. Index alignment: the controller's series is
/// seeded with exactly `replay_begin_slot` history slots, so measured
/// slot t corresponds to control_series[t].
class TraceOracle : public LoadPredictor {
 public:
  explicit TraceOracle(std::vector<double> series)
      : series_(std::move(series)) {}

  std::string name() const override { return "TraceOracle"; }
  Status Fit(const std::vector<double>&, int32_t) override {
    return Status::OK();
  }
  int64_t MinHistory() const override { return 0; }
  Result<std::vector<double>> Forecast(const std::vector<double>&, int64_t t,
                                       int32_t horizon) const override {
    std::vector<double> out;
    out.reserve(static_cast<size_t>(horizon));
    for (int32_t h = 1; h <= horizon; ++h) {
      const int64_t idx = t + h;
      out.push_back(idx < static_cast<int64_t>(series_.size())
                        ? series_[static_cast<size_t>(idx)]
                        : series_.back());
    }
    return out;
  }

 private:
  std::vector<double> series_;
};

}  // namespace

const char* ElasticityStrategyName(ElasticityStrategy strategy) {
  switch (strategy) {
    case ElasticityStrategy::kStatic:
      return "Static";
    case ElasticityStrategy::kReactive:
      return "Reactive";
    case ElasticityStrategy::kPStoreSpar:
      return "P-Store (SPAR)";
    case ElasticityStrategy::kPStoreOracle:
      return "P-Store (Oracle)";
  }
  return "?";
}

Status ExperimentConfig::Validate() const {
  if (static_nodes < 1 || static_nodes > engine.max_nodes) {
    return Status::InvalidArgument("static_nodes out of range");
  }
  if (replay_days < 1) return Status::InvalidArgument("replay_days < 1");
  if (train_days < 8) {
    return Status::InvalidArgument(
        "train_days must cover at least spar_periods+1 periods");
  }
  if (speedup <= 0) return Status::InvalidArgument("speedup <= 0");
  if (peak_txn_rate <= 0) {
    return Status::InvalidArgument("peak_txn_rate <= 0");
  }
  PSTORE_RETURN_NOT_OK(engine.Validate());
  PSTORE_RETURN_NOT_OK(migration.Validate());
  PSTORE_RETURN_NOT_OK(reactive.Validate());
  return Status::OK();
}

std::vector<double> AggregateSlots(const std::vector<double>& series,
                                   int32_t group) {
  assert(group >= 1);
  std::vector<double> out;
  out.reserve(series.size() / static_cast<size_t>(group) + 1);
  for (size_t i = 0; i + static_cast<size_t>(group) <= series.size();
       i += static_cast<size_t>(group)) {
    double acc = 0;
    for (int32_t j = 0; j < group; ++j) acc += series[i + static_cast<size_t>(j)];
    out.push_back(acc / group);
  }
  return out;
}

Result<ExperimentResult> RunElasticityExperiment(
    const ExperimentConfig& config_in) {
  ExperimentConfig config = config_in;
  PSTORE_RETURN_NOT_OK(config.Validate());

  // --- Trace -------------------------------------------------------------
  config.trace.days =
      std::max(config.trace.days, config.train_days + config.replay_days);
  auto trace = GenerateB2wTrace(config.trace);
  if (!trace.ok()) return trace.status();

  // --- Engine + workload ---------------------------------------------------
  Simulator sim;
  Catalog catalog;
  auto tables = RegisterB2wTables(&catalog);
  if (!tables.ok()) return tables.status();
  ProcedureRegistry registry;
  auto procs = RegisterB2wProcedures(&registry, *tables);
  if (!procs.ok()) return procs.status();

  EngineConfig engine_config = config.engine;
  const int64_t replay_begin_minute =
      static_cast<int64_t>(config.train_days) * 1440;
  const int64_t replay_end_minute =
      replay_begin_minute + static_cast<int64_t>(config.replay_days) * 1440;

  B2wClientConfig client_config;
  client_config.speedup = config.speedup;
  client_config.peak_txn_rate = config.peak_txn_rate;
  client_config.seed = config.trace.seed ^ 0x5eedULL;

  // Determine the initial cluster size from the load at replay start.
  // Static runs pin it to static_nodes.
  const double peak_trace =
      *std::max_element(trace->begin(), trace->end());
  const double scale = config.peak_txn_rate / peak_trace;
  const double initial_rate =
      (*trace)[static_cast<size_t>(replay_begin_minute)] * scale;
  const double q = config.controller_overridden
                       ? config.controller.move_model.q
                       : 285.0;
  int32_t initial_nodes;
  if (config.strategy == ElasticityStrategy::kStatic) {
    initial_nodes = config.static_nodes;
  } else {
    initial_nodes = std::clamp<int32_t>(
        static_cast<int32_t>(std::ceil(initial_rate * 1.2 / q)), 1,
        engine_config.max_nodes);
  }
  engine_config.initial_nodes = initial_nodes;

  ClusterEngine engine(&sim, catalog, registry, engine_config);
  if (config.telemetry.tracer != nullptr) {
    config.telemetry.tracer->set_clock([&sim]() { return sim.Now(); });
  }
  engine.set_telemetry(config.telemetry);
  B2wClient client(&engine, *tables, *procs, *trace, client_config);
  PSTORE_RETURN_NOT_OK(client.PreloadData());

  MigrationExecutor migrator(&engine, config.migration);
  migrator.set_telemetry(config.telemetry);

  // --- Controller ----------------------------------------------------------
  // One control slot is 5 trace minutes, compressed by the speedup.
  const double slot_virtual_minutes =
      kTraceMinutesPerControlSlot / config.speedup;
  const double slot_virtual_seconds = slot_virtual_minutes * 60.0;

  ControllerConfig controller_config = config.controller;
  if (!config.controller_overridden) {
    controller_config.move_model.q = 285.0;
    controller_config.move_model.partitions_per_node =
        engine_config.partitions_per_node;
    // D (virtual minutes): full-DB single-pair migration time at rate R,
    // plus the paper's 10% planning buffer.
    controller_config.move_model.d_minutes =
        config.migration.db_size_mb * 1024.0 / config.migration.rate_kbps /
        60.0 * 1.1;
    controller_config.move_model.interval_minutes = slot_virtual_minutes;
    controller_config.q_hat = 350.0;
    // Horizon: at least 2D/P (Section 5), rounded up generously.
    const double two_d_over_p =
        2.0 * controller_config.move_model.d_minutes /
        engine_config.partitions_per_node;
    controller_config.horizon_intervals = std::max<int32_t>(
        8, static_cast<int32_t>(std::ceil(two_d_over_p /
                                          slot_virtual_minutes)) +
               4);
    // SPAR's tau must stay below one seasonal period; at extreme replay
    // accelerations the 2D/P rule can exceed it, so clamp.
    controller_config.horizon_intervals =
        std::min(controller_config.horizon_intervals,
                 1440 / kTraceMinutesPerControlSlot - 1);
  }

  // Predictor: SPAR fit on the training prefix (or the oracle).
  const std::vector<double> scaled_trace = client.ScaledTrace();
  const std::vector<double> control_series =
      AggregateSlots(scaled_trace, kTraceMinutesPerControlSlot);
  const int64_t replay_begin_slot =
      replay_begin_minute / kTraceMinutesPerControlSlot;

  std::unique_ptr<LoadPredictor> predictor;
  std::unique_ptr<PredictiveController> pstore;
  std::unique_ptr<ReactiveController> reactive;

  const bool is_pstore =
      config.strategy == ElasticityStrategy::kPStoreSpar ||
      config.strategy == ElasticityStrategy::kPStoreOracle;

  if (is_pstore) {
    if (config.strategy == ElasticityStrategy::kPStoreSpar) {
      SparConfig spar;
      spar.period = 1440 / kTraceMinutesPerControlSlot;  // one day
      spar.num_periods = config.spar_periods;
      spar.num_recent = config.spar_recent;
      auto spar_predictor = std::make_unique<SparPredictor>(spar);
      std::vector<double> train(
          control_series.begin(),
          control_series.begin() + replay_begin_slot);
      PSTORE_RETURN_NOT_OK(
          spar_predictor->Fit(train, controller_config.horizon_intervals));
      predictor = std::move(spar_predictor);
    } else {
      predictor = std::make_unique<TraceOracle>(control_series);
      controller_config.prediction_inflation = 0.0;
    }
    pstore = std::make_unique<PredictiveController>(
        &engine, &migrator, predictor.get(), controller_config);
    pstore->set_telemetry(config.telemetry);
    // Seed with history so SPAR has its lags on the first tick (and so
    // the oracle's index aligns with the trace's control slots).
    pstore->SeedHistory(std::vector<double>(
        control_series.begin(),
        control_series.begin() + replay_begin_slot));
    pstore->Start();
  } else if (config.strategy == ElasticityStrategy::kReactive) {
    ReactiveConfig reactive_config = config.reactive;
    reactive = std::make_unique<ReactiveController>(&engine, &migrator,
                                                    reactive_config);
    reactive->set_telemetry(config.telemetry);
    reactive->Start();
  }

  // Periodic read-only telemetry sampling: the tick reads metric cells
  // and reschedules itself, never touching engine state, so the
  // simulated schedule is unchanged whether or not an exporter is set.
  std::shared_ptr<std::function<void()>> sample_tick;
  if (config.telemetry_exporter != nullptr) {
    obs::TimeseriesExporter* exporter = config.telemetry_exporter;
    sample_tick = std::make_shared<std::function<void()>>();
    // Capture the function by raw pointer: sample_tick outlives the run,
    // and a shared_ptr capture would keep the closure alive forever.
    *sample_tick = [&sim, exporter, tick = sample_tick.get()]() {
      exporter->Sample(sim.Now());
      sim.Schedule(kTelemetrySamplePeriod, *tick);
    };
    sim.Schedule(0, *sample_tick);
  }

  // --- Run -----------------------------------------------------------------
  client.Start(replay_begin_minute, replay_end_minute);
  const SimDuration replay_duration = static_cast<SimDuration>(
      static_cast<double>(replay_end_minute - replay_begin_minute) *
      60.0 / config.speedup * kSecond);
  sim.RunUntil(replay_duration);
  // Drain in-flight work (don't inject more load).
  if (pstore) pstore->Stop();
  if (reactive) reactive->Stop();
  sim.RunUntil(replay_duration + 30 * kSecond);
  engine.mutable_latencies().Flush(sim.Now());
  // The tracer's clock closure captures the (stack-local) simulator:
  // unbind it before returning so late Begin() calls cannot dangle. The
  // callback gauges and bound counters read the (equally stack-local)
  // engine, migrator and controllers: freeze them to plain values so
  // later dumps cannot read freed state.
  if (config.telemetry.tracer != nullptr) {
    config.telemetry.tracer->set_clock(nullptr);
  }
  if (config.telemetry.metrics != nullptr) {
    config.telemetry.metrics->Freeze();
  }

  // --- Collect -------------------------------------------------------------
  ExperimentResult result;
  result.strategy_name = ElasticityStrategyName(config.strategy);
  result.latency_windows = engine.latencies().windows();
  result.violations_p50 =
      engine.latencies().CountViolations(50, config.sla_threshold_us);
  result.violations_p95 =
      engine.latencies().CountViolations(95, config.sla_threshold_us);
  result.violations_p99 =
      engine.latencies().CountViolations(99, config.sla_threshold_us);
  result.allocation = engine.allocation_timeline();
  result.moves = migrator.history();
  result.avg_machines = engine.AverageNodesAllocated();
  result.submitted = engine.txns_submitted();
  result.committed = engine.txns_committed();
  result.aborted = engine.txns_aborted();
  result.end_time = sim.Now();
  if (pstore) result.infeasible_cycles = pstore->infeasible_cycles();

  const double window_seconds =
      DurationToSeconds(engine.config().throughput_window);
  for (int64_t count : engine.throughput_windows()) {
    result.throughput_txn_s.push_back(static_cast<double>(count) /
                                      window_seconds);
  }

  // Uniformity stats (Section 8.1): accesses per *active* partition.
  const auto& accesses = engine.partition_access_counts();
  const int32_t active = engine.active_partitions();
  if (active > 0) {
    double mean = 0;
    int64_t max_count = 0;
    for (int32_t p = 0; p < active; ++p) {
      mean += static_cast<double>(accesses[static_cast<size_t>(p)]);
      max_count = std::max(max_count, accesses[static_cast<size_t>(p)]);
    }
    mean /= active;
    result.max_partition_access_over_mean =
        mean > 0 ? static_cast<double>(max_count) / mean : 0;
  }

  (void)slot_virtual_seconds;
  return result;
}

}  // namespace pstore
