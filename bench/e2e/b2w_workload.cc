// The two B2W workloads replay the synthetic B2W trace through the
// benchmark's own copy of RunElasticityExperiment's wiring, split into
// set-up and replay so each can be timed, with the traced run's
// wrappers installed at the procedure registry and the predictor.
// CheckB2wWiring holds the copy to the original, field by field.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/experiment.h"
#include "prediction/spar.h"
#include "workload.h"
#include "workload/b2w_procedures.h"
#include "workload/b2w_schema.h"
#include "wrappers.h"

namespace pstore {
namespace e2e {

namespace {

constexpr int32_t kTraceMinutesPerControlSlot = 5;

/// The replayed window: a ramp from the morning trough toward the
/// afternoon peak, where P-Store scales out, with the regular-traffic
/// trace, 28 training days and the paper's 10x, 2400 txn/s replay.
constexpr int64_t kWindowBeginHour = 8;
/// The load curve is fixed; the seed drives the client's request stream
/// (arrival times, transaction mix, keys). A seeded trace would change
/// the replayed day's volume by tens of percent from seed to seed and
/// swamp every host-time comparison.
constexpr uint64_t kTraceSeed = 20160715;
constexpr int64_t kWindowHours = 3;
constexpr int64_t kSmokeWindowMinutes = 30;

/// One replay of trace minutes [begin_minute, begin_minute + minutes).
struct B2wSpec {
  ExperimentConfig config;
  int64_t begin_minute = 0;
  int64_t minutes = 0;
  uint64_t client_seed = 0;
};

/// RunElasticityExperiment's wiring, with set-up and replay split. Only
/// the Static and P-Store (SPAR) strategies are supported.
class B2wHarness {
 public:
  B2wHarness(B2wSpec spec, LayerTracer* tracer, Layers layers)
      : spec_(std::move(spec)), tracer_(tracer), layers_(layers) {
    if (tracer_ != nullptr) metrics_ = std::make_unique<obs::MetricsRegistry>();
  }

  Status Setup();
  void Replay();
  ExperimentResult Collect() const;

  EngineReplay engine_replay() const {
    EngineReplay r;
    r.sim = &sim_;
    r.engine = engine_.get();
    r.migrator = migrator_.get();
    r.metrics = metrics_.get();
    r.offered_s = DurationToSeconds(replay_duration_);
    r.replay_events = replay_events_;
    r.slices = slices_;
    return r;
  }
  const ClusterEngine& engine() const { return *engine_; }
  const PredictiveController* pstore() const { return pstore_.get(); }

 private:
  obs::Telemetry telemetry() const {
    obs::Telemetry t;
    t.metrics = metrics_.get();
    return t;
  }

  B2wSpec spec_;
  LayerTracer* tracer_;
  Layers layers_;
  // Declared before the engine: the engine caches pointers into it.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  Simulator sim_;
  std::vector<double> trace_;
  std::unique_ptr<ClusterEngine> engine_;
  std::unique_ptr<B2wClient> client_;
  std::unique_ptr<MigrationExecutor> migrator_;
  std::unique_ptr<SparPredictor> spar_;
  std::unique_ptr<TracedPredictor> predictor_;
  std::unique_ptr<PredictiveController> pstore_;
  SimDuration replay_duration_ = 0;
  int64_t replay_events_ = 0;
  SliceCost slices_;
};

Status B2wHarness::Setup() {
  ExperimentConfig& config = spec_.config;
  PSTORE_RETURN_NOT_OK(config.Validate());
  if (config.strategy != ElasticityStrategy::kStatic &&
      config.strategy != ElasticityStrategy::kPStoreSpar) {
    return Status::InvalidArgument("unsupported strategy");
  }

  config.trace.days =
      std::max(config.trace.days, config.train_days + config.replay_days);
  {
    LayerTracer::Scope scope = EnterIf(tracer_, layers_.trace_gen, 0);
    auto trace = GenerateB2wTrace(config.trace);
    if (!trace.ok()) return trace.status();
    trace_ = std::move(*trace);
  }

  Catalog catalog;
  auto tables = RegisterB2wTables(&catalog);
  if (!tables.ok()) return tables.status();
  ProcedureRegistry registry;
  auto procs = RegisterB2wProcedures(&registry, *tables);
  if (!procs.ok()) return procs.status();
  if (tracer_ != nullptr) {
    auto traced = TraceProcedures(registry, tracer_, layers_.body);
    if (!traced.ok()) return traced.status();
    registry = std::move(*traced);
  }

  EngineConfig engine_config = config.engine;
  const int64_t replay_begin_minute = spec_.begin_minute;

  B2wClientConfig client_config;
  client_config.speedup = config.speedup;
  client_config.peak_txn_rate = config.peak_txn_rate;
  client_config.seed = spec_.client_seed;

  const double peak_trace = *std::max_element(trace_.begin(), trace_.end());
  const double scale = config.peak_txn_rate / peak_trace;
  const double initial_rate =
      trace_[static_cast<size_t>(replay_begin_minute)] * scale;
  const double q =
      config.controller_overridden ? config.controller.move_model.q : 285.0;
  if (config.strategy == ElasticityStrategy::kStatic) {
    engine_config.initial_nodes = config.static_nodes;
  } else {
    engine_config.initial_nodes = std::clamp<int32_t>(
        static_cast<int32_t>(std::ceil(initial_rate * 1.2 / q)), 1,
        engine_config.max_nodes);
  }

  engine_ = std::make_unique<ClusterEngine>(&sim_, catalog,
                                            std::move(registry),
                                            engine_config);
  engine_->set_telemetry(telemetry());
  client_ = std::make_unique<B2wClient>(engine_.get(), *tables, *procs,
                                        trace_, client_config);
  {
    LayerTracer::Scope scope = EnterIf(tracer_, layers_.preload, 0);
    PSTORE_RETURN_NOT_OK(client_->PreloadData());
  }

  migrator_ = std::make_unique<MigrationExecutor>(engine_.get(),
                                                  config.migration);
  migrator_->set_telemetry(telemetry());

  const double slot_virtual_minutes =
      kTraceMinutesPerControlSlot / config.speedup;
  ControllerConfig controller_config = config.controller;
  if (!config.controller_overridden) {
    controller_config.move_model.q = 285.0;
    controller_config.move_model.partitions_per_node =
        engine_config.partitions_per_node;
    controller_config.move_model.d_minutes =
        config.migration.db_size_mb * 1024.0 / config.migration.rate_kbps /
        60.0 * 1.1;
    controller_config.move_model.interval_minutes = slot_virtual_minutes;
    controller_config.q_hat = 350.0;
    const double two_d_over_p = 2.0 *
                                controller_config.move_model.d_minutes /
                                engine_config.partitions_per_node;
    controller_config.horizon_intervals = std::max<int32_t>(
        8, static_cast<int32_t>(
               std::ceil(two_d_over_p / slot_virtual_minutes)) +
               4);
    controller_config.horizon_intervals =
        std::min(controller_config.horizon_intervals,
                 1440 / kTraceMinutesPerControlSlot - 1);
  }

  if (config.strategy == ElasticityStrategy::kPStoreSpar) {
    const std::vector<double> control_series =
        AggregateSlots(client_->ScaledTrace(), kTraceMinutesPerControlSlot);
    const int64_t replay_begin_slot =
        replay_begin_minute / kTraceMinutesPerControlSlot;
    SparConfig spar;
    spar.period = 1440 / kTraceMinutesPerControlSlot;
    spar.num_periods = config.spar_periods;
    spar.num_recent = config.spar_recent;
    spar_ = std::make_unique<SparPredictor>(spar);
    predictor_ = std::make_unique<TracedPredictor>(
        spar_.get(), tracer_,
        TracedPredictor::Layers{layers_.fit, layers_.forecast});
    const std::vector<double> history(
        control_series.begin(), control_series.begin() + replay_begin_slot);
    PSTORE_RETURN_NOT_OK(
        predictor_->Fit(history, controller_config.horizon_intervals));
    pstore_ = std::make_unique<PredictiveController>(
        engine_.get(), migrator_.get(), predictor_.get(), controller_config);
    pstore_->set_telemetry(telemetry());
    pstore_->SeedHistory(history);
    pstore_->Start();
  }
  return Status::OK();
}

void B2wHarness::Replay() {
  client_->Start(spec_.begin_minute, spec_.begin_minute + spec_.minutes);
  replay_duration_ = static_cast<SimDuration>(
      static_cast<double>(spec_.minutes) * 60.0 / spec_.config.speedup *
      kSecond);
  RunSliced(&sim_, replay_duration_, *engine_, *migrator_, &slices_);
  // Drain in-flight work without injecting more load.
  if (pstore_) pstore_->Stop();
  RunSliced(&sim_, replay_duration_ + 30 * kSecond, *engine_, *migrator_,
            &slices_);
  engine_->mutable_latencies().Flush(sim_.Now());
  replay_events_ = sim_.events_executed();
}

ExperimentResult B2wHarness::Collect() const {
  const ExperimentConfig& config = spec_.config;
  ExperimentResult result;
  result.strategy_name = ElasticityStrategyName(config.strategy);
  result.latency_windows = engine_->latencies().windows();
  result.violations_p50 =
      engine_->latencies().CountViolations(50, config.sla_threshold_us);
  result.violations_p95 =
      engine_->latencies().CountViolations(95, config.sla_threshold_us);
  result.violations_p99 =
      engine_->latencies().CountViolations(99, config.sla_threshold_us);
  result.allocation = engine_->allocation_timeline();
  result.moves = migrator_->history();
  result.avg_machines = engine_->AverageNodesAllocated();
  result.submitted = engine_->txns_submitted();
  result.committed = engine_->txns_committed();
  result.aborted = engine_->txns_aborted();
  result.end_time = sim_.Now();
  if (pstore_) result.infeasible_cycles = pstore_->infeasible_cycles();
  const double window_seconds =
      DurationToSeconds(engine_->config().throughput_window);
  for (int64_t count : engine_->throughput_windows()) {
    result.throughput_txn_s.push_back(static_cast<double>(count) /
                                      window_seconds);
  }
  return result;
}

ExperimentConfig PstoreConfig() {
  ExperimentConfig config;
  config.strategy = ElasticityStrategy::kPStoreSpar;
  config.replay_days = 1;
  config.trace = B2wRegularTraffic(70, kTraceSeed);
  return config;
}

ExperimentConfig StaticK1Config() {
  ExperimentConfig config = PstoreConfig();
  config.strategy = ElasticityStrategy::kStatic;
  config.static_nodes = 10;
  auto& replication = config.engine.replication;
  replication.enabled = true;
  replication.k = 1;
  replication.durability.enabled = true;
  replication.durability.scrub_rate_kbps = 64.0;
  return config;
}

B2wSpec WindowSpec(ExperimentConfig config, const WorkloadOptions& options) {
  const bool smoke = options.smoke;
  B2wSpec spec;
  // RunElasticityExperiment's client seed when --seed is the default.
  spec.client_seed = options.seed ^ 0x5eedULL;
  if (smoke) {
    config.train_days = 8;
    config.trace.days = 9;
  }
  const int64_t day_start = static_cast<int64_t>(config.train_days) * 1440;
  spec.begin_minute = day_start + kWindowBeginHour * 60;
  spec.minutes = smoke ? kSmokeWindowMinutes : kWindowHours * 60;
  spec.config = std::move(config);
  return spec;
}

RunResult RunB2w(const B2wSpec& spec, LayerTracer* tracer) {
  const Layers layers = tracer != nullptr ? AddLayers(tracer, false)
                                          : Layers{};
  RunResult result;
  B2wHarness harness(spec, tracer, layers);
  const int64_t setup_start = SteadyNowNs();
  const Status st = harness.Setup();
  result.setup_s = static_cast<double>(SteadyNowNs() - setup_start) / 1e9;
  if (!st.ok()) {
    result.check_failures.push_back("setup failed: " + st.ToString());
    return result;
  }
  const int64_t replay_start = SteadyNowNs();
  {
    LayerTracer::Scope scope = EnterIf(tracer, layers.replay, 0);
    harness.Replay();
  }
  result.replay_s = static_cast<double>(SteadyNowNs() - replay_start) / 1e9;

  Fingerprint fp;
  const EngineReplay replay = harness.engine_replay();
  FinishEngineReplay(replay, &result, &fp);
  const PredictiveController* pstore = harness.pstore();
  const int64_t moves_started = pstore != nullptr ? pstore->moves_started() : 0;
  const int64_t infeasible = pstore != nullptr ? pstore->infeasible_cycles() : 0;
  result.layer["core.moves_started"] = static_cast<double>(moves_started);
  result.layer["core.infeasible_cycles"] = static_cast<double>(infeasible);
  fp.Add(moves_started);
  fp.Add(infeasible);

  const ClusterEngine& engine = harness.engine();
  if (const auto* replicas = engine.replication()) {
    const auto* content = replicas->content();
    if (engine.rows_lost() != 0) {
      result.check_failures.push_back("rows lost: " +
                                      std::to_string(engine.rows_lost()));
    }
    if (content != nullptr && content->corrupt_records_served() != 0) {
      result.check_failures.push_back("corrupt records served");
    }
    if (replicas->degraded_buckets() != 0) {
      result.check_failures.push_back(
          "buckets left degraded: " +
          std::to_string(replicas->degraded_buckets()));
    }
  }
  if (result.layer["migration.moves_aborted"] != 0) {
    result.check_failures.push_back("a migration aborted");
  }
  if (tracer != nullptr) {
    AddEngineLayerMetrics(replay, *tracer, layers, &result);
    AddCommonLayerMetrics(*tracer, layers, &result);
  }
  result.fingerprint = fp.value();
  return result;
}

/// Prints one compared field; returns whether it matched.
template <typename T>
bool Same(const char* what, const T& a, const T& b) {
  const bool same = a == b;
  std::printf("  %-22s %s\n", what, same ? "identical" : "DIFFERENT");
  return same;
}

bool SameWindows(const std::vector<WindowedPercentiles::Window>& a,
                 const std::vector<WindowedPercentiles::Window>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != b[i].start || a[i].count != b[i].count ||
        a[i].mean != b[i].mean || a[i].p50 != b[i].p50 ||
        a[i].p95 != b[i].p95 || a[i].p99 != b[i].p99 ||
        a[i].max != b[i].max) {
      return false;
    }
  }
  return true;
}

bool SameAllocation(const std::vector<AllocationEvent>& a,
                    const std::vector<AllocationEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at || a[i].nodes != b[i].nodes) return false;
  }
  return true;
}

bool CheckOne(const char* name, const ExperimentConfig& config) {
  std::printf("%s (1 replay day, seed %llu):\n", name,
              static_cast<unsigned long long>(config.trace.seed));
  auto reference = RunElasticityExperiment(config);
  B2wSpec spec;
  spec.config = config;
  spec.begin_minute = static_cast<int64_t>(config.train_days) * 1440;
  spec.minutes = static_cast<int64_t>(config.replay_days) * 1440;
  spec.client_seed = config.trace.seed ^ 0x5eedULL;
  B2wHarness harness(spec, nullptr, Layers{});
  const Status st = harness.Setup();
  if (!reference.ok() || !st.ok()) {
    std::printf("  run failed\n");
    return false;
  }
  harness.Replay();
  const ExperimentResult mine = harness.Collect();
  const ExperimentResult& ref = *reference;
  bool ok = true;
  ok &= Same("submitted", mine.submitted, ref.submitted);
  ok &= Same("committed", mine.committed, ref.committed);
  ok &= Same("aborted", mine.aborted, ref.aborted);
  ok &= Same("violations p50/95/99",
             std::vector<int64_t>{mine.violations_p50, mine.violations_p95,
                                  mine.violations_p99},
             std::vector<int64_t>{ref.violations_p50, ref.violations_p95,
                                  ref.violations_p99});
  ok &= Same("avg_machines", mine.avg_machines, ref.avg_machines);
  ok &= Same("moves", mine.moves, ref.moves);
  ok &= Same("infeasible_cycles", mine.infeasible_cycles,
             ref.infeasible_cycles);
  ok &= Same("end_time", mine.end_time, ref.end_time);
  ok &= Same("throughput windows", mine.throughput_txn_s,
             ref.throughput_txn_s);
  ok &= Same("latency windows", SameWindows(mine.latency_windows,
                                            ref.latency_windows), true);
  ok &= Same("allocation timeline",
             SameAllocation(mine.allocation, ref.allocation), true);
  std::printf("  submitted %lld, moves %zu: %s\n",
              static_cast<long long>(mine.submitted), mine.moves.size(),
              ok ? "bit-identical" : "MISMATCH");
  return ok;
}

}  // namespace

RunResult RunB2wPstore(const WorkloadOptions& options, LayerTracer* tracer) {
  return RunB2w(WindowSpec(PstoreConfig(), options), tracer);
}

RunResult RunB2wStaticK1(const WorkloadOptions& options,
                         LayerTracer* tracer) {
  return RunB2w(WindowSpec(StaticK1Config(), options), tracer);
}

bool CheckB2wWiring() {
  const bool pstore = CheckOne("b2w_pstore", PstoreConfig());
  const bool static_k1 = CheckOne("b2w_static_k1", StaticK1Config());
  return pstore && static_k1;
}

}  // namespace e2e
}  // namespace pstore
