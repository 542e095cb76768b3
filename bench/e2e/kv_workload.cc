// kv_rebalance: a benchmark-owned key-value table under an open-loop
// Poisson stream of cheap point reads and writes, while the benchmark's
// own client reconfigures the cluster between 4 and 8 nodes. Bodies cost
// little here, so the engine's per-txn machinery and the event loop
// dominate host time, and tail latency under moves shows.

#include <memory>

#include "common/rng.h"
#include "workload.h"
#include "wrappers.h"

namespace pstore {
namespace e2e {

namespace {

struct KvSize {
  int64_t rows;
  double txn_rate;        ///< Offered txn/s of virtual time.
  SimDuration duration;   ///< Virtual time load is offered.
  SimDuration move_every; ///< Reconfiguration attempt period.
};

constexpr KvSize kFull{200000, 20000.0, 120 * kSecond, 30 * kSecond};
constexpr KvSize kSmoke{20000, 5000.0, 10 * kSecond, 3 * kSecond};
constexpr double kPutFraction = 0.2;
constexpr int32_t kSmallCluster = 4;
constexpr int32_t kLargeCluster = 8;

/// One pre-generated request: the workload's input, made from the seed
/// before the replay starts.
struct KvOp {
  SimTime due = 0;
  int64_t key = 0;
  bool put = false;
};

std::vector<KvOp> GenerateOps(const KvSize& size, uint64_t seed) {
  Rng rng(seed);
  std::vector<KvOp> ops;
  ops.reserve(static_cast<size_t>(size.txn_rate *
                                  DurationToSeconds(size.duration) * 1.01));
  double t_s = 0;
  const double end_s = DurationToSeconds(size.duration);
  while (true) {
    t_s += rng.NextExponential(size.txn_rate);
    if (t_s >= end_s) break;
    KvOp op;
    op.due = SecondsToDuration(t_s);
    op.key = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(size.rows)));
    op.put = rng.NextBernoulli(kPutFraction);
    ops.push_back(op);
  }
  return ops;
}

/// The benchmark's client: submits each op at its due time and toggles
/// the cluster size on a fixed period.
class KvClient {
 public:
  KvClient(Simulator* sim, ClusterEngine* engine, MigrationExecutor* migrator,
           const std::vector<KvOp>* ops, ProcedureId get, ProcedureId put,
           LayerTracer* tracer, const Layers& layers)
      : sim_(sim),
        engine_(engine),
        migrator_(migrator),
        ops_(ops),
        get_(get),
        put_(put),
        tracer_(tracer),
        layers_(layers),
        done_(ops->size(), 0) {}

  void Start(SimDuration move_every, SimTime move_until) {
    if (!ops_->empty()) {
      sim_->ScheduleAt(ops_->front().due, [this]() { Arrive(); });
    }
    move_every_ = move_every;
    move_until_ = move_until;
    sim_->Schedule(move_every_, [this]() { Toggle(); });
  }

  /// Completion callbacks that fired other than exactly once.
  int64_t callbacks_not_once() const {
    int64_t bad = 0;
    for (uint8_t d : done_) bad += d != 1;
    return bad;
  }
  int64_t moves_requested() const { return moves_requested_; }
  int64_t moves_refused() const { return moves_refused_; }

 private:
  void Arrive() {
    const size_t i = next_++;
    const KvOp& op = (*ops_)[i];
    TxnRequest req;
    req.key = op.key;
    if (op.put) {
      req.proc = put_;
      req.args = {Value(static_cast<int64_t>(i))};
    } else {
      req.proc = get_;
    }
    {
      LayerTracer::Scope scope =
          EnterIf(tracer_, layers_.submit, static_cast<int64_t>(i));
      engine_->Submit(std::move(req),
                      [this, i](const TxnResult&) { ++done_[i]; });
    }
    if (next_ < ops_->size()) {
      sim_->ScheduleAt((*ops_)[next_].due, [this]() { Arrive(); });
    }
  }

  void Toggle() {
    if (!migrator_->InProgress()) {
      const int32_t target = engine_->active_nodes() == kSmallCluster
                                 ? kLargeCluster
                                 : kSmallCluster;
      LayerTracer::Scope scope =
          EnterIf(tracer_, layers_.start_move, moves_requested_);
      ++moves_requested_;
      if (!migrator_->StartMove(target, nullptr).ok()) ++moves_refused_;
    }
    if (sim_->Now() + move_every_ < move_until_) {
      sim_->Schedule(move_every_, [this]() { Toggle(); });
    }
  }

  Simulator* sim_;
  ClusterEngine* engine_;
  MigrationExecutor* migrator_;
  const std::vector<KvOp>* ops_;
  ProcedureId get_;
  ProcedureId put_;
  LayerTracer* tracer_;
  Layers layers_;
  std::vector<uint8_t> done_;
  size_t next_ = 0;
  SimDuration move_every_ = 0;
  SimTime move_until_ = 0;
  int64_t moves_requested_ = 0;
  int64_t moves_refused_ = 0;
};

}  // namespace

RunResult RunKvRebalance(const WorkloadOptions& options, LayerTracer* tracer) {
  const KvSize& size = options.smoke ? kSmoke : kFull;
  const Layers layers = tracer != nullptr ? AddLayers(tracer, false)
                                          : Layers{};
  RunResult result;
  const int64_t setup_start = SteadyNowNs();

  std::vector<KvOp> ops;
  {
    LayerTracer::Scope scope = EnterIf(tracer, layers.trace_gen, 0);
    ops = GenerateOps(size, options.seed);
  }

  Catalog catalog;
  const TableId table = *catalog.AddTable(Schema(
      "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
  ProcedureRegistry registry;
  const ProcedureId get = *registry.Register(ProcedureDef{
      "Get",
      [table](ExecutionContext& ctx, const TxnRequest& req) {
        TxnResult r;
        auto row = ctx.Get(table, req.key);
        if (row.ok()) {
          r.rows.push_back(std::move(*row));
        } else {
          r.status = row.status();
        }
        return r;
      },
      1.0});
  const ProcedureId put = *registry.Register(ProcedureDef{
      "Put",
      [table](ExecutionContext& ctx, const TxnRequest& req) {
        TxnResult r;
        r.status = ctx.Upsert(table, Row({Value(req.key), req.args[0]}));
        return r;
      },
      1.0});
  if (tracer != nullptr) {
    registry = *TraceProcedures(registry, tracer, layers.body);
  }

  EngineConfig engine_config;
  engine_config.partitions_per_node = 6;
  engine_config.max_nodes = kLargeCluster;
  engine_config.initial_nodes = kSmallCluster;
  engine_config.txn_service_us_mean = 500.0;
  engine_config.seed = options.seed;

  MigrationOptions migration;
  migration.chunk_kb = 100.0;
  migration.rate_kbps = 150.0;
  migration.db_size_mb = 100.0;

  // Declared before the engine: the engine caches pointers into it.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (tracer != nullptr) metrics = std::make_unique<obs::MetricsRegistry>();
  obs::Telemetry telemetry;
  telemetry.metrics = metrics.get();

  Simulator sim;
  ClusterEngine engine(&sim, catalog, std::move(registry), engine_config);
  engine.set_telemetry(telemetry);
  {
    LayerTracer::Scope scope = EnterIf(tracer, layers.preload, 0);
    for (int64_t k = 0; k < size.rows; ++k) {
      const Status st = engine.LoadRow(table, Row({Value(k), Value(k)}));
      if (!st.ok()) {
        result.check_failures.push_back("preload: " + st.ToString());
        return result;
      }
    }
  }
  MigrationExecutor migrator(&engine, migration);
  migrator.set_telemetry(telemetry);
  KvClient client(&sim, &engine, &migrator, &ops, get, put, tracer, layers);
  result.setup_s = static_cast<double>(SteadyNowNs() - setup_start) / 1e9;

  SliceCost slices;
  const int64_t replay_start = SteadyNowNs();
  {
    LayerTracer::Scope scope = EnterIf(tracer, layers.replay, 0);
    client.Start(size.move_every, size.duration);
    RunSliced(&sim, size.duration, engine, migrator, &slices);
    // Drain queued work and let an in-flight move land.
    RunSliced(&sim, size.duration + 60 * kSecond, engine, migrator, &slices);
    engine.mutable_latencies().Flush(sim.Now());
  }
  result.replay_s = static_cast<double>(SteadyNowNs() - replay_start) / 1e9;

  EngineReplay replay;
  replay.sim = &sim;
  replay.engine = &engine;
  replay.migrator = &migrator;
  replay.metrics = metrics.get();
  replay.offered_s = DurationToSeconds(size.duration);
  replay.replay_events = sim.events_executed();
  replay.slices = slices;
  Fingerprint fp;
  FinishEngineReplay(replay, &result, &fp);
  fp.Add(client.moves_requested());

  if (client.callbacks_not_once() != 0) {
    result.check_failures.push_back(
        "completion callbacks not fired exactly once: " +
        std::to_string(client.callbacks_not_once()));
  }
  if (engine.TotalRowCount() != size.rows + engine.rows_net_created()) {
    result.check_failures.push_back("row count not conserved");
  }
  if (engine.txns_aborted() != 0) {
    result.check_failures.push_back("point reads/writes aborted");
  }
  if (client.moves_refused() != 0 || migrator.InProgress()) {
    result.check_failures.push_back("a reconfiguration was refused or unfinished");
  }
  result.failed += client.moves_refused();
  if (tracer != nullptr) {
    AddEngineLayerMetrics(replay, *tracer, layers, &result);
    AddCommonLayerMetrics(*tracer, layers, &result);
  }
  result.fingerprint = fp.value();
  return result;
}

}  // namespace e2e
}  // namespace pstore
