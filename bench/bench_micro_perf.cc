/// Micro-benchmarks (google-benchmark) for the hot components: the DP
/// planner (runs every control interval online), SPAR fit/predict/refit,
/// the migration schedule generator, partition-map assignment and
/// rebalancing, the storage row index, row lifecycle and B2W line-item
/// codec that procedure bodies spend their time in, the engine's transaction
/// path on the virtual clock, and the B2W trace generator.
///
/// Unlike the figure harnesses, this binary measures *wall-clock* cost,
/// so its output feeds the regression gate: a custom reporter collects
/// every case into bench_out/BENCH_micro_perf.json (schema in
/// bench_util.h) and tools/bench_compare diffs that against the
/// committed baseline in bench/baselines/.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/engine.h"
#include "common/rng.h"
#include "core/reactive_controller.h"
#include "migration/migration_executor.h"
#include "migration/parallel_schedule.h"
#include "obs/telemetry.h"
#include "planner/dp_planner.h"
#include "prediction/spar.h"
#include "sim/simulator.h"
#include "sim/strategies.h"
#include "storage/fragment.h"
#include "storage/partition_map.h"
#include "storage/schema.h"
#include "txn/procedure.h"
#include "workload/b2w_schema.h"
#include "workload/b2w_trace.h"

namespace pstore {
namespace {

MoveModelConfig PlannerConfig() {
  MoveModelConfig config;
  config.q = 285.0;
  config.partitions_per_node = 6;
  config.d_minutes = 85.0;
  config.interval_minutes = 5.0;
  return config;
}

void BM_DpPlannerSineHorizon(benchmark::State& state) {
  const int32_t horizon = static_cast<int32_t>(state.range(0));
  DpPlanner planner((MoveModel(PlannerConfig())));
  std::vector<double> load(static_cast<size_t>(horizon) + 1);
  for (size_t t = 0; t < load.size(); ++t) {
    load[t] = 1500 + 1200 * std::sin(0.3 * static_cast<double>(t));
  }
  const int32_t n0 = planner.NodesForLoad(load[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.BestMoves(load, n0));
  }
}
BENCHMARK(BM_DpPlannerSineHorizon)->Arg(12)->Arg(24)->Arg(56)->Arg(288);

// One P-Store decision cycle on the production path (Sec. 8.3's
// capacity study): SPAR forecasts range(0) five-minute slots ahead and
// a planner capped at 40 machines, whose move tables are built once,
// plans over them. Every iteration decides the same morning-ramp minute,
// so each does identical work.
void BM_PStoreStrategyDecide(benchmark::State& state) {
  const int32_t horizon = static_cast<int32_t>(state.range(0));
  constexpr int32_t kSlot = 5;
  constexpr int64_t kTrainDays = 28;
  std::vector<double> load(static_cast<size_t>(kTrainDays + 2) * 1440);
  Rng rng(3);
  for (size_t m = 0; m < load.size(); ++m) {
    const double day = 2 * M_PI * static_cast<double>(m % 1440) / 1440.0;
    load[m] = (1500 - 1300 * std::cos(day)) * (1 + 0.02 * rng.NextGaussian());
  }
  std::vector<double> slots(static_cast<size_t>(kTrainDays) * 1440 / kSlot);
  for (size_t s = 0; s < slots.size(); ++s) {
    for (int32_t j = 0; j < kSlot; ++j) slots[s] += load[s * kSlot + j];
    slots[s] /= kSlot;
  }
  SparConfig spar;
  spar.period = 1440 / kSlot;
  spar.num_periods = 7;
  spar.num_recent = 6;
  auto predictor = std::make_unique<SparPredictor>(spar);
  if (!predictor->Fit(slots, horizon).ok()) state.SkipWithError("fit failed");

  PStoreStrategyConfig config;
  config.move_model = PlannerConfig();
  config.move_model.q = 0.65 * 438.0;
  config.horizon_intervals = horizon;
  config.max_machines = 40;
  PStoreStrategy strategy(config, std::move(predictor), "P-Store SPAR");
  const int64_t minute = kTrainDays * 1440 + 9 * 60;
  const int32_t current = static_cast<int32_t>(
      std::ceil(load[static_cast<size_t>(minute)] / config.move_model.q));
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Decide(load, minute, current));
  }
}
BENCHMARK(BM_PStoreStrategyDecide)->Arg(12)->Arg(48);

void BM_SparPredict(benchmark::State& state) {
  SparConfig config;
  config.period = 288;
  config.num_periods = 7;
  config.num_recent = 6;
  std::vector<double> series(288 * 30);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = 100 + 50 * std::sin(2 * M_PI * (t % 288) / 288.0);
  }
  SparPredictor predictor(config);
  if (!predictor.Fit(series, 12).ok()) state.SkipWithError("fit failed");
  const int64_t t = static_cast<int64_t>(series.size()) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Forecast(series, t, 12));
  }
}
BENCHMARK(BM_SparPredict);

// Fits `horizons` taus on four weeks of 5-minute slots: 4 in the plain
// case, 48 (BM_SparFit/48) as the capacity study does.
void BM_SparFit(benchmark::State& state, int32_t horizons) {
  SparConfig config;
  config.period = 288;
  config.num_periods = 7;
  config.num_recent = 6;
  std::vector<double> series(288 * 28);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = 100 + 50 * std::sin(2 * M_PI * (t % 288) / 288.0);
  }
  for (auto _ : state) {
    SparPredictor predictor(config);
    benchmark::DoNotOptimize(predictor.Fit(series, horizons));
  }
}
void BM_SparFit(benchmark::State& state) { BM_SparFit(state, 4); }
BENCHMARK(BM_SparFit);
BENCHMARK_CAPTURE(BM_SparFit, 48, 48);

// One predictive-controller refit tick: the model was fitted up to slot
// L, six new measurements arrived, Refit must absorb them. Starts each
// iteration from a copy of the same fitted predictor so every tick does
// identical work.
void BM_SparRefitTick(benchmark::State& state) {
  SparConfig config;
  config.period = 288;
  config.num_periods = 7;
  config.num_recent = 6;
  std::vector<double> series(288 * 28);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = 100 + 50 * std::sin(2 * M_PI * (t % 288) / 288.0);
  }
  std::vector<double> prefix(series.begin(), series.end() - 6);
  SparPredictor fitted(config);
  if (!fitted.Fit(prefix, 4).ok()) state.SkipWithError("fit failed");
  for (auto _ : state) {
    SparPredictor predictor = fitted;
    benchmark::DoNotOptimize(predictor.Refit(series, 4));
  }
}
BENCHMARK(BM_SparRefitTick);

void BM_BuildMoveSchedule(benchmark::State& state) {
  const int32_t a = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMoveSchedule(3, a));
  }
}
BENCHMARK(BM_BuildMoveSchedule)->Arg(14)->Arg(40);

// Full (before, after) sweep of the schedule generator, covering both
// scale-out and scale-in shapes at the sizes the controllers request.
void BM_MigrationScheduleGeneration(benchmark::State& state) {
  const int32_t b = static_cast<int32_t>(state.range(0));
  const int32_t a = static_cast<int32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMoveSchedule(b, a));
  }
}
BENCHMARK(BM_MigrationScheduleGeneration)
    ->Args({3, 14})
    ->Args({14, 3})
    ->Args({6, 40})
    ->Args({14, 84});

void BM_PartitionMapRebalance(benchmark::State& state) {
  PartitionMap map(1024, 18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Rebalanced(84));
  }
}
BENCHMARK(BM_PartitionMapRebalance);

// Assignment churn: the per-bucket update path that crash failover and
// migration hammer (a failover reassigns every bucket of a dead node).
void BM_PartitionMapAssign(benchmark::State& state) {
  constexpr int32_t kBuckets = 1024;
  constexpr int32_t kPartitions = 84;
  PartitionMap map(kBuckets, kPartitions);
  Rng rng(7);
  for (auto _ : state) {
    for (int32_t i = 0; i < kBuckets; ++i) {
      const BucketId b = static_cast<BucketId>(rng.NextBounded(kBuckets));
      const PartitionId p =
          static_cast<PartitionId>(rng.NextBounded(kPartitions));
      map.Assign(b, p);
    }
    benchmark::DoNotOptimize(map.PartitionOfBucket(0));
  }
  state.SetItemsProcessed(state.iterations() * kBuckets);
}
BENCHMARK(BM_PartitionMapAssign);

// Random point reads and upserts, half each, over 200k KV rows spread
// across one node's six fragments the way the engine places them: the
// row-index lookup every procedure body pays.
void BM_FragmentPointOps(benchmark::State& state) {
  constexpr int64_t kRows = 200000;
  constexpr int32_t kBuckets = 1024;
  constexpr int32_t kPartitions = 6;
  Catalog catalog;
  const TableId table = *catalog.AddTable(Schema(
      "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
  const PartitionMap map(kBuckets, kPartitions);
  std::vector<std::unique_ptr<StorageFragment>> fragments;
  for (int32_t p = 0; p < kPartitions; ++p) {
    fragments.push_back(std::make_unique<StorageFragment>(&catalog, kBuckets));
  }
  for (int64_t k = 0; k < kRows; ++k) {
    const Row row({Value(k), Value(k)});
    if (!fragments[static_cast<size_t>(map.PartitionOfKey(k))]
             ->Insert(table, row)
             .ok()) {
      state.SkipWithError("preload failed");
      return;
    }
  }
  Rng rng(5);
  int64_t op = 0;
  for (auto _ : state) {
    const auto key = static_cast<int64_t>(rng.NextBounded(kRows));
    StorageFragment& frag =
        *fragments[static_cast<size_t>(map.PartitionOfKey(key))];
    if (++op % 2 == 0) {
      benchmark::DoNotOptimize(frag.Get(table, key));
    } else {
      benchmark::DoNotOptimize(
          frag.Upsert(table, Row({Value(key), Value(op)})));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FragmentPointOps);

// One cart update's codec work: decode a three-item `lines` column,
// append an item, and encode it back.
void BM_B2wLineCodec(benchmark::State& state) {
  const std::string encoded = EncodeLines(
      {{1234567, 2, 19.99}, {98765432, 1, 5.5}, {555, 10, 1299.0}});
  for (auto _ : state) {
    auto lines = DecodeLines(encoded);
    lines->push_back(LineItem{42, 3, 7.25});
    benchmark::DoNotOptimize(EncodeLines(*lines));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_B2wLineCodec);

// The 137-day August-December B2W trace (197,280 minutes) the capacity
// study and Fig. 13 replay.
void BM_B2wTraceGen(benchmark::State& state) {
  const B2wTraceConfig config = B2wAugustToDecember();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateB2wTrace(config));
  }
}
BENCHMARK(BM_B2wTraceGen);

// One cart row's life on the write path: build a B2W-cart-shaped row
// (two BIGINTs, an inline and a heap string, a DOUBLE), share its body
// the way a fragment and its backups do, clone it through Set
// (copy-on-write), then release both.
void BM_RowLifecycle(benchmark::State& state) {
  const std::string lines =
      EncodeLines({{1234567, 2, 19.99}, {98765432, 1, 5.5}});
  int64_t id = 0;
  for (auto _ : state) {
    ++id;
    Row row({Value(id), Value(id * 7), Value("ACTIVE"), Value(45.48),
             Value(lines)});
    Row shared = row;
    shared.Set(b2w_cols::kCartTotal, Value(50.0));
    benchmark::DoNotOptimize(row);
    benchmark::DoNotOptimize(shared);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowLifecycle);

struct EngineFixture {
  Simulator sim;
  ProcedureId put{};
  std::unique_ptr<ClusterEngine> engine;

  EngineFixture() {
    Catalog catalog;
    const TableId table = *catalog.AddTable(Schema(
        "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
    ProcedureRegistry registry;
    put = *registry.Register(ProcedureDef{
        "Put",
        [table](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          r.status = ctx.Upsert(table,
                                Row({Value(req.key), Value(int64_t{1})}));
          return r;
        },
        1.0});
    EngineConfig config;
    config.num_buckets = 1024;
    config.partitions_per_node = 6;
    config.max_nodes = 4;
    config.initial_nodes = 4;
    config.txn_service_us_mean = 100.0;
    config.txn_service_cv = 0.1;
    engine = std::make_unique<ClusterEngine>(&sim, catalog, registry, config);
  }
};

void BM_EngineTxnPath(benchmark::State& state) {
  EngineFixture fx;
  int64_t key = 0;
  for (auto _ : state) {
    TxnRequest req;
    req.proc = fx.put;
    req.key = ++key;
    fx.engine->Submit(std::move(req));
    fx.sim.RunUntil(fx.sim.Now() + 200);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineTxnPath);

// Group intake: 64 transactions arrive at the same instant and the
// engine drains them — the shape the admission path sees at high load.
void BM_EngineTxnPathBatch(benchmark::State& state) {
  constexpr int64_t kBatch = 64;
  EngineFixture fx;
  int64_t key = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < kBatch; ++i) {
      TxnRequest req;
      req.proc = fx.put;
      req.key = ++key;
      fx.engine->Submit(std::move(req));
    }
    fx.sim.RunUntil(fx.sim.Now() + kBatch * 200);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EngineTxnPathBatch);

// One reactive-controller monitor tick over a live engine: sample the
// submitted-rate counters, smooth, compare against the watermarks. The
// watermarks are pinned so no tick ever triggers a migration — this
// isolates the recurring monitoring cost every elastic run pays. The
// case fails if a move starts anyway.
void BM_ControllerTick(benchmark::State& state) {
  EngineFixture fx;
  MigrationOptions migration;
  migration.chunk_kb = 100;
  migration.rate_kbps = 10000;
  migration.wire_kbps = 100000;
  migration.db_size_mb = 10;
  MigrationExecutor migrator(fx.engine.get(), migration);
  ReactiveConfig reactive;
  reactive.q = 100.0;
  reactive.q_hat = 125.0;
  reactive.monitor_period = kSecond;
  // Scale in only below 0.001 * q * 3 = 0.3 txn/s; the smoothed rate of
  // one txn per tick is at least 0.5 from the first tick on.
  reactive.low_watermark = 0.001;
  ReactiveController controller(fx.engine.get(), &migrator, reactive);
  controller.Start();
  int64_t key = 0;
  for (auto _ : state) {
    TxnRequest req;
    req.proc = fx.put;
    req.key = ++key;
    fx.engine->Submit(std::move(req));
    fx.sim.RunUntil(fx.sim.Now() + reactive.monitor_period);
    if (!migrator.history().empty()) {
      state.SkipWithError("the controller started a move");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerTick);

// The engine txn path with a TxnTraceRecorder attached, at sampling
// rate range(0)%. Rate 0 is the default-off configuration and must cost
// the same as BM_EngineTxnPath (one cached-null pointer test); rate 100
// bounds the worst-case per-txn tracing overhead. The record cap keeps
// memory flat once the trace fills; later samples take the counted-drop
// path, which is the steady state of a long traced run.
void BM_ObsSamplingOverhead(benchmark::State& state) {
  EngineFixture fx;
  obs::TelemetryBundle telemetry;
  obs::TxnTraceRecorder::Config tc;
  tc.sample_rate = static_cast<double>(state.range(0)) / 100.0;
  tc.max_records = 1 << 16;
  telemetry.txn_traces.Configure(tc);
  fx.engine->set_telemetry(telemetry.view());
  int64_t key = 0;
  for (auto _ : state) {
    TxnRequest req;
    req.proc = fx.put;
    req.key = ++key;
    fx.engine->Submit(std::move(req));
    fx.sim.RunUntil(fx.sim.Now() + 200);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSamplingOverhead)->Arg(0)->Arg(100);

/// Console output as usual, plus one BenchCaseResult per case for the
/// JSON result file the regression gate reads: the case's run, or with
/// --benchmark_repetitions the median over its repetitions.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const bool single =
          run.run_type == Run::RT_Iteration && run.repetitions <= 1;
      const bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
      if (!single && !median) continue;
      bench::BenchCaseResult result;
      result.name = run.run_name.str();
      result.value = run.GetAdjustedRealTime();  // default unit: ns/op
      result.unit = "ns/op";
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) result.items_per_s = it->second;
      result.iterations = static_cast<int64_t>(run.iterations);
      cases_.push_back(std::move(result));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<bench::BenchCaseResult>& cases() const { return cases_; }

 private:
  std::vector<bench::BenchCaseResult> cases_;
};

}  // namespace
}  // namespace pstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // SPAR's Fit starts threads, and once a process has started one,
  // glibc's malloc takes its locked multi-threaded path for good. Start
  // every case in that mode, so no case's time depends on whether the
  // interleaving ran a fit before it.
  std::thread([] {}).join();
  pstore::JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!pstore::bench::WriteBenchJson("micro_perf", "perf",
                                     reporter.cases())) {
    return 1;
  }
  return 0;
}
