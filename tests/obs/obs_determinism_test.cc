#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "cluster/engine.h"
#include "core/reactive_controller.h"
#include "migration/migration_executor.h"
#include "obs/exporter.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "storage/schema.h"
#include "txn/procedure.h"

/// Same-seed determinism of the observability layer end to end: two
/// instrumented runs of a small elastic cluster must produce
/// byte-identical metric dumps, span traces, event streams and sampled
/// CSVs — the contract chaos_run and tools/check_determinism.sh rely on.

namespace pstore {
namespace {

struct TelemetryDump {
  std::string metrics_json;
  std::string metrics_csv;
  std::string spans;
  std::string events;
  uint64_t metrics_fingerprint = 0;
  uint64_t span_fingerprint = 0;
  uint64_t event_fingerprint = 0;
  int64_t committed = 0;
  int64_t moves = 0;
};

TelemetryDump RunInstrumented(uint64_t seed) {
  Catalog catalog;
  const TableId table = *catalog.AddTable(Schema(
      "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
  ProcedureRegistry registry;
  const ProcedureId get = *registry.Register(ProcedureDef{
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

  Simulator sim;
  EngineConfig config;
  config.num_buckets = 64;
  config.partitions_per_node = 2;
  config.max_nodes = 4;
  config.initial_nodes = 1;
  config.txn_service_us_mean = 1000.0;
  config.txn_service_cv = 0.1;
  config.seed = seed;
  ClusterEngine engine(&sim, catalog, registry, config);

  obs::TelemetryBundle telemetry;
  telemetry.tracer.set_clock([&sim]() { return sim.Now(); });
  engine.set_telemetry(telemetry.view());

  const int64_t rows = 200;
  for (int64_t k = 0; k < rows; ++k) {
    EXPECT_TRUE(engine.LoadRow(table, Row({Value(k), Value(k)})).ok());
  }

  MigrationOptions migration;
  migration.chunk_kb = 100;
  migration.rate_kbps = 10000;
  migration.wire_kbps = 100000;
  migration.db_size_mb = 5;
  MigrationExecutor migrator(&engine, migration);
  migrator.set_telemetry(telemetry.view());

  ReactiveConfig reactive;
  reactive.q = 100.0;
  reactive.q_hat = 125.0;
  reactive.high_watermark = 0.9;
  reactive.monitor_period = kSecond;
  reactive.scale_in_hold = 5 * kSecond;
  ReactiveController controller(&engine, &migrator, reactive);
  controller.set_telemetry(telemetry.view());
  controller.Start();

  obs::TimeseriesExporter exporter(&telemetry.metrics);
  auto sample = std::make_shared<std::function<void()>>();
  // Raw-pointer capture: `sample` outlives the run, and a shared_ptr
  // capture would be a reference cycle that never frees the closure.
  *sample = [&sim, &exporter, tick = sample.get()]() {
    exporter.Sample(sim.Now());
    sim.Schedule(kSecond, *tick);
  };
  sim.Schedule(0, *sample);

  // A ramp that forces a scale-out: 50 txn/s for 10 s, then 400 txn/s.
  const double seconds = 30.0;
  int64_t i = 0;
  for (double t = 0; t < seconds; ++i) {
    TxnRequest req;
    req.proc = get;
    req.key = (i * 48271) % rows;
    sim.ScheduleAt(SecondsToDuration(t),
                   [&engine, req]() { engine.Submit(req); });
    t += t < 10.0 ? 1.0 / 50.0 : 1.0 / 400.0;
  }

  sim.RunUntil(SecondsToDuration(seconds));
  controller.Stop();
  sim.RunUntil(SecondsToDuration(seconds + 10));

  TelemetryDump out;
  out.metrics_json = telemetry.metrics.DumpJson();
  out.metrics_csv = exporter.ToCsv();
  out.spans = telemetry.tracer.ToString();
  out.events = telemetry.events.ToString();
  out.metrics_fingerprint = telemetry.metrics.Fingerprint();
  out.span_fingerprint = telemetry.tracer.Fingerprint();
  out.event_fingerprint = telemetry.events.Fingerprint();
  out.committed = engine.txns_committed();
  out.moves = static_cast<int64_t>(migrator.history().size());
  EXPECT_EQ(telemetry.tracer.mismatches(), 0);
  EXPECT_EQ(telemetry.tracer.open_spans(), 0u);
  return out;
}

TEST(ObsDeterminismTest, SameSeedSameDumps) {
  const TelemetryDump a = RunInstrumented(7);
  const TelemetryDump b = RunInstrumented(7);
  EXPECT_EQ(a.metrics_fingerprint, b.metrics_fingerprint);
  EXPECT_EQ(a.span_fingerprint, b.span_fingerprint);
  EXPECT_EQ(a.event_fingerprint, b.event_fingerprint);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.committed, b.committed);
}

TEST(ObsDeterminismTest, InstrumentedRunRecordsTheRun) {
  const TelemetryDump dump = RunInstrumented(11);
  EXPECT_GT(dump.committed, 0);
  // The ramp overloads one node, so the reactive controller must have
  // scaled out at least once — visible in metrics, spans and events.
  EXPECT_GE(dump.moves, 1);
  EXPECT_NE(dump.metrics_json.find("\"cluster.txn_committed\": " +
                                   std::to_string(dump.committed)),
            std::string::npos);
  EXPECT_NE(dump.metrics_json.find("\"reactive.scale_outs\""),
            std::string::npos);
  EXPECT_NE(dump.spans.find("migration.move"), std::string::npos);
  EXPECT_NE(dump.events.find("reactive: overload"), std::string::npos);
  EXPECT_EQ(dump.metrics_csv.substr(0, 7), "time_s,");
}

TEST(ObsDeterminismTest, DifferentSeedsDiverge) {
  const TelemetryDump a = RunInstrumented(7);
  const TelemetryDump b = RunInstrumented(8);
  // Service-time jitter differs, so latency histograms must differ.
  EXPECT_NE(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace pstore
