#include "obs/txn_trace.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "common/json.h"
#include "obs/exporter.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "storage/schema.h"
#include "txn/procedure.h"

/// Transaction lifecycle tracing: the sampling/attribution unit
/// contract (intervals sum to end-to-end latency, migration overlap is
/// a window union, drops are counted), golden same-seed determinism of
/// engine-threaded traces — including an overload ("spike") run that
/// exercises the shed path — and the structural validity of the Chrome
/// trace_event export.

namespace pstore {
namespace obs {
namespace {

TxnTraceRecorder MakeRecorder(double rate, uint64_t seed = 7,
                              size_t max_records = 0) {
  TxnTraceRecorder::Config config;
  config.sample_rate = rate;
  config.seed = seed;
  config.max_records = max_records;
  return TxnTraceRecorder(config);
}

TEST(TxnTraceRecorderTest, DisabledRecorderDrawsAndStoresNothing) {
  TxnTraceRecorder recorder;  // default config: rate 0
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.Sample(1, "Get", 0, 10), -1);
  EXPECT_EQ(recorder.sampled(), 0);
  EXPECT_TRUE(recorder.records().empty());
  // Records on the -1 handle are no-ops, never crashes.
  recorder.Record(-1, TxnPhase::kExecuting, 20);
  recorder.Finalize(-1, 30);
  EXPECT_EQ(recorder.ToString(), "");
}

TEST(TxnTraceRecorderTest, PhaseIntervalsSumToEndToEndLatency) {
  TxnTraceRecorder recorder = MakeRecorder(1.0);
  const int64_t h = recorder.Sample(42, "Put", 3, 100);
  ASSERT_GE(h, 0);
  recorder.Record(h, TxnPhase::kAdmitted, 150, 1);
  recorder.Record(h, TxnPhase::kExecuting, 400, 1);
  recorder.Record(h, TxnPhase::kReplicated, 900, 2);
  recorder.Record(h, TxnPhase::kCommitted, 900);
  recorder.Finalize(h, 900);

  const TxnTraceRecord& record = recorder.records()[0];
  EXPECT_TRUE(record.done);
  const std::vector<TxnPhaseInterval> intervals = PhaseIntervals(record);
  ASSERT_EQ(intervals.size(), 4u);
  EXPECT_STREQ(intervals[0].phase, "admission");
  EXPECT_STREQ(intervals[1].phase, "queued");
  EXPECT_STREQ(intervals[2].phase, "executing");
  EXPECT_STREQ(intervals[3].phase, "replicating");
  SimDuration sum = 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_LE(intervals[i].start, intervals[i].end);
    if (i > 0) {
      EXPECT_EQ(intervals[i].start, intervals[i - 1].end);
    }
    sum += intervals[i].end - intervals[i].start;
  }
  EXPECT_EQ(sum, 900 - 100);  // attribution == end-to-end latency
}

TEST(TxnTraceRecorderTest, MigrationOverlapIsAWindowUnion) {
  TxnTraceRecorder recorder = MakeRecorder(1.0);
  // Two overlapping moves ([100, 300] and [200, 400]) and one open move
  // from 450: a txn alive over [0, 500] overlaps 100..400 and 450..500,
  // with the doubly-covered 200..300 counted once.
  recorder.OnMoveStarted(100);
  recorder.OnMoveStarted(200);
  recorder.OnMoveEnded(300);
  recorder.OnMoveEnded(400);
  recorder.OnMoveStarted(450);
  const int64_t h = recorder.Sample(1, "Get", 0, 0);
  ASSERT_GE(h, 0);
  recorder.Record(h, TxnPhase::kCommitted, 500);
  recorder.Finalize(h, 500);
  EXPECT_EQ(recorder.records()[0].migration_overlap, (400 - 100) + 50);
}

TEST(TxnTraceRecorderTest, RetransmitsScopedToTheTxnLifetime) {
  TxnTraceRecorder recorder = MakeRecorder(1.0);
  recorder.NoteRetransmit();  // before the txn exists: not attributed
  const int64_t h = recorder.Sample(1, "Get", 0, 10);
  ASSERT_GE(h, 0);
  recorder.NoteRetransmit();
  recorder.NoteRetransmit();
  recorder.Finalize(h, 20);
  EXPECT_EQ(recorder.records()[0].retransmits_seen, 2);
}

TEST(TxnTraceRecorderTest, RecordCapCountsDrops) {
  TxnTraceRecorder recorder = MakeRecorder(1.0, 7, 2);
  int64_t kept = 0;
  for (int64_t i = 0; i < 5; ++i) {
    if (recorder.Sample(i, "Get", 0, i) >= 0) ++kept;
  }
  EXPECT_EQ(kept, 2);
  EXPECT_EQ(recorder.records().size(), 2u);
  EXPECT_EQ(recorder.sampled(), 5);
  EXPECT_EQ(recorder.dropped(), 3);
}

TEST(TxnTraceRecorderTest, SamplingIsDeterministicPerSeed) {
  TxnTraceRecorder a = MakeRecorder(0.5, 11);
  TxnTraceRecorder b = MakeRecorder(0.5, 11);
  TxnTraceRecorder c = MakeRecorder(0.5, 12);
  int64_t c_diverged = 0;
  for (int64_t i = 0; i < 200; ++i) {
    const int64_t ha = a.Sample(i, "Get", 0, i);
    EXPECT_EQ(ha, b.Sample(i, "Get", 0, i));
    if ((ha >= 0) != (c.Sample(i, "Get", 0, i) >= 0)) ++c_diverged;
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_GT(c_diverged, 0);  // a different seed samples differently
}

// ---------------------------------------------------------------------
// Engine-threaded traces: golden determinism and structural validity.

struct TracedRun {
  int64_t committed = 0;
  int64_t sampled = 0;
  uint64_t fingerprint = 0;
  std::string dump;
  std::string chrome_json;
  std::vector<TxnTraceRecord> records;
};

/// Drives a small cluster with tracing at `rate`; with `spike` the
/// admission layer is enabled and the offered load overruns one node so
/// shed/deadline terminals appear in the traces (the chaos_run spike
/// shape, scaled down).
TracedRun RunTraced(uint64_t seed, double rate, bool spike) {
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
  config.num_buckets = 32;
  config.partitions_per_node = 2;
  config.max_nodes = 2;
  config.initial_nodes = 2;
  config.txn_service_us_mean = 1000.0;
  config.txn_service_cv = 0.1;
  config.seed = seed;
  if (spike) {
    config.overload.enabled = true;
    config.overload.max_queue_depth = 4;
    config.overload.queue_deadline = 10 * kMillisecond;
  }
  ClusterEngine engine(&sim, catalog, registry, config);

  TelemetryBundle telemetry;
  telemetry.tracer.set_clock([&sim]() { return sim.Now(); });
  TxnTraceRecorder::Config tc;
  tc.sample_rate = rate;
  tc.seed = seed ^ 0xa0761d6478bd642fULL;
  telemetry.txn_traces.Configure(tc);
  engine.set_telemetry(telemetry.view());

  for (int64_t k = 0; k < 32; ++k) {
    EXPECT_TRUE(engine.LoadRow(table, Row({Value(k), Value(k)})).ok());
  }

  // 2 s at 200 txn/s against ~4 partitions of 1 ms service: healthy
  // without the spike. With it, a one-instant burst of 100 txns into a
  // single bucket overruns the depth-4 queue and forces sheds.
  int64_t i = 0;
  for (double t = 0; t < 2.0; t += 1.0 / 200.0, ++i) {
    TxnRequest req;
    req.proc = get;
    req.key = (i * 48271) % 32;
    sim.ScheduleAt(SecondsToDuration(t),
                   [&engine, req]() { engine.Submit(req); });
  }
  if (spike) {
    for (int64_t burst = 0; burst < 100; ++burst) {
      TxnRequest req;
      req.proc = get;
      req.key = 0;
      sim.ScheduleAt(SecondsToDuration(1.0),
                     [&engine, req]() { engine.Submit(req); });
    }
  }
  sim.RunUntil(SecondsToDuration(4.0));

  TracedRun out;
  out.committed = engine.txns_committed();
  out.sampled = telemetry.txn_traces.sampled();
  out.fingerprint = telemetry.txn_traces.Fingerprint();
  out.dump = telemetry.txn_traces.ToString();
  out.chrome_json =
      ToChromeTraceJson(&telemetry.tracer, &telemetry.txn_traces);
  out.records = telemetry.txn_traces.records();
  return out;
}

TEST(TxnTraceEngineTest, SameSeedSameTraceBytes) {
  for (const bool spike : {false, true}) {
    const TracedRun a = RunTraced(7, 0.25, spike);
    const TracedRun b = RunTraced(7, 0.25, spike);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "spike=" << spike;
    EXPECT_EQ(a.dump, b.dump) << "spike=" << spike;
    EXPECT_EQ(a.chrome_json, b.chrome_json) << "spike=" << spike;
    EXPECT_EQ(a.sampled, b.sampled) << "spike=" << spike;
  }
}

TEST(TxnTraceEngineTest, EveryFinalizedTraceSumsToItsLatency) {
  const TracedRun run = RunTraced(7, 1.0, true);
  ASSERT_GT(run.sampled, 0);
  int64_t committed = 0, shed = 0;
  for (const TxnTraceRecord& record : run.records) {
    ASSERT_TRUE(record.done);
    ASSERT_GE(record.events.size(), 2u);
    const SimTime start = record.events.front().at;
    const SimTime end = record.events.back().at;
    SimDuration sum = 0;
    for (const TxnPhaseInterval& iv : PhaseIntervals(record)) {
      sum += iv.end - iv.start;
    }
    EXPECT_EQ(sum, end - start) << "txn " << record.txn_id;
    const TxnPhase terminal = record.events.back().phase;
    if (terminal == TxnPhase::kCommitted) ++committed;
    if (terminal == TxnPhase::kShed) ++shed;
  }
  EXPECT_GT(committed, 0);
  EXPECT_GT(shed, 0);  // the spike run must shed
}

TEST(TxnTraceEngineTest, ChromeTraceJsonIsStructurallyValid) {
  const TracedRun run = RunTraced(7, 0.5, true);
  auto doc = JsonValue::Parse(run.chrome_json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->GetStringOr("displayTimeUnit", ""), "ms");
  const JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);

  double last_ts = -1;
  std::map<int64_t, std::vector<std::string>> open;  // tid -> B stack
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    ASSERT_TRUE(e.is_object());
    const double ts = e.GetNumberOr("ts", -1);
    EXPECT_GE(ts, last_ts) << "timestamps must be sorted";
    last_ts = ts;
    const std::string ph = e.GetStringOr("ph", "");
    ASSERT_FALSE(ph.empty());
    if (e.GetNumberOr("pid", -1) != 1) continue;
    const int64_t tid = static_cast<int64_t>(e.GetNumberOr("tid", -1));
    if (ph == "B") {
      open[tid].push_back(e.GetStringOr("name", ""));
    } else if (ph == "E") {
      ASSERT_FALSE(open[tid].empty()) << "E without B for tid " << tid;
      EXPECT_EQ(open[tid].back(), e.GetStringOr("name", ""));
      open[tid].pop_back();
    } else if (ph == "i") {
      EXPECT_EQ(e.GetStringOr("s", ""), "t");
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed B events for tid " << tid;
  }
}

TEST(TxnTraceEngineTest, UnsampledRunMatchesRecorderlessRun) {
  // Rate 0 must not perturb the engine: committed counts line up with a
  // run that never attached a recorder at all.
  const TracedRun off = RunTraced(7, 0.0, false);
  EXPECT_EQ(off.sampled, 0);
  EXPECT_EQ(off.dump, "");
  const TracedRun quarter = RunTraced(7, 0.25, false);
  EXPECT_EQ(off.committed, quarter.committed);
}

}  // namespace
}  // namespace obs
}  // namespace pstore
