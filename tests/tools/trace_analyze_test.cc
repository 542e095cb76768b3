#include "trace_analyze_lib.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/exporter.h"
#include "obs/span_tracer.h"
#include "obs/txn_trace.h"

/// Round-trip of the trace toolchain: build traces with the recorder
/// and span tracer, export Chrome trace_event JSON, and check that
/// AnalyzeChromeTrace recovers per-phase attribution that sums to each
/// transaction's end-to-end latency, ranks the slowest transactions,
/// and reconstructs migration critical paths — plus rejection of
/// malformed inputs.

namespace pstore {
namespace trace {
namespace {

using obs::SpanTracer;
using obs::TxnPhase;
using obs::TxnTraceRecorder;

TxnTraceRecorder MakeRecorder() {
  TxnTraceRecorder::Config config;
  config.sample_rate = 1.0;
  config.seed = 7;
  return TxnTraceRecorder(config);
}

/// One committed txn: submitted at `t0`, admitted +10, executing +110,
/// committed +210 (total 210 us: 10 admission, 100 queued, 100
/// executing).
void AddTxn(TxnTraceRecorder* recorder, int64_t id, SimTime t0) {
  const int64_t h = recorder->Sample(id, "Get", 0, t0);
  ASSERT_GE(h, 0);
  recorder->Record(h, TxnPhase::kAdmitted, t0 + 10, 1);
  recorder->Record(h, TxnPhase::kExecuting, t0 + 110, 1);
  recorder->Record(h, TxnPhase::kCommitted, t0 + 210);
  recorder->Finalize(h, t0 + 210);
}

TEST(TraceAnalyzeTest, RoundTripAttributionSumsToLatency) {
  TxnTraceRecorder recorder = MakeRecorder();
  AddTxn(&recorder, 1, 0);
  AddTxn(&recorder, 2, 1000);
  // A slower third txn: 500 us queued instead of 100.
  const int64_t h = recorder.Sample(3, "Put", 1, 2000);
  ASSERT_GE(h, 0);
  recorder.Record(h, TxnPhase::kAdmitted, 2010, 1);
  recorder.Record(h, TxnPhase::kExecuting, 2510, 1);
  recorder.Record(h, TxnPhase::kCommitted, 2610);
  recorder.Finalize(h, 2610);

  const std::string json = obs::ToChromeTraceJson(nullptr, &recorder);
  auto analysis = AnalyzeChromeTrace(json, 2);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->txns, 3);

  // Phase totals: admission 3x10, queued 100+100+500, executing 3x100.
  int64_t total = 0;
  for (const PhaseStat& p : analysis->attribution) total += p.total_us;
  EXPECT_EQ(total, 210 + 210 + 610);
  for (const PhaseStat& p : analysis->attribution) {
    if (p.phase == "admission") {
      EXPECT_EQ(p.total_us, 30);
    }
    if (p.phase == "queued") {
      EXPECT_EQ(p.total_us, 700);
    }
    if (p.phase == "executing") {
      EXPECT_EQ(p.total_us, 300);
    }
    EXPECT_EQ(p.count, 3);
  }
  // Attribution is sorted by total: queued dominates.
  ASSERT_FALSE(analysis->attribution.empty());
  EXPECT_EQ(analysis->attribution[0].phase, "queued");

  // top_k = 2 keeps the slowest two; txn 3 leads with its breakdown.
  ASSERT_EQ(analysis->slowest.size(), 2u);
  EXPECT_EQ(analysis->slowest[0].tid, 3);
  EXPECT_EQ(analysis->slowest[0].proc, "Put");
  EXPECT_EQ(analysis->slowest[0].total_us, 610);
  int64_t breakdown = 0;
  for (const PhaseStat& p : analysis->slowest[0].phases) {
    breakdown += p.total_us;
  }
  EXPECT_EQ(breakdown, analysis->slowest[0].total_us);

  const std::string report = RenderAnalysis(*analysis);
  EXPECT_NE(report.find("Per-phase latency attribution"),
            std::string::npos);
  EXPECT_NE(report.find("txn 3 (Put)"), std::string::npos);
  EXPECT_NE(report.find("(no migrations in trace)"), std::string::npos);
}

TEST(TraceAnalyzeTest, MigrationCriticalPathFromSpans) {
  SpanTracer tracer;
  const auto move = tracer.BeginAt("migration.move 2->3", 1000);
  const auto r0 = tracer.BeginAt("migration.round 0", 1100);
  tracer.EndAt(r0, 4100);  // 3 ms: the critical round
  const auto r1 = tracer.BeginAt("migration.round 1", 4200);
  tracer.EndAt(r1, 4700);
  tracer.EndAt(move, 5000);

  const std::string json = obs::ToChromeTraceJson(&tracer, nullptr);
  auto analysis = AnalyzeChromeTrace(json, 10);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->txns, 0);
  ASSERT_EQ(analysis->migrations.size(), 1u);
  const MigrationCritical& mc = analysis->migrations[0];
  EXPECT_EQ(mc.name, "migration.move 2->3");
  EXPECT_EQ(mc.start_us, 1000);
  EXPECT_EQ(mc.duration_us, 4000);
  EXPECT_EQ(mc.rounds, 2);
  EXPECT_EQ(mc.longest_round, "migration.round 0");
  EXPECT_EQ(mc.longest_round_us, 3000);
}

TEST(TraceAnalyzeTest, RejectsMalformedInput) {
  EXPECT_FALSE(AnalyzeChromeTrace("not json", 10).ok());
  EXPECT_FALSE(AnalyzeChromeTrace("[]", 10).ok());
  EXPECT_FALSE(AnalyzeChromeTrace("{\"traceEvents\": 3}", 10).ok());
  // Unbalanced B/E pairs are a structural error, not silent data.
  const std::string unbalanced =
      "{\"traceEvents\": ["
      "{\"name\": \"queued\", \"ph\": \"E\", \"ts\": 5, \"pid\": 1, "
      "\"tid\": 9}]}";
  const auto result = AnalyzeChromeTrace(unbalanced, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("unmatched E"),
            std::string::npos);
}

TEST(TraceAnalyzeTest, EmptyTraceAnalyzesToEmptyReport) {
  auto analysis = AnalyzeChromeTrace("{\"traceEvents\": []}", 10);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->txns, 0);
  EXPECT_TRUE(analysis->attribution.empty());
  EXPECT_TRUE(analysis->slowest.empty());
  // The renderer still produces the section scaffolding.
  const std::string report = RenderAnalysis(*analysis);
  EXPECT_NE(report.find("0 sampled txns"), std::string::npos);
}

}  // namespace
}  // namespace trace
}  // namespace pstore
