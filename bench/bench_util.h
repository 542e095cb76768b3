#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "core/experiment.h"
#include "obs/exporter.h"
#include "obs/telemetry.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

/// \file bench_util.h
/// Shared output helpers for the figure/table reproduction harnesses.
/// Every bench prints: a banner naming the paper artifact it regenerates,
/// aligned tables with the numbers, and terminal sparklines for series
/// (full series also land in CSV files under bench_out/ for re-plotting).

namespace pstore {
namespace bench {

/// Prints the "=== Figure N: ... ===" banner with context.
void PrintBanner(const std::string& artifact, const std::string& title,
                 const std::string& paper_note);

/// Prints a labeled series as a sparkline plus min/mean/max.
void PrintSeries(const std::string& label, const std::vector<double>& values,
                 size_t width = 72);

/// Writes a CSV of named columns under bench_out/<file>; prints where.
void WriteCsv(const std::string& file,
              const std::vector<std::string>& names,
              const std::vector<std::vector<double>>& columns);

/// Writes one run's telemetry under bench_out/<prefix>_metrics.json,
/// <prefix>_metrics.csv (when an exporter sampled the run) and
/// <prefix>_events.txt.
void WriteRunTelemetry(const std::string& prefix,
                       obs::TelemetryBundle* telemetry,
                       const obs::TimeseriesExporter* exporter = nullptr);

// --- Bench result JSON (performance program, DESIGN.md §12) -----------

/// Schema version stamped into every BENCH_*.json file. Bump when the
/// layout changes; tools/bench_compare refuses mismatched versions.
inline constexpr int kBenchJsonSchemaVersion = 1;

/// One recorded case in a BENCH_*.json result file.
struct BenchCaseResult {
  std::string name;
  double value = 0.0;        ///< ns/op for perf cases, metric value else.
  std::string unit;          ///< "ns/op" for cases bench_compare gates.
  double items_per_s = 0.0;  ///< 0 when the case reports no item rate.
  int64_t iterations = 0;    ///< 0 for virtual-clock metric cases.
};

/// Writes a schema-versioned single-run result file to
/// bench_out/BENCH_<bench>.json. `kind` is "perf" (wall-clock ns/op
/// cases, gated by tools/bench_compare) or "metrics" (virtual-clock
/// result summaries, tracked but not gated). Returns false (after
/// printing a warning) when the file cannot be written.
bool WriteBenchJson(const std::string& bench, const std::string& kind,
                    const std::vector<BenchCaseResult>& cases);

/// Banner/series calls feed an in-process collector so every figure
/// harness emits bench_out/BENCH_<slug>.json at exit with zero
/// per-bench changes: PrintBanner names the file (slug of the artifact)
/// and PrintSeries contributes min/mean/max metric cases. Harnesses
/// that want extra cases call RecordBenchCase directly.
void RecordBenchCase(const BenchCaseResult& result);

/// One claim of the paper checked against a run: `lhs op rhs`. Write
/// "a < b" as {name, b, Op::kGt, a} and "a <= b" as {name, b, Op::kGe, a}.
struct PaperRow {
  std::string name;
  double lhs = 0;
  scenario::Op op = scenario::Op::kEq;
  double rhs = 0;
};

/// Whether `row` holds.
bool Holds(const PaperRow& row);

/// Prints each row as ok or FAILED, records each row's lhs as the case
/// "paper/<slug of name>" and returns whether every row holds. A bench
/// returns non-zero from main when it does not.
bool CheckPaperRows(const std::vector<PaperRow>& rows);

/// Parses "--key=value" integer flags (returns fallback when absent).
int64_t IntFlag(int argc, char** argv, const std::string& key,
                int64_t fallback);

/// Parses "--key=value" double flags.
double DoubleFlag(int argc, char** argv, const std::string& key,
                  double fallback);

/// Renders one experiment result as the Figure 9-style block: machine
/// allocation, throughput, latency sparklines and summary counters.
void PrintExperiment(const ExperimentResult& result);

// --- KV write-mix scaffolding of the subsystem benches ----------------

/// Loads `rows` KV rows (key k, value k) into `db`'s table. Returns
/// false when a load fails.
bool PreloadKvRows(ClusterEngine* engine, const scenario::KvDatabase& db,
                   int64_t rows);

/// Schedules `rate_tps * seconds` arrivals at i * 1e6 / rate_tps us
/// (truncated): arrival i reads key (i * 48271) % rows, and one in four
/// upserts it instead, so the row count is conserved exactly.
void ScheduleKvWriteMix(Simulator* sim, ClusterEngine* engine,
                        const scenario::KvDatabase& db, int64_t rows,
                        double rate_tps, double seconds);

/// \brief Samples committed txns per virtual second: the first sample
/// at 1 s, then one a second while the clock is before `seconds`. Each
/// sample is the count committed since the previous one (since 0 for
/// the first); `on_sample`, when set, runs after each.
class CommittedPerSecond {
 public:
  CommittedPerSecond(Simulator* sim, ClusterEngine* engine, double seconds,
                     std::function<void()> on_sample = nullptr);

  const std::vector<int64_t>& samples() const { return samples_; }

 private:
  void Sample(int64_t last_committed);

  Simulator* sim_;
  ClusterEngine* engine_;
  SimTime end_;
  std::function<void()> on_sample_;
  std::vector<int64_t> samples_;
};

}  // namespace bench
}  // namespace pstore
