#include "bench_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "common/json.h"
#include "common/table_writer.h"
#include "obs/exporter.h"
#include "obs/histogram.h"

namespace pstore {
namespace bench {

namespace {

/// Process-wide collector behind the PrintBanner/PrintSeries hooks:
/// the first banner names the output file, series calls accumulate
/// cases, and an atexit handler writes bench_out/BENCH_<slug>.json.
struct BenchJsonCollector {
  std::string slug;
  std::vector<BenchCaseResult> cases;
  bool atexit_registered = false;
};

BenchJsonCollector& Collector() {
  static BenchJsonCollector collector;
  return collector;
}

/// "Figure 9" -> "figure_9": lowercase, runs of non-alphanumerics
/// collapse to one underscore, no leading/trailing underscore.
std::string Slugify(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

void FlushBenchJsonAtExit() {
  BenchJsonCollector& c = Collector();
  if (c.slug.empty()) return;
  // Flush even with zero recorded cases: benches that report only via
  // TableWriter/CSV still leave a schema-versioned attestation that
  // they ran to a clean exit, which run_all_benches.sh enforces.
  WriteBenchJson(c.slug, "metrics", c.cases);
}

}  // namespace

bool WriteBenchJson(const std::string& bench, const std::string& kind,
                    const std::vector<BenchCaseResult>& cases) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version",
          JsonValue(static_cast<int64_t>(kBenchJsonSchemaVersion)));
  doc.Set("bench", JsonValue(bench));
  doc.Set("kind", JsonValue(kind));
  JsonValue run = JsonValue::Object();
#ifdef NDEBUG
  run.Set("build_type", JsonValue("optimized"));
#else
  run.Set("build_type", JsonValue("debug"));
#endif
  run.Set("hardware_threads", JsonValue(static_cast<int64_t>(
                                  std::thread::hardware_concurrency())));
  doc.Set("run", std::move(run));
  JsonValue case_array = JsonValue::Array();
  for (const BenchCaseResult& c : cases) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue(c.name));
    entry.Set("value", JsonValue(c.value));
    entry.Set("unit", JsonValue(c.unit));
    if (c.items_per_s > 0.0) {
      entry.Set("items_per_s", JsonValue(c.items_per_s));
    }
    if (c.iterations > 0) {
      entry.Set("iterations", JsonValue(c.iterations));
    }
    case_array.Append(std::move(entry));
  }
  doc.Set("cases", std::move(case_array));
  const std::string path = "bench_out/BENCH_" + bench + ".json";
  if (!obs::WriteStringToFile(path, doc.Dump())) return false;
  std::cout << "  [bench result written to " << path << "]\n";
  return true;
}

void RecordBenchCase(const BenchCaseResult& result) {
  BenchJsonCollector& c = Collector();
  if (!c.atexit_registered) {
    std::atexit(FlushBenchJsonAtExit);
    c.atexit_registered = true;
  }
  c.cases.push_back(result);
}

void PrintBanner(const std::string& artifact, const std::string& title,
                 const std::string& paper_note) {
  BenchJsonCollector& c = Collector();
  if (c.slug.empty()) {
    c.slug = Slugify(artifact);
    if (!c.atexit_registered) {
      std::atexit(FlushBenchJsonAtExit);
      c.atexit_registered = true;
    }
  }
  std::cout << "\n==================================================="
               "=============================\n";
  std::cout << artifact << ": " << title << "\n";
  if (!paper_note.empty()) std::cout << "Paper: " << paper_note << "\n";
  std::cout << "====================================================="
               "===========================\n";
}

void PrintSeries(const std::string& label, const std::vector<double>& values,
                 size_t width) {
  if (values.empty()) {
    std::cout << label << ": (empty)\n";
    return;
  }
  double lo = values[0], hi = values[0], sum = 0;
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sum += v;
  }
  const double mean = sum / static_cast<double>(values.size());
  std::printf("%-28s min=%10.1f mean=%10.1f max=%10.1f\n", label.c_str(), lo,
              mean, hi);
  std::cout << "  " << Sparkline(values, width) << "\n";
  const std::string slug = Slugify(label);
  RecordBenchCase({slug + "/min", lo, "", 0.0, 0});
  RecordBenchCase({slug + "/mean", mean, "", 0.0, 0});
  RecordBenchCase({slug + "/max", hi, "", 0.0, 0});
}

void WriteCsv(const std::string& file,
              const std::vector<std::string>& names,
              const std::vector<std::vector<double>>& columns) {
  // obs::WriteColumnsCsv creates the full parent chain (so files under
  // bench_out/sub/ work too) and warns instead of silently dropping the
  // CSV when the path cannot be written. Output bytes are identical to
  // the old CsvSeriesWriter path.
  const std::string path = "bench_out/" + file;
  if (obs::WriteColumnsCsv(path, names, columns)) {
    std::cout << "  [series written to " << path << "]\n";
  }
}

void WriteRunTelemetry(const std::string& prefix,
                       obs::TelemetryBundle* telemetry,
                       const obs::TimeseriesExporter* exporter) {
  const std::string base = "bench_out/" + prefix;
  bool ok = obs::WriteStringToFile(base + "_metrics.json",
                                   telemetry->metrics.DumpJson());
  if (exporter != nullptr) {
    ok = exporter->WriteCsv(base + "_metrics.csv") && ok;
  }
  ok = obs::WriteStringToFile(base + "_events.txt",
                              telemetry->events.ToString()) &&
       ok;
  if (ok) {
    std::cout << "  [telemetry written to " << base << "_metrics.json";
    if (exporter != nullptr) std::cout << " / _metrics.csv";
    std::cout << " / _events.txt]\n";
  }
  // Surface every populated latency histogram as percentile cases in the
  // run's BENCH_*.json, so regressions in tail latency are diffable the
  // same way as throughput numbers.
  for (const auto& [name, hist] : telemetry->metrics.Histograms()) {
    if (hist->count() == 0) continue;
    const obs::Quantiles q = obs::ComputeQuantiles(*hist);
    const std::string slug = Slugify(name);
    RecordBenchCase({slug + "/p50", q.p50, "us", 0.0, 0});
    RecordBenchCase({slug + "/p90", q.p90, "us", 0.0, 0});
    RecordBenchCase({slug + "/p99", q.p99, "us", 0.0, 0});
    RecordBenchCase({slug + "/p999", q.p999, "us", 0.0, 0});
  }
}

bool Holds(const PaperRow& row) {
  switch (row.op) {
    case scenario::Op::kEq: return row.lhs == row.rhs;
    case scenario::Op::kGt: return row.lhs > row.rhs;
    case scenario::Op::kGe: return row.lhs >= row.rhs;
  }
  return false;
}

bool CheckPaperRows(const std::vector<PaperRow>& rows) {
  std::cout << "\nPaper rows:\n";
  bool all = true;
  for (const PaperRow& row : rows) {
    const bool ok = Holds(row);
    all = all && ok;
    std::printf("  %-7s %s  (%g %s %g)\n", ok ? "ok" : "FAILED",
                row.name.c_str(), row.lhs, scenario::OpName(row.op),
                row.rhs);
    RecordBenchCase({"paper/" + Slugify(row.name), row.lhs, "", 0.0, 0});
  }
  return all;
}

namespace {
std::string FlagValue(int argc, char** argv, const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}
}  // namespace

int64_t IntFlag(int argc, char** argv, const std::string& key,
                int64_t fallback) {
  const std::string v = FlagValue(argc, argv, key);
  return v.empty() ? fallback : std::strtoll(v.c_str(), nullptr, 10);
}

double DoubleFlag(int argc, char** argv, const std::string& key,
                  double fallback) {
  const std::string v = FlagValue(argc, argv, key);
  return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
}

void PrintExperiment(const ExperimentResult& result) {
  std::cout << "\n--- " << result.strategy_name << " ---\n";

  // Machines-allocated series sampled per 10 s window for the chart.
  std::vector<double> machines;
  if (!result.allocation.empty() && !result.throughput_txn_s.empty()) {
    size_t idx = 0;
    for (size_t w = 0; w < result.throughput_txn_s.size(); ++w) {
      const SimTime t = static_cast<SimTime>(w) * 10 * kSecond;
      while (idx + 1 < result.allocation.size() &&
             result.allocation[idx + 1].at <= t) {
        ++idx;
      }
      machines.push_back(result.allocation[idx].nodes);
    }
  }
  PrintSeries("throughput (txn/s)", result.throughput_txn_s);
  std::vector<double> p99_ms, mean_ms;
  for (const auto& w : result.latency_windows) {
    p99_ms.push_back(static_cast<double>(w.p99) / 1000.0);
    mean_ms.push_back(w.mean / 1000.0);
  }
  PrintSeries("avg latency (ms)", mean_ms);
  PrintSeries("p99 latency (ms)", p99_ms);
  if (!machines.empty()) PrintSeries("machines allocated", machines);

  std::printf(
      "  txns: %lld submitted, %lld committed, %lld aborted\n",
      static_cast<long long>(result.submitted),
      static_cast<long long>(result.committed),
      static_cast<long long>(result.aborted));
  std::printf(
      "  SLA violations (>500 ms): p50=%lld p95=%lld p99=%lld | avg "
      "machines=%.2f | reconfigurations=%zu\n",
      static_cast<long long>(result.violations_p50),
      static_cast<long long>(result.violations_p95),
      static_cast<long long>(result.violations_p99), result.avg_machines,
      result.moves.size());

  const std::string slug = Slugify(result.strategy_name);
  RecordBenchCase(
      {slug + "/committed", static_cast<double>(result.committed), "", 0.0, 0});
  RecordBenchCase(
      {slug + "/aborted", static_cast<double>(result.aborted), "", 0.0, 0});
  RecordBenchCase({slug + "/avg_machines", result.avg_machines, "", 0.0, 0});
  RecordBenchCase({slug + "/reconfigurations",
                   static_cast<double>(result.moves.size()), "", 0.0, 0});
}

bool PreloadKvRows(ClusterEngine* engine, const scenario::KvDatabase& db,
                   int64_t rows) {
  for (int64_t k = 0; k < rows; ++k) {
    if (!engine->LoadRow(db.table, Row({Value(k), Value(k)})).ok()) {
      return false;
    }
  }
  return true;
}

void ScheduleKvWriteMix(Simulator* sim, ClusterEngine* engine,
                        const scenario::KvDatabase& db, int64_t rows,
                        double rate_tps, double seconds) {
  const auto arrivals = static_cast<int64_t>(rate_tps * seconds);
  for (int64_t i = 0; i < arrivals; ++i) {
    TxnRequest req;
    req.key = (i * 48271) % rows;
    if (i % 4 == 0) {
      req.proc = db.put;
      req.args.push_back(Value(i));
    } else {
      req.proc = db.get;
    }
    const SimTime at =
        static_cast<SimTime>(static_cast<double>(i) * 1e6 / rate_tps);
    sim->ScheduleAt(at, [engine, req]() { engine->Submit(req); });
  }
}

CommittedPerSecond::CommittedPerSecond(Simulator* sim,
                                       ClusterEngine* engine, double seconds,
                                       std::function<void()> on_sample)
    : sim_(sim),
      engine_(engine),
      end_(SecondsToDuration(seconds)),
      on_sample_(std::move(on_sample)) {
  sim_->Schedule(kSecond, [this]() { Sample(0); });
}

void CommittedPerSecond::Sample(int64_t last_committed) {
  samples_.push_back(engine_->txns_committed() - last_committed);
  if (on_sample_) on_sample_();
  if (sim_->Now() < end_) {
    sim_->Schedule(kSecond, [this, c = engine_->txns_committed()]() {
      Sample(c);
    });
  }
}

}  // namespace bench
}  // namespace pstore
