/// e2e_bench: runs one benchmark workload for a fixed host-time budget
/// and prints one JSON document on stdout (everything else goes to
/// stderr). run.py builds this binary and turns its output into the
/// benchmark's result line; see README.md.
///
///   e2e_bench --workload=W [--seed=S] [--seconds=T] [--trace=0|1]
///             [--smoke] [--out=DIR]
///   e2e_bench --check-wiring
///
/// Each iteration sets the workload up afresh and replays it.
/// Iterations repeat until --seconds have passed (at least three). With
/// --trace=1, untraced and traced iterations alternate: the traced ones
/// give the per-layer metrics, each traced replay against the untraced
/// one before it gives the tracing overhead, and the last traced
/// iteration's spans are written to
/// DIR/<workload>.trace.json. Exit status: 0 when the run completed
/// (whether or not its output checks held), 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "tracer.h"
#include "workload.h"

using namespace pstore;
using namespace pstore::e2e;

namespace {

struct Workload {
  const char* name;
  RunResult (*run)(const WorkloadOptions&, LayerTracer*);
  uint64_t default_seed;
};

const Workload kWorkloads[] = {
    {"b2w_pstore", RunB2wPstore, 20160715},
    {"b2w_static_k1", RunB2wStaticK1, 20160715},
    {"kv_rebalance", RunKvRebalance, 7},
    {"capacity_plan", RunCapacityPlan, 20160801},
};

/// Parses "--name=value".
bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload=W [--seed=S] [--seconds=T] "
               "[--trace=0|1] [--smoke] [--out=DIR]\n"
               "       e2e_bench --check-wiring\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, seed_str;
  std::string seconds_str = "10";
  std::string trace_str = "0";
  std::string out_dir = "bench_out/e2e";
  bool smoke = false;
  bool check_wiring = false;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &workload_name) ||
        Flag(argv[i], "--seed", &seed_str) ||
        Flag(argv[i], "--seconds", &seconds_str) ||
        Flag(argv[i], "--trace", &trace_str) ||
        Flag(argv[i], "--out", &out_dir)) {
      continue;
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check-wiring") == 0) {
      check_wiring = true;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return Usage();
    }
  }
  if (check_wiring) return CheckB2wWiring() ? 0 : 1;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage();

  WorkloadOptions options;
  options.seed = seed_str.empty()
                     ? workload->default_seed
                     : std::strtoull(seed_str.c_str(), nullptr, 10);
  options.smoke = smoke;
  const bool trace = trace_str == "1";
  const double budget_s = std::atof(seconds_str.c_str());
  const int min_iterations = options.smoke ? (trace ? 2 : 1) : (trace ? 4 : 3);
  constexpr int kMaxIterations = 200;

  std::vector<std::string> failures;
  std::vector<double> setup_s, replay_s;
  // Each traced replay against the untraced one just before it, so slow
  // drift in host speed cancels out of the overhead estimate.
  std::vector<double> overhead;
  std::map<std::string, std::vector<double>> layer_values;
  std::unique_ptr<LayerTracer> last_tracer;
  int64_t attempted = 0, failed = 0;
  uint64_t fingerprint = 0;
  const int64_t start_ns = SteadyNowNs();
  for (int i = 0; i < kMaxIterations; ++i) {
    const double elapsed_s =
        static_cast<double>(SteadyNowNs() - start_ns) / 1e9;
    if (i >= min_iterations && elapsed_s >= budget_s) break;
    const bool traced = trace && i % 2 == 1;
    auto tracer = traced ? std::make_unique<LayerTracer>() : nullptr;
    const RunResult run = workload->run(options, tracer.get());
    std::fprintf(stderr, "%s iteration %d%s: setup %.4f s, replay %.4f s\n",
                 workload->name, i, traced ? " (traced)" : "", run.setup_s,
                 run.replay_s);
    for (const std::string& f : run.check_failures) failures.push_back(f);
    attempted += run.attempted;
    failed += run.failed;
    if (i == 0) fingerprint = run.fingerprint;
    if (run.fingerprint != fingerprint) {
      failures.push_back(std::string(traced ? "traced" : "untraced") +
                         " iteration " + std::to_string(i) +
                         " changed the virtual outputs");
    }
    if (traced) {
      overhead.push_back(run.replay_s / replay_s.back() - 1.0);
      for (const auto& [name, value] : run.layer) {
        layer_values[name].push_back(value);
      }
      last_tracer = std::move(tracer);
    } else {
      setup_s.push_back(run.setup_s);
      replay_s.push_back(run.replay_s);
    }
  }

  JsonValue metrics = JsonValue::Object();
  if (trace) {
    layer_values["bench.trace_overhead_frac"] = overhead;
    for (const std::string& name : LayerMetricNames()) {
      metrics.Set(name, JsonValue(Median(layer_values[name])));
    }
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/" + workload->name + ".trace.json";
    std::ofstream file(path, std::ios::binary);
    file << last_tracer->ChromeTraceJson();
    if (!file) failures.push_back("cannot write " + path);
  } else {
    metrics.Set("setup_s", JsonValue(Median(setup_s)));
    metrics.Set("replay_s", JsonValue(Median(replay_s)));
    metrics.Set("peak_rss_mb", JsonValue(PeakRssMb()));
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("workload", JsonValue(workload->name));
  doc.Set("seed", JsonValue(static_cast<int64_t>(options.seed)));
  doc.Set("iterations",
          JsonValue(static_cast<int64_t>(setup_s.size() + overhead.size())));
  char fp_hex[32];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  doc.Set("fingerprint", JsonValue(fp_hex));
  doc.Set("correct", JsonValue(failures.empty()));
  doc.Set("attempted", JsonValue(attempted));
  doc.Set("failed", JsonValue(failed));
  doc.Set("metrics", std::move(metrics));
  std::fputs(doc.Dump().c_str(), stdout);
  return 0;
}
