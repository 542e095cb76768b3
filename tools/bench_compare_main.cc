#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_compare_lib.h"

/// \file bench_compare_main.cc
/// CLI for the bench regression gate:
///
///   bench_compare --baseline=bench/baselines/BENCH_micro_perf.json
///                 --current=bench_out/BENCH_micro_perf.json
///
/// Exits 0 when every tracked case is within threshold, 1 on any
/// regression or missing case, 2 on malformed input / bad usage.
/// `--tolerance=F` switches to exact mode: any case whose value moved by
/// more than F relative to its baseline, up or down, fails.
/// `--update --label=<text>` instead appends the current run to the
/// baseline trajectory (used when committing an accepted optimization).

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --baseline=FILE --current=FILE [--threshold=F]\n"
      "          [--tolerance=F] [--unit=U] [--no-normalize]\n"
      "          [--update --label=TEXT]\n",
      argv0);
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using pstore::bench::CompareOptions;
  std::string baseline_path, current_path, threshold_str, label;
  bool update = false;
  CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--baseline", &baseline_path)) continue;
    if (ParseFlag(argv[i], "--current", &current_path)) continue;
    if (ParseFlag(argv[i], "--label", &label)) continue;
    if (ParseFlag(argv[i], "--unit", &options.unit)) continue;
    if (ParseFlag(argv[i], "--threshold", &threshold_str)) {
      char* end = nullptr;
      options.threshold = std::strtod(threshold_str.c_str(), &end);
      if (end == threshold_str.c_str() || options.threshold < 0.0) {
        std::fprintf(stderr, "bench_compare: bad --threshold '%s'\n",
                     threshold_str.c_str());
        return 2;
      }
      continue;
    }
    if (ParseFlag(argv[i], "--tolerance", &value)) {
      char* end = nullptr;
      options.tolerance = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.tolerance >= 0.0)) {
        std::fprintf(stderr, "bench_compare: bad --tolerance '%s'\n",
                     value.c_str());
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--no-normalize") == 0) {
      options.normalize = false;
      continue;
    }
    if (std::strcmp(argv[i], "--update") == 0) {
      update = true;
      continue;
    }
    std::fprintf(stderr, "bench_compare: unknown argument '%s'\n", argv[i]);
    Usage(argv[0]);
    return 2;
  }
  if (baseline_path.empty() || current_path.empty()) {
    Usage(argv[0]);
    return 2;
  }

  auto baseline = pstore::bench::ReadJsonFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto current = pstore::bench::ReadJsonFile(current_path);
  if (!current.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 current.status().ToString().c_str());
    return 2;
  }

  if (update) {
    if (label.empty()) {
      std::fprintf(stderr, "bench_compare: --update requires --label\n");
      return 2;
    }
    pstore::Status st = pstore::bench::AppendRunToBaseline(
        &baseline.ValueOrDie(), current.ValueOrDie(), label);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_compare: %s\n", st.ToString().c_str());
      return 2;
    }
    std::ofstream out(baseline_path);
    if (!out) {
      std::fprintf(stderr, "bench_compare: cannot write %s\n",
                   baseline_path.c_str());
      return 2;
    }
    out << baseline.ValueOrDie().Dump();
    std::printf("bench_compare: appended run '%s' to %s\n", label.c_str(),
                baseline_path.c_str());
    return 0;
  }

  auto report = pstore::bench::CompareBenchDocs(baseline.ValueOrDie(),
                                                current.ValueOrDie(), options);
  if (!report.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::fputs(report.ValueOrDie().ToString().c_str(), stdout);
  return report.ValueOrDie().pass ? 0 : 1;
}
