/// Chaos run: deterministic fault injection end-to-end. Runs one row of
/// the scenario table (src/scenario/scenario.h): a small cluster serving
/// a workload while a seeded or scripted FaultPlan crashes nodes, stalls
/// migration streams, partitions the network, rots disks, revokes spot
/// nodes or hides flash crowds from the forecast, with the
/// InvariantChecker auditing the cluster every virtual second. The whole
/// run derives from one seed, so it is executed TWICE and the two runs
/// must match exactly: fault trace, every counter, and every telemetry
/// artifact. A run passes when both runs are violation-free, the replay
/// is identical, and every acceptance predicate of the row holds.
///
/// --scenario=NAME picks the row (default "plain"); --list-scenarios
/// prints the table. Besides chaos_run's own seven scenarios (plain,
/// spike, recovery, partition, corruption, revocation, flashcrowd) the
/// table holds the seven 50-seed ctest sweeps, so any failing sweep
/// seed replays from the command line, e.g.
///   ./build/examples/chaos_run --scenario=durability_sweep --seed=17
///
/// --events=N overrides the event count of random-plan rows (scripted
/// rows ignore it). --out=DIR writes metrics.json, metrics.csv,
/// spans.txt, events.txt and fault_trace.txt there. --trace-sample=P
/// (0 < P <= 1) turns on transaction lifecycle tracing from a dedicated
/// Rng stream and adds txn_traces.txt plus a Chrome/Perfetto trace.json
/// (feed it to tools/trace_analyze); without the flag nothing is
/// recorded and every other artifact stays byte-identical.
///
/// Unknown flags, unknown scenarios and malformed or out-of-range values
/// exit 2 with a usage line.
///
///   ./build/examples/chaos_run [--scenario=NAME] [--seed=42] [--events=N]
///                              [--out=DIR] [--trace-sample=P]
///                              [--list-scenarios]

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/exporter.h"
#include "scenario/scenario.h"

using namespace pstore;

namespace {

constexpr const char* kUsage =
    "usage: chaos_run [--scenario=NAME] [--seed=N] [--events=N] "
    "[--out=DIR] [--trace-sample=P] [--list-scenarios]";

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "chaos_run: %s\n%s\n", why.c_str(), kUsage);
  std::exit(2);
}

/// Parses the whole of `text` as a T, or exits 2 naming `arg`.
template <typename T>
T ParseOrDie(std::string_view text, std::string_view arg) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    Usage("malformed value in " + std::string(arg));
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "plain";
  uint64_t seed = 42;
  int32_t events = -1;  // -1: the row's own count.
  std::string out_dir;
  double trace_sample = 0.0;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? "" : arg.substr(eq + 1);
    if (arg == "--list-scenarios") {
      list = true;
    } else if (flag == "--scenario" && !value.empty()) {
      name = value;
    } else if (flag == "--seed") {
      seed = ParseOrDie<uint64_t>(value, arg);
    } else if (flag == "--events") {
      events = ParseOrDie<int32_t>(value, arg);
      if (events < 0) Usage("--events must be >= 0");
    } else if (flag == "--out" && !value.empty()) {
      out_dir = value;
    } else if (flag == "--trace-sample") {
      trace_sample = ParseOrDie<double>(value, arg);
      if (!(trace_sample > 0 && trace_sample <= 1)) {
        Usage("--trace-sample must be in (0, 1]");
      }
    } else {
      Usage("unknown argument " + std::string(arg));
    }
  }
  if (list) {
    for (const scenario::Scenario& s : scenario::Scenarios()) {
      std::printf("%-18s %s\n", s.name.c_str(), s.summary.c_str());
    }
    return 0;
  }
  const scenario::Scenario* row = scenario::FindScenario(name);
  if (row == nullptr) {
    Usage("unknown scenario '" + name + "' (see --list-scenarios)");
  }
  scenario::Scenario s = *row;
  if (events >= 0) s.chaos.num_events = events;

  std::printf("chaos run: scenario %s, seed %llu, %s\n", s.name.c_str(),
              static_cast<unsigned long long>(seed),
              s.script.empty()
                  ? ("random plan of " + std::to_string(s.chaos.num_events) +
                     " events")
                        .c_str()
                  : "scripted plan");
  scenario::ScenarioTelemetry telemetry{trace_sample};
  const scenario::ScenarioResult first =
      scenario::RunScenario(s, seed, &telemetry);
  std::printf("\nfault plan:\n%s", first.plan.c_str());
  std::printf("\nevent trace:\n%s", first.trace.c_str());
  std::printf("\ncounters:\n");
  for (const auto& [counter, value] : first.counters) {
    std::printf("  %-24s %lld\n", counter.c_str(),
                static_cast<long long>(value));
  }
  if (!first.violations.empty()) {
    std::printf("INVARIANT VIOLATIONS:\n");
    for (const std::string& v : first.violations) {
      std::printf("  %s\n", v.c_str());
    }
  }
  if (!first.status.ok()) {
    std::printf("final audit: %s\n", first.status.ToString().c_str());
  }

  if (!out_dir.empty()) {
    bool wrote = true;
    for (const auto& [file, contents] : telemetry.artifacts) {
      wrote = wrote && obs::WriteStringToFile(out_dir + "/" + file, contents);
    }
    std::printf("\ntelemetry %s to %s\n", wrote ? "written" : "FAILED to write",
                out_dir.c_str());
    if (!wrote) return 1;
  }

  // Replay: the same seed must reproduce the run exactly.
  scenario::ScenarioTelemetry replay_telemetry{trace_sample};
  const scenario::ScenarioResult second =
      scenario::RunScenario(s, seed, &replay_telemetry);
  std::string diff = scenario::FirstDifference(first, second);
  if (diff.empty() && telemetry.artifacts != replay_telemetry.artifacts) {
    diff = "telemetry artifacts differ";
  }
  std::printf("\nreplay: trace fingerprints %016llx vs %016llx -> %s%s\n",
              static_cast<unsigned long long>(first.fingerprint),
              static_cast<unsigned long long>(second.fingerprint),
              diff.empty() ? "IDENTICAL" : "MISMATCH: ", diff.c_str());

  bool ok = diff.empty() && first.status.ok() && first.violations.empty() &&
            second.violations.empty();
  for (const scenario::Check& check : s.accept) {
    if (!first.status.ok()) break;  // A failed setup has no counters.
    const bool holds = scenario::Holds(check, first);
    std::printf("accept: %s %s %lld (got %lld) -> %s\n", check.counter,
                scenario::OpName(check.op),
                static_cast<long long>(check.bound),
                static_cast<long long>(first.counter(check.counter)),
                holds ? "ok" : "FAILED");
    ok = ok && holds;
  }
  std::printf("%s\n", ok ? "chaos run PASSED" : "chaos run FAILED");
  return ok ? 0 : 1;
}
