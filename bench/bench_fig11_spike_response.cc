/// Figure 11: "Comparison of two different rates of data movement when
/// P-Store reacts to an unexpected load spike." A flash crowd hits near
/// the daily peak; SPAR cannot anticipate it, the planner goes
/// infeasible, and P-Store falls back to reactive scale-out at rate R
/// (ride it out) or R x 8 (faster but with migration interference).
/// Paper: at R, violations 16/101/143 (p50/p95/p99); at R x 8, 22/44/51.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/table_writer.h"
#include "core/experiment.h"

using namespace pstore;

int main(int argc, char** argv) {
  bench::PrintBanner(
      "Figure 11", "P-Store reacting to an unexpected load spike",
      "rate R: longer underprovisioning; rate R x 8: shorter but with a "
      "higher transient latency peak — fewer total violation seconds");

  const int32_t train_days =
      static_cast<int32_t>(bench::IntFlag(argc, argv, "train_days", 28));
  TableWriter table({"migration rate", "p50 viol.", "p95 viol.",
                     "p99 viol.", "worst p99 (ms)", "infeasible cycles"});

  for (double multiplier : {1.0, 8.0}) {
    ExperimentConfig config;
    config.strategy = ElasticityStrategy::kPStoreSpar;
    config.replay_days = 1;
    config.train_days = train_days;
    // Spike day: a ~2x flash crowd at 14:00 on the replayed day.
    config.trace = B2wSpikeDay(train_days, 20160901);
    config.trace.spike_boost = 1.0;
    config.peak_txn_rate =
        bench::DoubleFlag(argc, argv, "peak_txn_rate", 1900.0);
    ExperimentConfig tuned = config;
    // Thread the fallback multiplier through the controller defaults.
    tuned.controller.infeasible_rate_multiplier = multiplier;
    // Per-run telemetry (safety-net trips, forecast error, migration
    // spans).
    obs::TelemetryBundle telemetry;
    obs::TimeseriesExporter exporter(&telemetry.metrics);
    tuned.telemetry = telemetry.view();
    tuned.telemetry_exporter = &exporter;
    // RunElasticityExperiment derives controller settings unless
    // overridden; copy the multiplier by marking a partial override.
    auto result = RunElasticityExperiment(tuned);
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    int64_t worst_p99 = 0;
    for (const auto& w : result->latency_windows) {
      worst_p99 = std::max(worst_p99, w.p99);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "Rate R x %.0f", multiplier);
    table.AddRow({label, TableWriter::Fmt(result->violations_p50),
                  TableWriter::Fmt(result->violations_p95),
                  TableWriter::Fmt(result->violations_p99),
                  TableWriter::Fmt(static_cast<double>(worst_p99) / 1000.0,
                                   1),
                  TableWriter::Fmt(result->infeasible_cycles)});
    bench::PrintExperiment(*result);
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "fig11_rate_x%.0f", multiplier);
    bench::WriteRunTelemetry(prefix, &telemetry, &exporter);
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: R x 8 ends the violation period sooner "
               "(fewer p95/p99 violation seconds) even though the spike's "
               "instantaneous latency is worse while migrating fast.\n";
  return 0;
}
