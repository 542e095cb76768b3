/// Wiki service: P-Store controlling a different application — a
/// page-serving store with Zipf popularity driven by the hourly
/// Wikipedia-style trace (the paper's second workload family). Shows the
/// stack is not B2W-specific, and runs the SkewManager alongside the
/// elastic controller because page popularity, unlike B2W's random cart
/// keys, is genuinely skewed.
///
///   ./build/examples/wiki_service

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/predictive_controller.h"
#include "core/skew_manager.h"
#include "migration/migration_executor.h"
#include "prediction/spar.h"
#include "sim/simulator.h"
#include "workload/wiki_trace.h"
#include "workload/wiki_workload.h"

using namespace pstore;

int main() {
  Simulator sim;
  Catalog catalog;
  ProcedureRegistry registry;
  WikiWorkload workload = *RegisterWikiWorkload(&catalog, &registry);

  EngineConfig engine_config;
  engine_config.max_nodes = 8;
  engine_config.initial_nodes = 2;
  ClusterEngine engine(&sim, catalog, registry, engine_config);

  auto trace = GenerateWikiTrace(WikiEnglish(36, 314));
  if (!trace.ok()) return 1;

  // 60000 pages; one trace hour replays in 30 virtual seconds.
  WikiClient client(&engine, workload, *trace, WikiClientConfig{});
  if (!client.PreloadData().ok()) return 1;
  const double peak_rate = 1500.0;

  // SPAR on hourly slots (period 24, previous week, 6 recent hours).
  SparConfig spar_config;
  spar_config.period = 24;
  spar_config.num_periods = 7;
  spar_config.num_recent = 6;
  SparPredictor spar(spar_config);
  const std::vector<double> scaled = client.ScaledTrace(peak_rate);
  const int64_t replay_begin = 28 * 24;  // train on 4 weeks
  {
    std::vector<double> train(scaled.begin(),
                              scaled.begin() + replay_begin);
    Status st = spar.Fit(train, 12);
    if (!st.ok()) {
      std::fprintf(stderr, "SPAR fit failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  MigrationOptions migration;
  migration.db_size_mb = 400;
  MigrationExecutor migrator(&engine, migration);

  ControllerConfig controller_config;
  controller_config.move_model.q = 285.0;
  controller_config.move_model.partitions_per_node =
      engine_config.partitions_per_node;
  controller_config.move_model.d_minutes =
      migration.db_size_mb * 1024.0 / migration.rate_kbps / 60.0 * 1.1;
  controller_config.move_model.interval_minutes = 0.5;  // one hourly slot
  controller_config.q_hat = 350.0;
  controller_config.horizon_intervals = 12;
  controller_config.refit_interval = 7 * 24;  // weekly active learning
  PredictiveController controller(&engine, &migrator, &spar,
                                  controller_config);
  controller.SeedHistory(std::vector<double>(
      scaled.begin(), scaled.begin() + replay_begin));
  controller.Start();

  SkewManagerConfig skew_config;
  skew_config.monitor_period = 15 * kSecond;
  skew_config.imbalance_threshold = 1.35;
  SkewManager skew(&engine, &migrator, skew_config);
  skew.Start();

  std::printf("Serving 6 days of Wikipedia-style traffic (hour -> 30 s), "
              "peak %.0f txn/s, P-Store + skew manager...\n", peak_rate);
  client.Start(replay_begin, replay_begin + 6 * 24, peak_rate);
  sim.RunUntil(6 * 24 * 30 * kSecond + 10 * kSecond);
  controller.Stop();
  skew.Stop();
  sim.RunAll();
  engine.mutable_latencies().Flush(sim.Now());

  std::printf("\nsubmitted=%lld committed=%lld aborted=%lld\n",
              static_cast<long long>(engine.txns_submitted()),
              static_cast<long long>(engine.txns_committed()),
              static_cast<long long>(engine.txns_aborted()));
  std::printf("latency: %s\n", engine.latency_histogram().Summary().c_str());
  std::printf("reconfigurations=%zu avg machines=%.2f (max %d) | skew "
              "relocations=%lld buckets | refits=%lld\n",
              migrator.history().size(), engine.AverageNodesAllocated(),
              engine_config.max_nodes,
              static_cast<long long>(skew.buckets_moved()),
              static_cast<long long>(controller.refits()));

  // Show the hottest pages really are hot (Zipf) yet partitions stay
  // balanced (skew manager).
  const auto& partition_counts = engine.partition_access_counts();
  double mean = 0;
  int64_t hottest = 0;
  for (int32_t p = 0; p < engine.active_partitions(); ++p) {
    mean += static_cast<double>(partition_counts[static_cast<size_t>(p)]);
    hottest = std::max(hottest,
                       partition_counts[static_cast<size_t>(p)]);
  }
  mean /= std::max(1, engine.active_partitions());
  std::printf("partition balance: hottest/mean = %.2f\n",
              mean > 0 ? static_cast<double>(hottest) / mean : 0.0);
  return 0;
}
