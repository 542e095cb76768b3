/// Ablation: the skew-manager extension (the paper's future-work item —
/// P-Store assumes uniform load across partitions; E-Store-style hot
/// data relocation covers the cases where that breaks). A flash sale
/// concentrates traffic on a handful of keys; with the skew manager off,
/// their partitions saturate while the cluster has headroom; with it on,
/// the hot buckets are relocated and tail latency recovers.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/table_writer.h"
#include "core/skew_manager.h"
#include "migration/migration_executor.h"
#include "sim/simulator.h"
#include "workload/b2w_client.h"

using namespace pstore;

namespace {

struct SkewRunResult {
  int64_t p99_us = 0;
  int64_t max_us = 0;
  double max_partition_over_mean = 0;
  int64_t buckets_moved = 0;
};

SkewRunResult RunOne(bool manage_skew) {
  Simulator sim;
  Catalog catalog;
  auto tables = RegisterB2wTables(&catalog);
  ProcedureRegistry registry;
  auto procs = RegisterB2wProcedures(&registry, *tables);

  EngineConfig engine_config;
  engine_config.max_nodes = 4;
  engine_config.initial_nodes = 4;
  ClusterEngine engine(&sim, catalog, registry, engine_config);

  // Uniform background at ~60% of cluster capacity.
  std::vector<double> flat(40, 850.0);
  B2wClientConfig client_config;
  client_config.speedup = 6.0;
  client_config.absolute_scale = 1.0;
  client_config.initial_carts = 20000;
  client_config.initial_checkouts = 8000;
  client_config.initial_stock = 4000;
  B2wClient client(&engine, *tables, *procs, flat, client_config);
  if (!client.PreloadData().ok()) return {};

  MigrationOptions migration;
  MigrationExecutor migrator(&engine, migration);
  SkewManagerConfig skew_config;
  skew_config.monitor_period = 5 * kSecond;
  skew_config.imbalance_threshold = 1.25;
  skew_config.max_buckets_per_cycle = 6;
  SkewManager manager(&engine, &migrator, skew_config);
  if (manage_skew) manager.Start();

  client.Start(0, static_cast<int64_t>(flat.size()));

  // Flash sale: three SKU-clusters of carts become scorching hot from
  // t = 30 s (about 25% of all traffic onto 3 buckets).
  Rng rng(4242);
  for (int hot = 0; hot < 3; ++hot) {
    const int64_t hot_cart = 1000 + hot;  // fixed ids -> fixed buckets
    for (int i = 0; i < 12000; ++i) {
      TxnRequest get;
      get.proc = procs->get_cart;
      get.key = hot_cart;
      sim.ScheduleAt(30 * kSecond + static_cast<SimTime>(
                                        rng.NextDouble() * 300 * kSecond),
                     [&engine, get]() { engine.Submit(get); });
    }
    // Seed the hot cart so reads commit.
    TxnRequest seed;
    seed.proc = procs->add_line_to_cart;
    seed.key = hot_cart;
    seed.args = {Value(int64_t{1}), Value(int64_t{99}), Value(int64_t{1}),
                 Value(9.99)};
    engine.Submit(seed);
  }

  sim.RunUntil(SecondsToDuration(400));
  engine.mutable_latencies().Flush(sim.Now());

  SkewRunResult result;
  result.p99_us = engine.latency_histogram().Percentile(99);
  result.max_us = engine.latency_histogram().max();
  result.buckets_moved = manager.buckets_moved();

  const auto& counts = engine.partition_access_counts();
  double mean = 0;
  int64_t max_count = 0;
  for (int32_t p = 0; p < engine.active_partitions(); ++p) {
    mean += static_cast<double>(counts[static_cast<size_t>(p)]);
    max_count = std::max(max_count, counts[static_cast<size_t>(p)]);
  }
  mean /= engine.active_partitions();
  result.max_partition_over_mean =
      mean > 0 ? static_cast<double>(max_count) / mean : 0;
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Ablation (skew)",
      "Hot-bucket relocation under a flash sale (future-work extension)",
      "P-Store's uniformity assumption breaks under key skew; E-Store-"
      "style relocation restores balance");

  const SkewRunResult off = RunOne(false);
  const SkewRunResult on = RunOne(true);

  TableWriter table({"variant", "p99 (ms)", "max (ms)",
                     "hottest partition / mean", "buckets relocated"});
  table.AddRow({"skew manager OFF",
                TableWriter::Fmt(off.p99_us / 1000.0, 1),
                TableWriter::Fmt(off.max_us / 1000.0, 1),
                TableWriter::Fmt(off.max_partition_over_mean, 2),
                TableWriter::Fmt(off.buckets_moved)});
  table.AddRow({"skew manager ON",
                TableWriter::Fmt(on.p99_us / 1000.0, 1),
                TableWriter::Fmt(on.max_us / 1000.0, 1),
                TableWriter::Fmt(on.max_partition_over_mean, 2),
                TableWriter::Fmt(on.buckets_moved)});
  table.Print(std::cout);
  std::cout << "Expected shape: with the manager on, the hottest-partition "
               "ratio drops toward 1 and the latency tail shrinks.\n";
  return 0;
}
