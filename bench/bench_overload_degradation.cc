/// Overload degradation: goodput and tail latency as offered load sweeps
/// past capacity, with overload control off (unbounded FIFO queues) vs
/// on (bounded queues + dequeue deadline + priority shedding). The
/// bounded configuration should hold goodput on a plateau near the
/// node's effective capacity (Section 4's Eq. 7 applied at admission:
/// depth L ~ mu * T) with a bounded p99, while the unbounded one lets
/// queues — and therefore latency — grow without limit, collapsing
/// goodput (completions within the SLO) to zero past saturation.
///
/// Output: goodput-vs-offered-load table + bench_out CSV
/// (overload_degradation.csv).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table_writer.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "cluster/engine.h"

using namespace pstore;

namespace {

struct CellResult {
  double offered_tps = 0;
  double goodput_tps = 0;   ///< Commits within the SLO, per offered second.
  double p99_ms = 0;        ///< Over completed transactions.
  double shed_rate = 0;     ///< Shed / submitted.
  int64_t max_depth = 0;    ///< Deepest partition queue ever observed.
};

/// One (load factor, limits on/off) cell: a fresh single-node cluster
/// driven for `seconds` at `offered_tps`, then drained to completion.
CellResult RunCell(double offered_tps, bool limits, double seconds,
                   SimDuration slo) {
  const scenario::KvDatabase db =
      scenario::MakeKvDatabase(scenario::KvProcs::kGetPut);
  const TableId table = db.table;
  const ProcedureId get = db.get;

  Simulator sim;
  EngineConfig config;
  config.num_buckets = 64;
  config.partitions_per_node = 2;
  config.max_nodes = 1;
  config.initial_nodes = 1;
  config.txn_service_us_mean = 2000.0;  // 500 txn/s/partition, 1000/node
  config.txn_service_cv = 0.0;
  if (limits) {
    config.overload.enabled = true;
    config.overload.max_queue_depth = 16;
    config.overload.queue_deadline = 200 * kMillisecond;
    // The breaker never trips here: this bench isolates the queue
    // bound + deadline (Eq. 7) — a tripped breaker sheds whole windows
    // and would hide the plateau. Breaker dynamics are exercised by
    // chaos_run --scenario=spike and the overload test suite.
    config.overload.breaker.min_samples =
        std::numeric_limits<int64_t>::max();
  }
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  const int64_t rows = 500;
  for (int64_t k = 0; k < rows; ++k) {
    if (!engine.LoadRow(table, Row({Value(k), Value(k)})).ok()) return {};
  }

  int64_t good = 0;
  std::vector<int64_t> latencies_us;
  const int64_t arrivals =
      static_cast<int64_t>(offered_tps * seconds);
  latencies_us.reserve(static_cast<size_t>(arrivals));
  for (int64_t i = 0; i < arrivals; ++i) {
    TxnRequest req;
    req.proc = get;
    req.key = (i * 48271) % rows;
    // Every 10th transaction is checkout-priority: at a full queue
    // it displaces queued background reads instead of being rejected.
    if (i % 10 == 0) req.priority = kPriorityCritical;
    const SimTime at = static_cast<SimTime>(
        static_cast<double>(i) * 1e6 / offered_tps);
    sim.ScheduleAt(at, [&engine, &good, &latencies_us, &sim, req, at,
                        slo]() {
      engine.Submit(req, [&good, &latencies_us, &sim, at,
                          slo](const TxnResult& result) {
        if (result.shed || !result.status.ok()) return;
        const int64_t latency = sim.Now() - at;
        latencies_us.push_back(latency);
        if (latency <= slo) ++good;
      });
    });
  }

  // Offered window, then drain: unbounded queues at 3x load need about
  // 2x the window again to empty at capacity.
  sim.RunUntil(SecondsToDuration(seconds * 4));

  CellResult cell;
  cell.offered_tps = offered_tps;
  cell.goodput_tps = static_cast<double>(good) / seconds;
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    const size_t idx = static_cast<size_t>(
        0.99 * static_cast<double>(latencies_us.size() - 1));
    cell.p99_ms = static_cast<double>(latencies_us[idx]) / 1000.0;
  }
  cell.shed_rate = engine.txns_submitted() > 0
                       ? static_cast<double>(engine.txns_shed()) /
                             static_cast<double>(engine.txns_submitted())
                       : 0.0;
  for (PartitionId p = 0; p < engine.total_partitions(); ++p) {
    cell.max_depth = std::max(
        cell.max_depth,
        static_cast<int64_t>(engine.executor(p)->max_queue_depth()));
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintBanner(
      "Overload degradation",
      "Goodput and p99 vs offered load, limits off/on",
      "bounded queues + deadline shedding hold goodput near capacity "
      "(Eq. 7: L ~ mu * T); unbounded FIFOs collapse past saturation");

  const double capacity = 1000.0;  // 2 partitions x 500 txn/s
  const double seconds = bench::DoubleFlag(argc, argv, "seconds", 30.0);
  const SimDuration slo = static_cast<SimDuration>(
      bench::DoubleFlag(argc, argv, "slo_ms", 250.0) * 1000.0);

  const std::vector<double> factors = {0.5, 0.75, 1.0, 1.25,
                                       1.5, 2.0,  2.5, 3.0};
  TableWriter table({"offered/cap", "limits", "goodput (txn/s)",
                     "p99 (ms)", "shed rate", "max depth"});
  std::vector<double> factor_col, limits_col, goodput_col, p99_col,
      shed_col, depth_col;
  double plateau = 0;  // best bounded-mode goodput past saturation
  for (const double factor : factors) {
    for (const bool limits : {false, true}) {
      const CellResult cell =
          RunCell(factor * capacity, limits, seconds, slo);
      table.AddRow({TableWriter::Fmt(factor, 2), limits ? "on" : "off",
                    TableWriter::Fmt(cell.goodput_tps, 1),
                    TableWriter::Fmt(cell.p99_ms, 1),
                    TableWriter::Fmt(cell.shed_rate, 3),
                    TableWriter::Fmt(static_cast<double>(cell.max_depth),
                                     0)});
      factor_col.push_back(factor);
      limits_col.push_back(limits ? 1.0 : 0.0);
      goodput_col.push_back(cell.goodput_tps);
      p99_col.push_back(cell.p99_ms);
      shed_col.push_back(cell.shed_rate);
      depth_col.push_back(static_cast<double>(cell.max_depth));
      // Tracked cells for the perf gate (DESIGN.md §12). The grid is
      // virtual-clock deterministic, so these are exact. Goodput is
      // recorded as its inverse (us per good txn) so that a goodput
      // *drop* — the regression we care about — raises the value and
      // trips bench_compare's one-sided threshold.
      std::string cell_name = "f";
      cell_name += TableWriter::Fmt(factor, 2);
      cell_name += limits ? "_on" : "_off";
      if (cell.goodput_tps > 0) {
        bench::RecordBenchCase({"good_txn_cost/" + cell_name,
                                1e6 / cell.goodput_tps, "us/txn", 0.0, 0});
      }
      bench::RecordBenchCase(
          {"p99/" + cell_name, cell.p99_ms, "ms", 0.0, 0});
      if (limits && factor >= 1.0) {
        plateau = std::max(plateau, cell.goodput_tps);
      }
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nBounded-mode goodput plateau past saturation: %.1f txn/s "
      "(capacity %.0f)\n",
      plateau, capacity);
  bench::WriteCsv("overload_degradation.csv",
                  {"offered_over_capacity", "limits_on", "goodput_tps",
                   "p99_ms", "shed_rate", "max_queue_depth"},
                  {factor_col, limits_col, goodput_col, p99_col, shed_col,
                   depth_col});
  // The acceptance bar: with limits on, goodput past saturation stays
  // within 10% of capacity.
  if (plateau < capacity * 0.9) {
    std::fprintf(stderr,
                 "overload degradation: plateau %.1f below 90%% of "
                 "capacity %.0f\n",
                 plateau, capacity);
    return 1;
  }
  return 0;
}
