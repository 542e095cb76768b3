#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "common/status.h"
#include "core/predictive_controller.h"
#include "core/reactive_controller.h"
#include "migration/migration_executor.h"
#include "obs/exporter.h"
#include "obs/telemetry.h"
#include "workload/b2w_client.h"
#include "workload/b2w_trace.h"

/// \file experiment.h
/// End-to-end elasticity experiments on the engine: the harness behind
/// Figures 9, 10, 11 and Table 2. It builds the B2W database, fits the
/// predictor on a training prefix of the trace, replays a multi-day
/// window at 10x speed under a chosen elasticity strategy, and collects
/// per-second latency percentiles, per-window throughput, the machine
/// allocation timeline and SLA-violation counts.

namespace pstore {

/// Which provisioning approach drives the run (Figure 9's four panels).
enum class ElasticityStrategy {
  kStatic,        ///< Fixed cluster, no controller (Figures 9a / 9b).
  kReactive,      ///< E-Store-style thresholds (Figure 9c).
  kPStoreSpar,    ///< P-Store with the SPAR predictor (Figure 9d).
  kPStoreOracle,  ///< P-Store fed the true future (upper bound).
};

const char* ElasticityStrategyName(ElasticityStrategy strategy);

/// Experiment parameters; defaults reproduce Section 8.2's setup.
struct ExperimentConfig {
  ElasticityStrategy strategy = ElasticityStrategy::kPStoreSpar;

  /// Cluster size for kStatic; also the hardware ceiling elsewhere.
  int32_t static_nodes = 10;

  /// Days replayed (the paper replays a 3-day window; 2 keeps the
  /// default bench under a minute while preserving two diurnal cycles).
  int32_t replay_days = 2;
  /// Days of trace before the replay window (SPAR training data).
  int32_t train_days = 28;

  double speedup = 10.0;          ///< Replay acceleration (Section 7).
  double peak_txn_rate = 2400.0;  ///< txn/s at the trace peak.

  /// Trace synthesis; days is overridden to train + replay if smaller.
  B2wTraceConfig trace = B2wRegularTraffic();

  EngineConfig engine;            ///< 6 partitions/node, 10 nodes, etc.
  MigrationOptions migration;     ///< Chunking/throttling (Section 8.1).

  /// P-Store controller settings; interval/D are derived internally
  /// from the speedup unless controller_overridden is set.
  ControllerConfig controller;
  bool controller_overridden = false;

  ReactiveConfig reactive;        ///< Reactive baseline settings.

  int64_t sla_threshold_us = 500000;  ///< 500 ms (Section 8.2).

  /// SPAR hyper-parameters for the controller's predictor.
  int32_t spar_periods = 7;   ///< n
  int32_t spar_recent = 6;    ///< m, in 5-trace-minute control slots.

  /// Observability sinks attached to every subsystem of the run (engine,
  /// migrator, controllers). Borrowed; all-null = uninstrumented. The
  /// tracer's clock is bound to the run's simulator for its duration.
  obs::Telemetry telemetry;
  /// When set, sampled every 10 s of virtual time while the run
  /// progresses (a read-only event: it never perturbs the simulated
  /// schedule). Borrowed.
  obs::TimeseriesExporter* telemetry_exporter = nullptr;

  Status Validate() const;
};

/// Everything the figure/table benches need from one run.
struct ExperimentResult {
  std::string strategy_name;
  /// Per-second latency percentiles (Figure 10's raw material).
  std::vector<WindowedPercentiles::Window> latency_windows;
  /// Completed txns per 10-second window, as txn/s (Figure 9 curves).
  std::vector<double> throughput_txn_s;
  /// Machine-allocation step function (Figure 9's red line).
  std::vector<AllocationEvent> allocation;
  /// Reconfiguration spans (Figure 9's light-green segments).
  std::vector<MoveRecord> moves;
  /// Seconds in which the 50th/95th/99th percentile exceeded the SLA
  /// (Table 2's violation counts).
  int64_t violations_p50 = 0;
  int64_t violations_p95 = 0;
  int64_t violations_p99 = 0;
  double avg_machines = 0;  ///< Table 2's "Average Machines Allocated".
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t infeasible_cycles = 0;
  SimTime end_time = 0;
  /// Mean per-partition access skew stats (Section 8.1's uniformity).
  double max_partition_access_over_mean = 0;
};

/// Runs one experiment. Deterministic for a given config.
Result<ExperimentResult> RunElasticityExperiment(const ExperimentConfig&);

/// Aggregates a minute-level series into `group`-slot means (used to
/// turn the per-minute trace into 5-minute control slots).
std::vector<double> AggregateSlots(const std::vector<double>& series,
                                   int32_t group);

}  // namespace pstore
