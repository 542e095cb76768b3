#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "migration/migration_executor.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "tracer.h"

/// \file workload.h
/// What every benchmark workload shares: its options, the result of one
/// set-up + replay, the layers the traced run records, and the metric
/// helpers common to the engine-driven workloads.

namespace pstore {
namespace e2e {

struct WorkloadOptions {
  uint64_t seed = 0;
  /// Shrunk sizes for the ctest smoke run (seconds, not a measurement).
  bool smoke = false;
};

/// Outcome of one set-up + replay of a workload.
struct RunResult {
  double setup_s = 0;
  double replay_s = 0;
  int64_t attempted = 0;  ///< Operations offered (txns, or simulations).
  int64_t failed = 0;     ///< Operations that did not complete.
  /// Digest of every virtual output; equal across repeats of one seed
  /// and between the traced and untraced runs.
  uint64_t fingerprint = 0;
  std::vector<std::string> check_failures;
  /// Per-layer metrics, by the names BENCHMARK.json lists. Modelled
  /// (virtual-clock) values are filled on every run; host-time splits
  /// and registry counters only on traced runs.
  std::map<std::string, double> layer;
};

/// The tracer layers a workload's traced run records.
struct Layers {
  int32_t trace_gen = -1;
  int32_t preload = -1;
  int32_t fit = -1;
  int32_t replay = -1;
  int32_t body = -1;
  int32_t submit = -1;
  int32_t start_move = -1;
  int32_t decide = -1;
  int32_t forecast = -1;
};

/// Registers the standard layer tree. Forecasts nest in Decide for the
/// capacity simulator and directly in the replay elsewhere.
Layers AddLayers(LayerTracer* tracer, bool forecast_in_decide);

/// Every per-layer metric name. A traced run reports all of them; the
/// ones that do not apply to a workload read 0.
const std::vector<std::string>& LayerMetricNames();

/// Order-sensitive FNV-1a digest of virtual outputs.
class Fingerprint {
 public:
  void Add(int64_t v) { Mix(&v, sizeof(v)); }
  void Add(double v) {
    int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Host time of the replay split by whether a reconfiguration was in
/// flight at the start of each one-virtual-second slice.
struct SliceCost {
  int64_t moving_ns = 0;
  int64_t steady_ns = 0;
  int64_t moving_txns = 0;
  int64_t steady_txns = 0;
};

/// Runs `sim` to `until` in one-virtual-second slices. Slicing does not
/// change which events run or in what order, so every run uses it.
void RunSliced(Simulator* sim, SimTime until, const ClusterEngine& engine,
               const MigrationExecutor& migrator, SliceCost* cost);

/// Everything the engine-driven workloads report from one replay.
struct EngineReplay {
  const Simulator* sim = nullptr;
  const ClusterEngine* engine = nullptr;
  const MigrationExecutor* migrator = nullptr;
  /// Attached on traced runs only; null otherwise.
  obs::MetricsRegistry* metrics = nullptr;
  double offered_s = 0;       ///< Virtual seconds load was offered.
  int64_t replay_events = 0;  ///< DES events executed by the replay.
  SliceCost slices;
};

/// Checks the engine's txn conservation, adds the modelled metrics to
/// `result->layer` and folds the virtual outputs into `fp`.
void FinishEngineReplay(const EngineReplay& replay, RunResult* result,
                        Fingerprint* fp);

/// Adds the host-time and registry metrics of a traced engine replay.
void AddEngineLayerMetrics(const EngineReplay& replay,
                           const LayerTracer& tracer, const Layers& layers,
                           RunResult* result);

/// Adds the setup-phase and predictor metrics every traced run reports.
void AddCommonLayerMetrics(const LayerTracer& tracer, const Layers& layers,
                           RunResult* result);

RunResult RunB2wPstore(const WorkloadOptions& options, LayerTracer* tracer);
RunResult RunB2wStaticK1(const WorkloadOptions& options, LayerTracer* tracer);
RunResult RunKvRebalance(const WorkloadOptions& options, LayerTracer* tracer);
RunResult RunCapacityPlan(const WorkloadOptions& options, LayerTracer* tracer);

/// Runs the benchmark's copy of the elasticity-experiment wiring over
/// the whole replay day and compares it with RunElasticityExperiment,
/// field by field, for both b2w configurations at the default seed.
/// Prints the comparison.
bool CheckB2wWiring();

}  // namespace e2e
}  // namespace pstore
