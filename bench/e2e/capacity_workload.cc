// capacity_plan: Section 8.3's minute-stepped capacity simulator over
// the 4.5-month August-December trace (Black Friday included), swept
// over Q, the forecast horizon and the predictor. The engine is bypassed
// entirely; prediction and the DP planner do the work, so this is the
// only workload where a change to either shows.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/experiment.h"
#include "prediction/spar.h"
#include "sim/strategies.h"
#include "workload.h"
#include "workload/b2w_trace.h"
#include "wrappers.h"

namespace pstore {
namespace e2e {

namespace {

constexpr double kSaturation = 438.0;  // txn/s per node (Figure 7)
constexpr double kQHat = 350.0;
constexpr double kPeakRate = 2800.0;
constexpr int32_t kSlot = 5;
constexpr int64_t kTrainDays = 28;
/// Days before Black Friday whose peak sets the load scale.
constexpr int64_t kRegularDays = 100;
constexpr int64_t kSmokeDays = 7;
/// The load curve is the paper's August-December trace at a fixed seed;
/// the seed adds per-minute measurement noise. A seeded trace would move
/// its promotions, spikes and drift, and with them the planner's work
/// by several percent from seed to seed.
constexpr uint64_t kTraceSeed = 20160801;
constexpr double kNoiseSigma = 0.02;

/// The paper's default operating point, where the modelled metrics are
/// read: Q = 65% of saturation, a one-hour horizon, SPAR.
constexpr double kDefaultQFraction = 0.65;
constexpr int32_t kDefaultHorizon = 12;

struct GridPoint {
  double q_fraction;
  int32_t horizon;
  bool oracle;
};

std::vector<GridPoint> Grid(bool smoke) {
  if (smoke) return {{kDefaultQFraction, kDefaultHorizon, false},
                     {kDefaultQFraction, kDefaultHorizon, true}};
  std::vector<GridPoint> grid;
  for (bool oracle : {false, true}) {
    for (int32_t horizon : {12, 24, 48}) {
      for (double fq : {0.45, 0.55, 0.65, 0.75, 0.85}) {
        grid.push_back({fq, horizon, oracle});
      }
    }
  }
  return grid;
}

CapacitySimConfig SimConfig(double q) {
  CapacitySimConfig config;
  config.move_model.q = q;
  config.move_model.partitions_per_node = 6;
  config.move_model.d_minutes = 85.0;  // 77 min + 10% planning buffer
  config.move_model.interval_minutes = kSlot;
  config.q_hat = kQHat;
  config.max_machines = 40;
  return config;
}

/// Forecasts the true future of the slot series (P-Store Oracle).
class SlotOracle : public LoadPredictor {
 public:
  explicit SlotOracle(const std::vector<double>* slots) : slots_(slots) {}
  std::string name() const override { return "Oracle"; }
  Status Fit(const std::vector<double>&, int32_t) override {
    return Status::OK();
  }
  int64_t MinHistory() const override { return 0; }
  Result<std::vector<double>> Forecast(const std::vector<double>&, int64_t t,
                                       int32_t horizon) const override {
    std::vector<double> out;
    out.reserve(static_cast<size_t>(horizon));
    for (int32_t h = 1; h <= horizon; ++h) {
      const size_t idx = static_cast<size_t>(t + h);
      out.push_back(idx < slots_->size() ? (*slots_)[idx] : slots_->back());
    }
    return out;
  }

 private:
  const std::vector<double>* slots_;
};

}  // namespace

RunResult RunCapacityPlan(const WorkloadOptions& options,
                          LayerTracer* tracer) {
  const Layers layers = tracer != nullptr ? AddLayers(tracer, true)
                                          : Layers{};
  const std::vector<GridPoint> grid = Grid(options.smoke);
  int32_t max_horizon = 0;
  for (const GridPoint& g : grid) max_horizon = std::max(max_horizon, g.horizon);

  RunResult result;
  const int64_t setup_start = SteadyNowNs();
  std::vector<double> load;
  {
    LayerTracer::Scope scope = EnterIf(tracer, layers.trace_gen, 0);
    auto raw = GenerateB2wTrace(B2wAugustToDecember(kTraceSeed));
    if (!raw.ok()) {
      result.check_failures.push_back("trace: " + raw.status().ToString());
      return result;
    }
    const double regular_peak = *std::max_element(
        raw->begin(), raw->begin() + kRegularDays * 1440);
    Rng noise(options.seed);
    load.resize(raw->size());
    for (size_t i = 0; i < load.size(); ++i) {
      load[i] = (*raw)[i] / regular_peak * kPeakRate *
                std::exp(kNoiseSigma * noise.NextGaussian());
    }
  }
  const std::vector<double> slots = AggregateSlots(load, kSlot);
  const int64_t train_minutes = kTrainDays * 1440;
  const int64_t end_minute =
      options.smoke ? train_minutes + kSmokeDays * 1440
                    : static_cast<int64_t>(load.size());

  SparConfig spar_config;
  spar_config.period = 1440 / kSlot;
  spar_config.num_periods = 7;
  spar_config.num_recent = 6;
  SparPredictor spar(spar_config);
  SlotOracle oracle(&slots);
  {
    TracedPredictor fit(&spar, tracer,
                        TracedPredictor::Layers{layers.fit, layers.forecast});
    const Status st = fit.Fit(
        std::vector<double>(slots.begin(),
                            slots.begin() + train_minutes / kSlot),
        max_horizon);
    if (!st.ok()) {
      result.check_failures.push_back("SPAR fit: " + st.ToString());
      return result;
    }
  }
  result.setup_s = static_cast<double>(SteadyNowNs() - setup_start) / 1e9;

  Fingerprint fp;
  int64_t moves_started = 0;
  const int64_t replay_start = SteadyNowNs();
  {
    LayerTracer::Scope replay_scope = EnterIf(tracer, layers.replay, 0);
    for (const GridPoint& g : grid) {
      const double q = kSaturation * g.q_fraction;
      PStoreStrategyConfig ps;
      ps.move_model = SimConfig(q).move_model;
      ps.horizon_intervals = g.horizon;
      ps.prediction_inflation = g.oracle ? 0.0 : 0.15;
      ps.max_machines = 40;
      LoadPredictor* inner = g.oracle ? static_cast<LoadPredictor*>(&oracle)
                                      : &spar;
      PStoreStrategy strategy(
          ps,
          std::make_unique<TracedPredictor>(
              inner, tracer,
              TracedPredictor::Layers{layers.fit, layers.forecast}),
          g.oracle ? "P-Store Oracle" : "P-Store SPAR");
      TracedStrategy traced(&strategy, tracer, layers.decide);
      const CapacitySimulator sim(SimConfig(q));
      auto run = sim.Run(load, &traced, train_minutes, end_minute);
      ++result.attempted;
      if (!run.ok()) {
        ++result.failed;
        result.check_failures.push_back("simulation: " +
                                        run.status().ToString());
        continue;
      }
      if (run->minutes_simulated != end_minute - train_minutes ||
          run->minutes_insufficient > run->minutes_simulated ||
          run->total_machine_minutes <
              static_cast<double>(run->minutes_simulated)) {
        result.check_failures.push_back("capacity accounting inconsistent");
      }
      fp.Add(run->total_machine_minutes);
      fp.Add(run->minutes_insufficient);
      fp.Add(run->moves_started);
      fp.Add(strategy.infeasible_cycles());
      moves_started += run->moves_started;
      if (!g.oracle && g.horizon == kDefaultHorizon &&
          g.q_fraction == kDefaultQFraction) {
        result.layer["core.machine_hours"] = run->total_machine_minutes / 60.0;
        result.layer["planner.insufficient_pct"] = run->pct_time_insufficient;
      }
    }
  }
  result.replay_s = static_cast<double>(SteadyNowNs() - replay_start) / 1e9;
  result.layer["planner.moves_started"] = static_cast<double>(moves_started);

  if (tracer != nullptr) AddCommonLayerMetrics(*tracer, layers, &result);
  result.fingerprint = fp.value();
  return result;
}

}  // namespace e2e
}  // namespace pstore
