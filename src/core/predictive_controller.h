#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/engine.h"
#include "common/status.h"
#include "guard/forecast_monitor.h"
#include "guard/hybrid_arbiter.h"
#include "migration/migration_executor.h"
#include "obs/telemetry.h"
#include "planner/receding_horizon.h"
#include "prediction/predictor.h"

/// \file predictive_controller.h
/// P-Store's Predictive Controller (Section 6): the online loop that
/// monitors load, calls the Predictor for a forecast and hands it to
/// the RecedingHorizonStep (planner/receding_horizon.h) the capacity
/// simulator also runs: plan, keep only the first move, confirm a
/// scale-in over three cycles, fall back to reactive scale-out when no
/// feasible plan exists. The controller adds what only a live engine
/// has: the move itself (through the Scheduler/Squall, at rate R or
/// R x 8 for the fallback, Section 4.3.1's options 2 and 1), the
/// fault-aware scale-in veto, the reactive safety net, the forecast
/// guard and online refits.

namespace pstore {

/// Controller configuration. Time quantities are in *virtual* minutes.
struct ControllerConfig {
  /// Move model shared with the planner: Q, P, D, interval length.
  MoveModelConfig move_model;

  /// Q-hat, the per-node rate beyond which latency degrades (txn/s).
  double q_hat = 350.0;

  /// Forecast horizon, in control intervals. Must cover at least two
  /// reconfigurations (>= 2D/P, Section 5's discussion of tau).
  int32_t horizon_intervals = 12;

  /// Forecast inflation ("we inflate all predictions by 15%").
  double prediction_inflation = 0.15;

  /// Consecutive cycles required to confirm a scale-in.
  int32_t scale_in_confirmations = 3;

  /// Rate multiplier for the infeasible-plan fallback: 1.0 = keep rate R
  /// and ride out the spike (the default, option 2); 8.0 = migrate
  /// eight times faster and accept migration-induced latency (option 1).
  double infeasible_rate_multiplier = 1.0;

  /// Reactive safety net (the composite strategy of Section 1: combine
  /// predictive with reactive provisioning). When the *measured* load
  /// exceeds 95% of Q-hat * nodes, scale out immediately even if the
  /// forecast claims everything is fine — this catches spikes the
  /// predictor missed entirely.
  bool enable_reactive_safety_net = true;

  /// Online refitting (Section 6's "active learning"): refit the
  /// predictor on the accumulated measured series every this many
  /// control intervals (the paper refits weekly). 0 disables.
  int64_t refit_interval = 0;

  /// Forecast-divergence guard (DESIGN.md §16). Strictly opt-in:
  /// with `guard == false` (the default) the controller constructs no
  /// monitor, registers no guard metrics, and every pre-existing trace
  /// stays byte-identical.
  bool guard = false;

  Status Validate() const;
};

/// \brief The predict -> plan -> migrate loop.
class PredictiveController {
 public:
  /// \param engine engine to control (not owned)
  /// \param migrator migration executor bound to the engine (not owned)
  /// \param predictor fitted load predictor (not owned); its slot length
  ///        must equal the controller interval
  PredictiveController(ClusterEngine* engine, MigrationExecutor* migrator,
                       LoadPredictor* predictor, ControllerConfig config);

  /// Seeds the measured-load series with historical data (txn/s per
  /// control interval) so the predictor has enough lags from the start.
  void SeedHistory(std::vector<double> history);

  /// Begins periodic control ticks at the current virtual time.
  void Start();

  /// Stops issuing new ticks (an in-flight migration still completes).
  void Stop() { running_ = false; }

  /// Measured + seeded load series (txn/s per interval).
  const std::vector<double>& load_series() const { return series_; }

  /// Number of planning cycles that found no feasible plan.
  int64_t infeasible_cycles() const { return step_.infeasible_cycles(); }

  /// Number of moves this controller initiated.
  int64_t moves_started() const { return moves_started_; }

  /// Times the reactive safety net fired (measured overload with no
  /// reconfiguration in flight). Capacity is assessed against *live*
  /// nodes, so a crashed node's lost capacity can trip the net even at
  /// steady load — the composite strategy's graceful degradation.
  int64_t safety_net_activations() const { return safety_net_activations_; }

  /// Times the predictor was refit online.
  int64_t refits() const { return refits_; }

  /// Ticks on which the guard's arbiter vetoed the predictive path and
  /// handed control to reactive provisioning (guard enabled only).
  int64_t guard_vetoes() const { return guard_vetoes_; }

  /// Mid-flight plan repairs: an in-flight move truncated at a chunk
  /// boundary because the forecast it was planned from diverged, then
  /// re-planned reactively from the current placement.
  int64_t plan_repairs() const { return plan_repairs_; }

  /// The forecast-divergence monitor, or nullptr when the guard is
  /// disabled. Exposes the EWMA/CUSUM residual state for tests.
  const guard::ForecastMonitor* guard_monitor() const {
    return monitor_.get();
  }

  /// Installs a probe the controller polls each tick; while it returns
  /// true the telemetry pipeline is down (FaultType::kTraceDropout) and
  /// the tick sees the *last* measured rate instead of a fresh sample —
  /// the stale-data path the guard must survive. Unset = never stale.
  void set_trace_dropout_probe(std::function<bool()> probe) {
    dropout_probe_ = std::move(probe);
  }

  /// Attaches observability sinks ("controller.*" and "planner.*"
  /// metrics: measured rate, one-step forecast error, planning work and
  /// cost, scale decisions and safety-net trips as events, per-tick and
  /// per-plan spans). Call before Start().
  void set_telemetry(const obs::Telemetry& telemetry);

  const ControllerConfig& config() const { return config_; }

 private:
  void Tick();
  void PlanAndAct(double current_rate);
  /// Returns true if it fired (and possibly started a move).
  bool SafetyNet(double current_rate);
  /// Guard control step: feeds this tick's residual to the monitor and
  /// executes the arbiter's ruling. Returns true when the predictive
  /// path is vetoed for this tick (reactive control or plan repair).
  bool GuardStep(double rate);

  ClusterEngine* engine_;
  MigrationExecutor* migrator_;
  LoadPredictor* predictor_;
  ControllerConfig config_;
  RecedingHorizonStep step_;
  SimDuration interval_;
  obs::Telemetry telemetry_;
  // Handles of the metrics the controller keeps no count of itself (null
  // until set_telemetry).
  obs::Counter* m_ticks_ = nullptr;
  obs::Counter* m_plans_ = nullptr;
  obs::Counter* m_dp_cells_ = nullptr;
  obs::Gauge* m_measured_rate_ = nullptr;
  obs::Gauge* m_forecast_next_ = nullptr;
  obs::Gauge* m_forecast_error_ = nullptr;
  obs::Gauge* m_plan_cost_ = nullptr;
  obs::HistogramMetric* m_forecast_abs_error_ = nullptr;
  /// One-step-ahead forecast made on the previous tick (uninflated),
  /// compared against the rate measured this tick; < 0 = none pending.
  double last_forecast_next_ = -1.0;
  bool running_ = false;
  std::vector<double> series_;
  int64_t last_submitted_ = 0;
  int64_t last_fault_epoch_ = 0;
  int64_t moves_started_ = 0;
  int64_t safety_net_activations_ = 0;
  int64_t refits_ = 0;
  int64_t ticks_since_refit_ = 0;
  // Guard state (null unless config.guard — the opt-in contract: a
  // disabled guard allocates nothing and draws nothing).
  std::unique_ptr<guard::ForecastMonitor> monitor_;
  guard::HybridArbiter arbiter_;
  std::function<bool()> dropout_probe_;
  int64_t guard_vetoes_ = 0;
  int64_t plan_repairs_ = 0;
};

}  // namespace pstore
