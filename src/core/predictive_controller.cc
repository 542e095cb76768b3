#include "core/predictive_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.h"
#include "core/scale_in_veto.h"

namespace pstore {

namespace {
/// Fraction of Q-hat * nodes the *measured* load must exceed to trip the
/// reactive safety net.
constexpr double kSafetyNetWatermark = 0.95;
}  // namespace

Status ControllerConfig::Validate() const {
  PSTORE_RETURN_NOT_OK(move_model.Validate());
  if (q_hat < move_model.q) {
    return Status::InvalidArgument("q_hat must be >= q");
  }
  if (horizon_intervals < 2) {
    return Status::InvalidArgument("horizon_intervals must be >= 2");
  }
  if (prediction_inflation < 0) {
    return Status::InvalidArgument("prediction_inflation < 0");
  }
  if (scale_in_confirmations < 1) {
    return Status::InvalidArgument("scale_in_confirmations < 1");
  }
  if (infeasible_rate_multiplier <= 0) {
    return Status::InvalidArgument("infeasible_rate_multiplier <= 0");
  }
  if (refit_interval < 0) {
    return Status::InvalidArgument("refit_interval < 0");
  }
  return Status::OK();
}

PredictiveController::PredictiveController(ClusterEngine* engine,
                                           MigrationExecutor* migrator,
                                           LoadPredictor* predictor,
                                           ControllerConfig config)
    : engine_(engine),
      migrator_(migrator),
      predictor_(predictor),
      config_(config),
      step_(MoveModel(config.move_model), engine->max_nodes(),
            config.prediction_inflation, config.scale_in_confirmations),
      interval_(SecondsToDuration(config.move_model.interval_minutes * 60.0)) {
  assert(config_.Validate().ok());
  if (config_.guard) monitor_ = std::make_unique<guard::ForecastMonitor>();
}

void PredictiveController::SeedHistory(std::vector<double> history) {
  series_ = std::move(history);
}

void PredictiveController::set_telemetry(const obs::Telemetry& telemetry) {
  telemetry_ = telemetry;
  if (telemetry_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *telemetry_.metrics;
  m_ticks_ = m.GetCounter("controller.ticks");
  m_plans_ = m.GetCounter("controller.plans");
  m.BindCounter("controller.plans_infeasible", &step_.infeasible_cycles());
  m.BindCounter("controller.moves_started", &moves_started_);
  m.BindCounter("controller.safety_net_trips", &safety_net_activations_);
  m.BindCounter("controller.refits", &refits_);
  m_dp_cells_ = m.GetCounter("planner.dp_cells_evaluated");
  m_measured_rate_ = m.GetGauge("controller.measured_rate");
  m_forecast_next_ = m.GetGauge("controller.forecast_next");
  m_forecast_error_ = m.GetGauge("controller.forecast_error");
  m_plan_cost_ = m.GetGauge("controller.plan_cost");
  m_forecast_abs_error_ = m.GetHistogram("controller.forecast_abs_error");
  // Guard metrics exist only when the guard does — a disabled guard
  // must leave every pre-existing metric dump byte-identical.
  if (monitor_ != nullptr) {
    monitor_->set_telemetry(telemetry_);
    m.BindCounter("guard.vetoes", &guard_vetoes_);
    m.BindCounter("guard.plan_repairs", &plan_repairs_);
  }
}

void PredictiveController::Start() {
  running_ = true;
  last_submitted_ = engine_->txns_submitted();
  engine_->simulator()->Schedule(interval_, [this]() { Tick(); });
}

bool PredictiveController::SafetyNet(double current_rate) {
  if (!config_.enable_reactive_safety_net) return false;
  const int32_t n = engine_->active_nodes();
  // Only live nodes serve: a crash shrinks capacity even though the
  // allocation count is unchanged (graceful degradation — the net fires
  // on the capacity that actually exists).
  const int32_t live = engine_->live_nodes();
  // An open breaker means offered load exceeds what the cluster admits;
  // the shed portion never appears in the measured rate, so the breaker
  // is overload evidence in its own right.
  overload::AdmissionController* admission = engine_->admission();
  const bool breaker_overload =
      admission != nullptr &&
      admission->AnyBreakerOpen(engine_->simulator()->Now());
  // Recovery replay / re-replication consumes capacity the measured
  // rate cannot see, so a cluster below full k-safety trips the net at
  // a correspondingly lower measured watermark (one node's worth of
  // slack is reserved for the catch-up work). Draining nodes are netted
  // out the same way: their capacity is already scheduled to vanish at
  // the revocation deadline, so the net sizes against what will remain.
  const int32_t usable =
      std::max(1, live - engine_->nodes_draining());
  const int32_t capacity_nodes =
      engine_->RecoveryInProgress() ? std::max(1, usable - 1) : usable;
  if (!breaker_overload &&
      current_rate <= kSafetyNetWatermark * config_.q_hat * capacity_nodes) {
    return false;
  }
  // Measured overload the plan did not prevent: scale out right now,
  // sized for the observed load plus headroom, plus one extra machine
  // per dead node (dead nodes hold an allocation but serve nothing).
  ++safety_net_activations_;
  const int32_t target = std::min(
      engine_->max_nodes(),
      std::max(n + 1,
               step_.planner().NodesForLoad(current_rate * 1.15) +
                   (n - live)));
  if (telemetry_.events != nullptr) {
    telemetry_.events->Record(
        engine_->simulator()->Now(), "controller",
        "safety net tripped at " + obs::FormatMetricValue(current_rate) +
            " txn/s with " + std::to_string(live) + "/" + std::to_string(n) +
            " nodes live, target " + std::to_string(target));
  }
  if (target > n) {
    Status st = migrator_->StartMove(target, nullptr,
                                     config_.infeasible_rate_multiplier);
    if (st.ok()) ++moves_started_;
  }
  step_.ResetScaleInStreak();
  return true;
}

void PredictiveController::Tick() {
  if (!running_) return;
  obs::ScopedSpan tick_span(telemetry_.tracer, "controller.tick");
  if (m_ticks_ != nullptr) m_ticks_->Add(1);
  // A crash or restart since the last tick invalidates fault-sensitive
  // control state: a scale-in confirmed against the pre-fault topology
  // must be re-confirmed from scratch (Section 6's flapping guard).
  const int64_t epoch = engine_->fault_epoch();
  if (epoch != last_fault_epoch_) {
    last_fault_epoch_ = epoch;
    step_.ResetScaleInStreak();
  }
  // Measure the load over the interval that just elapsed.
  const int64_t submitted = engine_->txns_submitted();
  const double seconds = DurationToSeconds(interval_);
  double rate = static_cast<double>(submitted - last_submitted_) / seconds;
  last_submitted_ = submitted;
  // A trace dropout starves the measurement pipeline: the controller —
  // and through it the predictor, its refits, and the guard — keeps
  // seeing the last sample that arrived, not the load actually offered.
  if (dropout_probe_ && dropout_probe_() && !series_.empty()) {
    rate = series_.back();
  }
  series_.push_back(rate);
  if (m_measured_rate_ != nullptr) m_measured_rate_->Set(rate);
  // Score the one-step-ahead forecast made on the previous tick against
  // the rate just measured (the paper's MSE diagnostics, Section 5).
  if (last_forecast_next_ >= 0) {
    if (m_forecast_error_ != nullptr) {
      m_forecast_error_->Set(rate - last_forecast_next_);
      m_forecast_abs_error_->Record(std::abs(rate - last_forecast_next_));
    }
    if (monitor_ != nullptr) {
      const guard::GuardState prev = monitor_->state();
      const guard::GuardState next =
          monitor_->Observe(rate, last_forecast_next_);
      if (next != prev && telemetry_.events != nullptr) {
        telemetry_.events->Record(
            engine_->simulator()->Now(), "guard",
            std::string("forecast ") + guard::GuardStateName(prev) + " -> " +
                guard::GuardStateName(next) + " (ewma residual " +
                obs::FormatMetricValue(monitor_->ewma_abs_residual()) + ")");
      }
    }
  }
  last_forecast_next_ = -1.0;

  // Active learning: refit the predictor periodically on everything
  // measured so far (the paper refits weekly).
  if (config_.refit_interval > 0 &&
      ++ticks_since_refit_ >= config_.refit_interval) {
    ticks_since_refit_ = 0;
    Status st = predictor_->Refit(series_, config_.horizon_intervals);
    if (st.ok()) {
      ++refits_;
    } else {
      PSTORE_LOG(Warn) << "online refit failed: " << st.ToString();
    }
  }

  // The guard (when enabled) rules first: while the forecast is
  // diverged it vetoes the predictive path, takes reactive control, and
  // may truncate + re-plan a move that is mid-flight (DESIGN.md §16).
  const bool vetoed = monitor_ != nullptr && GuardStep(rate);
  // While a reconfiguration is in flight, keep measuring but do not
  // plan; the cycle restarts when the move completes (Section 6).
  if (!vetoed && !migrator_->InProgress()) {
    if (!SafetyNet(rate)) {
      PlanAndAct(rate);
    }
  }
  // While the predictive path is benched — or a move is in flight and
  // PlanAndAct never ran — the monitor still needs a residual next tick
  // or the guard could never observe the forecast settle and rejoin.
  // Shadow-forecast one step without acting on it.
  if (monitor_ != nullptr && last_forecast_next_ < 0) {
    auto shadow = predictor_->Forecast(
        series_, static_cast<int64_t>(series_.size()) - 1,
        config_.horizon_intervals);
    if (shadow.ok() && !shadow->empty()) {
      last_forecast_next_ = std::max(0.0, (*shadow)[0]);
      if (m_forecast_next_ != nullptr) {
        m_forecast_next_->Set(last_forecast_next_);
      }
    }
  }
  engine_->simulator()->Schedule(interval_, [this]() { Tick(); });
}

bool PredictiveController::GuardStep(double rate) {
  guard::ArbiterInputs in;
  in.state = monitor_->state();
  in.move_in_flight = migrator_->InProgress();
  in.move_target =
      in.move_in_flight ? migrator_->history().back().to_nodes : 0;
  in.active_nodes = engine_->active_nodes();
  in.needed_nodes = step_.planner().NodesForLoad(rate * 1.15);
  in.min_floor = engine_->min_active_nodes();
  in.max_nodes = engine_->max_nodes();
  const guard::ArbiterRuling ruling = arbiter_.Decide(in);
  if (ruling.action == guard::ArbiterAction::kAllowPredictive) {
    return false;
  }
  ++guard_vetoes_;
  step_.ResetScaleInStreak();
  if (ruling.action == guard::ArbiterAction::kRepairInFlight) {
    // The in-flight schedule was planned from a forecast the guard has
    // condemned, and it lands short of what reactive control needs now:
    // truncate at the next chunk boundary and re-plan from the current
    // placement.
    Status st = migrator_->TruncateMove(
        "forecast diverged; re-planning for " +
        std::to_string(ruling.reactive_target) + " nodes");
    if (st.ok()) {
      ++plan_repairs_;
      if (telemetry_.events != nullptr) {
        telemetry_.events->Record(
            engine_->simulator()->Now(), "guard",
            "plan repair: truncated in-flight move; reactive target " +
                std::to_string(ruling.reactive_target));
      }
    } else {
      PSTORE_LOG(Warn) << "plan repair truncate failed: " << st.ToString();
    }
  }
  if (!migrator_->InProgress() &&
      ruling.reactive_target > engine_->active_nodes()) {
    if (telemetry_.events != nullptr) {
      telemetry_.events->Record(
          engine_->simulator()->Now(), "guard",
          "reactive control while diverged: scale to " +
              std::to_string(ruling.reactive_target) + " nodes");
    }
    Status st = migrator_->StartMove(ruling.reactive_target, nullptr,
                                     config_.infeasible_rate_multiplier);
    if (st.ok()) {
      ++moves_started_;
    } else {
      PSTORE_LOG(Warn) << "guard StartMove failed: " << st.ToString();
    }
  }
  return true;
}

void PredictiveController::PlanAndAct(double current_rate) {
  obs::ScopedSpan plan_span(telemetry_.tracer, "controller.plan");
  const int64_t t = static_cast<int64_t>(series_.size()) - 1;
  auto forecast =
      predictor_->Forecast(series_, t, config_.horizon_intervals);
  if (!forecast.ok()) {
    PSTORE_LOG(Warn) << "forecast failed: " << forecast.status().ToString();
    return;
  }
  if (!forecast->empty()) {
    last_forecast_next_ = std::max(0.0, (*forecast)[0]);
    if (m_forecast_next_ != nullptr) {
      m_forecast_next_->Set(last_forecast_next_);
    }
  }
  // Never shrink under strain the forecast cannot see (an open breaker,
  // recovery, a suspected or draining node): the step defers a planned
  // scale-in, whose confirmation then restarts from scratch.
  const std::string veto = ScaleInVeto(engine_);
  const int32_t n0 = engine_->active_nodes();
  const RecedingHorizonStep::Decision decision =
      step_.Step(current_rate, *forecast, n0, veto);
  const Plan& plan = *decision.plan;
  if (m_plans_ != nullptr) {
    m_plans_->Add(1);
    m_dp_cells_->Add(plan.dp_cells_evaluated);
    if (plan.feasible) m_plan_cost_->Set(plan.total_cost);
  }

  using Action = RecedingHorizonStep::Action;
  if (decision.action == Action::kDeferred && telemetry_.events != nullptr) {
    telemetry_.events->Record(engine_->simulator()->Now(), "controller",
                              "scale-in deferred: " + veto);
  }
  if (decision.action == Action::kFallback) {
    // No feasible plan: scale out toward the needed capacity right away,
    // at rate R (ride out the spike) or R x 8 (Section 4.3.1).
    if (telemetry_.events != nullptr) {
      telemetry_.events->Record(
          engine_->simulator()->Now(), "controller",
          "no feasible plan (predicted peak " +
              obs::FormatMetricValue(decision.peak) +
              " txn/s); reactive fallback target " +
              std::to_string(decision.target));
    }
    if (decision.target > n0) {
      Status st = migrator_->StartMove(decision.target, nullptr,
                                       config_.infeasible_rate_multiplier);
      if (st.ok()) ++moves_started_;
    }
    return;
  }
  if (decision.action != Action::kMove) return;
  // Clamp planned shrinks to the k-aware floor: executing a plan below
  // min_active_nodes() would strand every bucket at degraded k with no
  // node left to rebuild onto.
  const int32_t to_nodes =
      std::max(decision.target, engine_->min_active_nodes());
  if (to_nodes == engine_->active_nodes()) return;
  Status st = migrator_->StartMove(to_nodes, nullptr);
  if (st.ok()) {
    ++moves_started_;
    if (telemetry_.events != nullptr) {
      telemetry_.events->Record(
          engine_->simulator()->Now(), "controller",
          "plan " + plan.ToString() + "; executing first move " +
              std::to_string(n0) + " -> " + std::to_string(to_nodes));
    }
  } else {
    PSTORE_LOG(Warn) << "StartMove failed: " << st.ToString();
  }
}

}  // namespace pstore
