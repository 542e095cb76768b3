#include "core/reactive_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/scale_in_veto.h"

namespace pstore {

namespace {
/// EWMA smoothing factor for the measured rate.
constexpr double kRateSmoothing = 0.5;
}  // namespace

Status ReactiveConfig::Validate() const {
  if (q <= 0 || q_hat < q) {
    return Status::InvalidArgument("need 0 < q <= q_hat");
  }
  if (high_watermark <= 0 || high_watermark > 1) {
    return Status::InvalidArgument("high_watermark out of (0, 1]");
  }
  if (low_watermark <= 0 || low_watermark >= 1) {
    return Status::InvalidArgument("low_watermark out of (0, 1)");
  }
  if (monitor_period <= 0) {
    return Status::InvalidArgument("monitor_period <= 0");
  }
  if (headroom < 0) return Status::InvalidArgument("headroom < 0");
  return Status::OK();
}

ReactiveController::ReactiveController(ClusterEngine* engine,
                                       MigrationExecutor* migrator,
                                       ReactiveConfig config)
    : engine_(engine), migrator_(migrator), config_(config) {
  assert(config_.Validate().ok());
}

void ReactiveController::set_telemetry(const obs::Telemetry& telemetry) {
  telemetry_ = telemetry;
  if (telemetry_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *telemetry_.metrics;
  m_ticks_ = m.GetCounter("reactive.ticks");
  m.BindCounter("reactive.scale_outs", &scale_outs_);
  m.BindCounter("reactive.scale_ins", &scale_ins_);
  m_smoothed_rate_ = m.GetGauge("reactive.smoothed_rate");
}

void ReactiveController::Start() {
  running_ = true;
  last_submitted_ = engine_->txns_submitted();
  engine_->simulator()->Schedule(config_.monitor_period,
                                 [this]() { Tick(); });
}

void ReactiveController::Tick() {
  if (!running_) return;
  const int64_t submitted = engine_->txns_submitted();
  const double seconds = DurationToSeconds(config_.monitor_period);
  const double rate =
      static_cast<double>(submitted - last_submitted_) / seconds;
  last_submitted_ = submitted;
  smoothed_rate_ =
      kRateSmoothing * rate + (1.0 - kRateSmoothing) * smoothed_rate_;
  if (m_ticks_ != nullptr) {
    m_ticks_->Add(1);
    m_smoothed_rate_->Set(smoothed_rate_);
  }

  // A crash or restart invalidates the scale-in hold timer: capacity
  // changed under us, so "load has stayed low" must be re-established
  // against the new topology.
  const int64_t epoch = engine_->fault_epoch();
  if (epoch != last_fault_epoch_) {
    last_fault_epoch_ = epoch;
    low_since_ = -1;
  }

  if (!migrator_->InProgress()) {
    const int32_t n = engine_->active_nodes();
    // Size against the capacity that actually serves: dead nodes hold an
    // allocation but no load, so a crash can trip the high watermark at
    // steady offered load (graceful degradation).
    const int32_t live = engine_->live_nodes();
    const double cap_hat = config_.q_hat * live;
    auto size_for = [&](double load) {
      return std::clamp<int32_t>(
          static_cast<int32_t>(
              std::ceil(load * (1.0 + config_.headroom) / config_.q)) +
              (n - live),
          1, engine_->max_nodes());
    };

    // An open breaker is direct overload evidence even when the admitted
    // rate looks fine: shed load never shows up in txns_submitted-based
    // rates, so the breaker is the only signal that offered > admitted.
    overload::AdmissionController* admission = engine_->admission();
    const bool breaker_overload =
        admission != nullptr &&
        admission->AnyBreakerOpen(engine_->simulator()->Now());

    // Degraded k-safety or an in-flight restart recovery also counts as
    // overload evidence: replay and re-replication consume effective
    // capacity (Eq. 7 applied to failures). One extra node per fault
    // epoch absorbs the catch-up work without ratcheting to max_nodes,
    // and the scale-in branch below is suppressed until full strength.
    const bool rate_overload =
        smoothed_rate_ > config_.high_watermark * cap_hat;
    const bool recovery_overload =
        engine_->RecoveryInProgress() && recovery_scale_epoch_ != epoch;

    // A draining node is capacity already scheduled to vanish (a spot
    // revocation's hard kill): treat each revocation wave as overload
    // evidence and provision the replacements before the deadline, one
    // scale-out per wave.
    const int32_t draining = engine_->nodes_draining();
    const bool drain_overload =
        draining > 0 && engine_->drains_started() > drains_seen_;

    if (rate_overload || breaker_overload || recovery_overload ||
        drain_overload) {
      // Overload detected: scale out to fit the observed load.
      const int32_t target =
          rate_overload || breaker_overload
              ? std::max(n + 1, size_for(smoothed_rate_))
              : drain_overload
                    ? std::min(n + draining, engine_->max_nodes())
                    : std::min(n + 1, engine_->max_nodes());
      if (target > n) {
        low_since_ = -1;
        Status st = migrator_->StartMove(target, nullptr);
        if (st.ok()) {
          if (recovery_overload) recovery_scale_epoch_ = epoch;
          if (drain_overload) drains_seen_ = engine_->drains_started();
          ++scale_outs_;
          if (telemetry_.events != nullptr) {
            const char* cause =
                breaker_overload
                    ? "breaker-open overload at "
                    : rate_overload
                          ? "overload at "
                          : drain_overload
                                ? "drain/revocation overload at "
                                : "degraded-k/recovery overload at ";
            telemetry_.events->Record(
                engine_->simulator()->Now(), "reactive",
                cause + obs::FormatMetricValue(smoothed_rate_) +
                    " txn/s; scale out " + std::to_string(n) + " -> " +
                    std::to_string(target));
          }
        }
      }
    } else if (n > engine_->min_active_nodes() && live > 1 &&
               smoothed_rate_ <
                   config_.low_watermark * config_.q * (live - 1) &&
               ScaleInVeto(engine_).empty()) {
      // Load would comfortably fit on a smaller cluster; require it to
      // stay that way for the hold period before scaling in. The floor
      // is k-aware: shrinking below min_active_nodes() would drop every
      // backup with no node left to rebuild onto, and the shared veto
      // holds the branch while the cluster is under unseen strain.
      const SimTime now = engine_->simulator()->Now();
      if (low_since_ < 0) low_since_ = now;
      if (now - low_since_ >= config_.scale_in_hold) {
        const int32_t target =
            std::max(std::min(n - 1, size_for(smoothed_rate_)),
                     engine_->min_active_nodes());
        Status st = migrator_->StartMove(target, nullptr);
        if (st.ok()) {
          ++scale_ins_;
          if (telemetry_.events != nullptr) {
            telemetry_.events->Record(
                engine_->simulator()->Now(), "reactive",
                "sustained low load at " +
                    obs::FormatMetricValue(smoothed_rate_) +
                    " txn/s; scale in " + std::to_string(n) + " -> " +
                    std::to_string(target));
          }
        }
        low_since_ = -1;
      }
    } else {
      low_since_ = -1;
    }
  }

  engine_->simulator()->Schedule(config_.monitor_period,
                                 [this]() { Tick(); });
}

}  // namespace pstore
