#pragma once

#include <cstdint>

#include "cluster/engine.h"
#include "common/status.h"
#include "migration/migration_executor.h"
#include "obs/telemetry.h"

/// \file reactive_controller.h
/// A purely reactive elasticity controller in the spirit of E-Store
/// [Taft et al., VLDB 2014], the baseline of Figures 9c and 12: monitor
/// the load at a fine grain, and only once a node is (nearly) overloaded
/// scale out; scale in after the load has stayed low for a sustained
/// period. Reconfiguration therefore always starts while the system is
/// at peak utilization — the weakness P-Store is designed to remove.

namespace pstore {

/// Reactive-controller knobs.
struct ReactiveConfig {
  /// Per-node rate used for sizing. E-Store rebalances for the *current*
  /// load with no forward-looking buffer, so the reactive baseline sizes
  /// at Q-hat (80% of saturation) rather than P-Store's conservative Q.
  double q = 350.0;
  double q_hat = 350.0;   ///< Per-node rate considered "overloaded".

  /// Scale out when measured load exceeds this fraction of cap_hat(n).
  /// 1.0 = react only once the node is actually at its limit — the
  /// purely reactive behaviour the paper contrasts with (Section 1:
  /// "reconfiguration is only triggered when the system is already
  /// under heavy load").
  double high_watermark = 1.0;
  /// Scale in when load stays below this fraction of cap(n-1).
  double low_watermark = 0.70;

  /// Monitoring period (E-Store reacts within seconds).
  SimDuration monitor_period = 5 * kSecond;
  /// How long load must stay low before scaling in.
  SimDuration scale_in_hold = 5 * kMinute;
  /// Headroom applied when sizing the target cluster (reactive systems
  /// size for the load they see, not the load to come).
  double headroom = 0.0;

  Status Validate() const;
};

/// \brief Threshold-based scale-out/scale-in loop.
class ReactiveController {
 public:
  ReactiveController(ClusterEngine* engine, MigrationExecutor* migrator,
                     ReactiveConfig config);

  void Start();
  void Stop() { running_ = false; }

  int64_t scale_outs() const { return scale_outs_; }
  int64_t scale_ins() const { return scale_ins_; }

  /// Attaches observability sinks ("reactive.*" metrics: tick count,
  /// smoothed rate, scale decisions as events). Call before Start().
  void set_telemetry(const obs::Telemetry& telemetry);

 private:
  void Tick();

  ClusterEngine* engine_;
  MigrationExecutor* migrator_;
  ReactiveConfig config_;
  obs::Telemetry telemetry_;
  // Handles of the metrics the controller keeps no count of itself (null
  // until set_telemetry).
  obs::Counter* m_ticks_ = nullptr;
  obs::Gauge* m_smoothed_rate_ = nullptr;
  bool running_ = false;
  int64_t last_submitted_ = 0;
  int64_t last_fault_epoch_ = 0;
  /// Fault epoch whose recovery already triggered a scale-out (one
  /// extra node per crash/restart, not one per tick).
  int64_t recovery_scale_epoch_ = -1;
  /// Drains already answered with a scale-out (engine drains_started()
  /// watermark: one emergency scale-out per revocation wave, not one
  /// per tick while a node drains).
  int64_t drains_seen_ = 0;
  double smoothed_rate_ = 0;
  SimTime low_since_ = -1;
  int64_t scale_outs_ = 0;
  int64_t scale_ins_ = 0;
};

}  // namespace pstore
