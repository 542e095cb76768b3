#pragma once

#include <cstdint>

#include "guard/forecast_monitor.h"

/// \file hybrid_arbiter.h
/// The arbitration policy between P-Store's predictive controller and
/// the reactive fallback (DESIGN.md §16). While the ForecastMonitor
/// reports kDiverged, predictive plans are vetoed and capacity follows
/// the measured load (never below the k-aware min_active_nodes floor,
/// never shrinking mid-divergence); an in-flight move whose target is
/// now undersized for the observed load is repaired mid-flight
/// (truncated at a chunk boundary and re-planned from the current
/// placement). Once residuals settle, prediction is re-admitted. Pure
/// decision logic: no clock, no randomness, no engine access.

namespace pstore {
namespace guard {

/// What the controller should do this control window.
enum class ArbiterAction {
  /// Forecast healthy: run the normal predict -> plan -> migrate loop.
  kAllowPredictive,
  /// Diverged: suppress predictive planning and track the measured
  /// load reactively (ruling.reactive_target; == active means hold).
  kReactiveControl,
  /// Diverged with an undersized move in flight: truncate it at a
  /// chunk boundary and re-plan from the current placement.
  kRepairInFlight,
};

const char* ArbiterActionName(ArbiterAction action);

/// Everything the ruling depends on, gathered by the controller.
struct ArbiterInputs {
  GuardState state = GuardState::kHealthy;
  /// True while the migrator is executing a move schedule.
  bool move_in_flight = false;
  /// Target node count of the in-flight move (ignored when not in
  /// flight).
  int32_t move_target = 0;
  int32_t active_nodes = 1;
  /// Nodes the measured load needs (planner's NodesForLoad with the
  /// controller's headroom applied).
  int32_t needed_nodes = 1;
  /// The engine's k-aware floor (min_active_nodes()).
  int32_t min_floor = 1;
  int32_t max_nodes = 1;
};

struct ArbiterRuling {
  ArbiterAction action = ArbiterAction::kAllowPredictive;
  /// Reactive node target while diverged: measured need clamped to
  /// [max(active, min_floor), max_nodes] — divergence never shrinks
  /// the cluster and never dips below the k-aware floor.
  int32_t reactive_target = 0;
};

/// \brief Stateless ruling over (guard state, migration state, load).
class HybridArbiter {
 public:
  ArbiterRuling Decide(const ArbiterInputs& in) const;
};

}  // namespace guard
}  // namespace pstore
