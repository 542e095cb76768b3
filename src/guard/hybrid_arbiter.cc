#include "guard/hybrid_arbiter.h"

#include <algorithm>

namespace pstore {
namespace guard {

const char* ArbiterActionName(ArbiterAction action) {
  switch (action) {
    case ArbiterAction::kAllowPredictive:
      return "allow-predictive";
    case ArbiterAction::kReactiveControl:
      return "reactive-control";
    case ArbiterAction::kRepairInFlight:
      return "repair-in-flight";
  }
  return "unknown";
}

ArbiterRuling HybridArbiter::Decide(const ArbiterInputs& in) const {
  ArbiterRuling ruling;
  if (in.state != GuardState::kDiverged) {
    // Healthy and suspect windows both leave prediction in control:
    // suspicion alone (hysteresis in progress) is not evidence enough
    // to pay the cost of a control handoff.
    ruling.action = ArbiterAction::kAllowPredictive;
    return ruling;
  }
  // Diverged: capacity follows the measured load. Never below the
  // k-aware floor, never a shrink mid-divergence (the forecast that
  // would justify releasing machines is exactly what we distrust).
  const int32_t floor = std::max(in.active_nodes, in.min_floor);
  ruling.reactive_target =
      std::min(in.max_nodes, std::max(in.needed_nodes, floor));
  if (in.move_in_flight && in.move_target < ruling.reactive_target) {
    // The in-flight schedule lands short of what reality needs:
    // finishing it wastes the remaining chunk transfers on a wrong
    // placement. Truncate at a chunk boundary and re-plan.
    ruling.action = ArbiterAction::kRepairInFlight;
  } else {
    ruling.action = ArbiterAction::kReactiveControl;
  }
  return ruling;
}

}  // namespace guard
}  // namespace pstore
