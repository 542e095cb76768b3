#include "core/scale_in_veto.h"

namespace pstore {

std::string ScaleInVeto(ClusterEngine* engine) {
  overload::AdmissionController* admission = engine->admission();
  if (admission != nullptr &&
      admission->AnyBreakerOpen(engine->simulator()->Now())) {
    return "circuit breaker open";
  }
  if (engine->RecoveryInProgress()) {
    return "recovery in progress / degraded k-safety";
  }
  if (engine->nodes_suspected() > 0) {
    return std::to_string(engine->nodes_suspected()) +
           " node(s) suspected unreachable";
  }
  if (engine->nodes_draining() > 0) {
    return std::to_string(engine->nodes_draining()) +
           " node(s) draining (impending revocation)";
  }
  return "";
}

}  // namespace pstore
