#include "overload/overload_config.h"

namespace pstore {
namespace overload {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kRejectNew:
      return "reject-new";
    case AdmissionPolicy::kDropTail:
      return "drop-tail";
    case AdmissionPolicy::kPriorityShed:
      return "priority-shed";
  }
  return "unknown";
}

Status OverloadConfig::Validate() const {
  if (max_queue_depth < 0) {
    return Status::InvalidArgument("max_queue_depth < 0");
  }
  if (queue_deadline < 0) {
    return Status::InvalidArgument("queue_deadline < 0");
  }
  return breaker.Validate();
}

}  // namespace overload
}  // namespace pstore
