#include "overload/overload_config.h"

namespace pstore {
namespace overload {

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
