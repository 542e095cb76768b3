#include "durability/durability_config.h"

#include <cmath>

namespace pstore {
namespace durability {

Status DurabilityConfig::Validate() const {
  if (!std::isfinite(scrub_rate_kbps)) {
    return Status::InvalidArgument("scrub_rate_kbps not finite");
  }
  if (scrub_rate_kbps < 0) {
    return Status::InvalidArgument("scrub_rate_kbps < 0");
  }
  return Status::OK();
}

}  // namespace durability
}  // namespace pstore
