#include "net/net_config.h"

namespace pstore {
namespace net {

Status NetConfig::Validate() const {
  if (suspicion_timeout <= kHeartbeatPeriod) {
    return Status::InvalidArgument("need heartbeat < suspicion_timeout");
  }
  if (lease_timeout <= suspicion_timeout) {
    return Status::InvalidArgument(
        "need suspicion_timeout < lease_timeout");
  }
  if (failover_timeout <= lease_timeout) {
    return Status::InvalidArgument("need lease_timeout < failover_timeout");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace pstore
