#include "replication/replication_config.h"

#include <cmath>

namespace pstore {
namespace replication {

Status ReplicationConfig::Validate() const {
  if (k < 1) return Status::InvalidArgument("replication k < 1");
  // Every rate/size knob feeds virtual-time arithmetic; a NaN or
  // infinity would poison recovery durations silently, so finiteness
  // is checked before sign.
  if (!std::isfinite(db_size_mb)) {
    return Status::InvalidArgument("db_size_mb not finite");
  }
  if (db_size_mb <= 0) return Status::InvalidArgument("db_size_mb <= 0");
  if (!std::isfinite(rebuild_chunk_kb)) {
    return Status::InvalidArgument("rebuild_chunk_kb not finite");
  }
  if (rebuild_chunk_kb <= 0) {
    return Status::InvalidArgument("rebuild_chunk_kb <= 0");
  }
  if (!std::isfinite(rebuild_rate_kbps)) {
    return Status::InvalidArgument("rebuild_rate_kbps not finite");
  }
  if (rebuild_rate_kbps <= 0) {
    return Status::InvalidArgument("rebuild_rate_kbps <= 0");
  }
  if (!std::isfinite(wire_kbps)) {
    return Status::InvalidArgument("wire_kbps not finite");
  }
  if (wire_kbps <= 0) return Status::InvalidArgument("wire_kbps <= 0");
  if (checkpoint_period <= 0) {
    return Status::InvalidArgument("checkpoint_period <= 0");
  }
  if (durability.enabled) PSTORE_RETURN_NOT_OK(durability.Validate());
  return Status::OK();
}

}  // namespace replication
}  // namespace pstore
