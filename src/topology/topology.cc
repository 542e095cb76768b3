#include "topology/topology.h"

#include <cassert>

namespace pstore {
namespace topology {

const char* NodeClassName(NodeClass c) {
  switch (c) {
    case NodeClass::kOnDemand:
      return "on-demand";
    case NodeClass::kSpot:
      return "spot";
  }
  return "unknown";
}

Status TopologyConfig::Validate() const {
  if (num_domains < 1) {
    return Status::InvalidArgument("num_domains must be >= 1");
  }
  return Status::OK();
}

PlacementPolicy::PlacementPolicy(TopologyConfig config) : config_(config) {
  assert(config_.Validate().ok());
}

}  // namespace topology
}  // namespace pstore
