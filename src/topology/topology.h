#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

/// \file topology.h
/// Cluster topology layer: failure domains and node classes. Real
/// elastic fleets do not lose nodes one at a time — racks and
/// availability zones fail together, and spot instances are revoked
/// with a short advance notice. This layer tags every node with a
/// FailureDomain (rack/zone stand-in) and a NodeClass (on-demand vs
/// spot), and exposes a PlacementPolicy the replication layer consults
/// so no bucket ever has its primary and every backup inside one
/// domain.
///
/// Strictly opt-in: with `enabled == false` (the default) the engine
/// constructs no policy, registers no topology metrics, schedules no
/// drain work, and the two topology fault types are recorded in the
/// trace but inert — so all pre-existing traces stay byte-identical
/// (the same discipline as the overload/replication/net/durability
/// configs).

namespace pstore {
namespace topology {

using NodeId = int32_t;
using FailureDomain = int32_t;

/// Capacity class of a node: on-demand nodes are durable; spot nodes
/// can receive a revocation notice and are hard-killed at its deadline.
enum class NodeClass {
  kOnDemand,
  kSpot,
};

const char* NodeClassName(NodeClass c);

/// Knobs for the topology layer.
struct TopologyConfig {
  bool enabled = false;

  /// Number of failure domains nodes are striped across (node n lives
  /// in domain n % num_domains — deterministic, so placement decisions
  /// are pure functions of the node id).
  int32_t num_domains = 3;

  /// Validates ranges (num_domains >= 1).
  Status Validate() const;
};

/// \brief Pure placement rules over a TopologyConfig.
///
/// The ReplicaManager and the engine's backup-partition chooser consult
/// this policy: a backup candidate in a different failure domain than
/// the bucket's primary is strictly preferred, so a single domain
/// outage can never take out a bucket's primary and all of its
/// replicas at once (whenever a diverse candidate exists at all).
class PlacementPolicy {
 public:
  explicit PlacementPolicy(TopologyConfig config);

  const TopologyConfig& config() const { return config_; }

  /// The failure domain hosting node `n` (n % num_domains).
  FailureDomain DomainOf(NodeId n) const {
    return n % config_.num_domains;
  }

  /// Capacity class of node `n`: every node but node 0, which the fault
  /// injector never kills, is spot.
  NodeClass ClassOf(NodeId n) const {
    return n > 0 ? NodeClass::kSpot : NodeClass::kOnDemand;
  }

  bool SameDomain(NodeId a, NodeId b) const {
    return DomainOf(a) == DomainOf(b);
  }

  /// True when placing a replica for a bucket whose primary lives on
  /// `primary_node` onto `candidate` improves failure isolation — i.e.
  /// the candidate sits in a different domain than the primary.
  bool PrefersForBackup(NodeId primary_node, NodeId candidate) const {
    return !SameDomain(primary_node, candidate);
  }

 private:
  TopologyConfig config_;
};

}  // namespace topology
}  // namespace pstore
