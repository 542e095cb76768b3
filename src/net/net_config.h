#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "common/status.h"

/// \file net_config.h
/// Configuration for the simulated message substrate (src/net). Strictly
/// opt-in: with `enabled == false` (the default) the engine never
/// constructs a NetworkModel, schedules no heartbeats, draws nothing
/// from the net Rng stream, and registers no net metrics — so all
/// pre-existing traces stay byte-identical (same discipline as the
/// overload and replication configs).

namespace pstore {
namespace net {

/// Minimum one-way message latency (microseconds of virtual time).
constexpr double kMinLatencyUs = 50.0;
/// Mean one-way latency; the excess over the minimum is exponentially
/// distributed, so per-message draws naturally reorder deliveries.
constexpr double kMeanLatencyUs = 200.0;

/// How often each live node heartbeats the controller.
constexpr SimDuration kHeartbeatPeriod = 250 * kMillisecond;

/// Knobs for the network model and the lease/fencing control plane.
///
/// The heartbeat and the three timers form a strict chain
///   kHeartbeatPeriod < suspicion_timeout < lease_timeout
///                    < failover_timeout
/// which is what makes fenced failover safe: a node whose heartbeats
/// stop is first *suspected* (controllers defer scale-ins), then loses
/// its *lease* (it self-fences: rejects transactions before executing
/// them), and only after that does the controller declare it dead and
/// promote its buckets — so the promotion window can never overlap a
/// window in which the stale primary could still commit.
struct NetConfig {
  bool enabled = false;

  /// Silence after which the controller *suspects* a node (scale-ins
  /// are deferred while any node is suspected).
  SimDuration suspicion_timeout = kSecond;
  /// Lease horizon granted by each heartbeat ack. A node whose lease
  /// expired rejects transactions pre-execution (self-fencing).
  SimDuration lease_timeout = 2 * kSecond;
  /// Silence after which the controller declares the node dead and
  /// runs the fenced failover (promote buckets to reachable backups).
  SimDuration failover_timeout = 4 * kSecond;

  Status Validate() const;
};

}  // namespace net
}  // namespace pstore
