#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.h"
#include "overload/circuit_breaker.h"
#include "overload/overload_config.h"

/// \file admission_controller.h
/// The engine's admission gate: decides, per arriving work item, whether
/// it enters the target partition's bounded queue, displaces queued
/// lower-priority work, or is shed — consulting the target node's
/// circuit breaker first. The controller never touches a queue directly;
/// callers hand it a QueueOps of callbacks bound to the target executor,
/// which keeps this library free of any dependency on the cluster layer
/// (the cluster links *us*).

namespace pstore {
namespace overload {

/// Callbacks bound to one partition queue for a single Admit() call.
struct QueueOps {
  /// Waiting items (excluding the one in service).
  std::function<size_t()> queue_length;
  /// Evict the lowest-priority waiting item strictly below the given
  /// priority (newest among ties); false if no such item.
  std::function<bool(int8_t)> evict_lowest_below;
};

/// Outcome of one admission attempt.
enum class AdmissionDecision {
  kAdmit,             ///< Enqueue (a lower-priority victim may have
                      ///< been evicted to make room).
  kRejectQueueFull,   ///< Queue at limit with no lower-priority victim.
  kRejectBreakerOpen, ///< Node breaker open; non-critical work refused.
};

const char* AdmissionDecisionName(AdmissionDecision decision);

/// \brief Priority-shed admission control with per-node breakers.
///
/// Breaker feeding is the caller's job (RecordAdmitted on successful
/// enqueue, RecordShed on every shed or eviction): Admit() itself only
/// *reads* breaker state. Rejections made *because* a breaker is open
/// are deliberately not fed back, otherwise an open breaker would count
/// its own rejections as sheds and never see a clean probe window.
class AdmissionController {
 public:
  /// \param config validated overload config (copied)
  /// \param num_nodes breakers to maintain (indexed by node id)
  AdmissionController(const OverloadConfig& config, int32_t num_nodes);

  /// Decides admission of one item of `priority` to `node`'s queue at
  /// virtual time `now`. May evict a queued item through `ops` (the
  /// victim's shed callback fires inside the call).
  AdmissionDecision Admit(const QueueOps& ops, int32_t node, int8_t priority,
                          SimTime now);

  /// Feed the node's breaker: one request entered the queue.
  void RecordAdmitted(int32_t node, SimTime now);

  /// Feed the node's breaker: one request was shed (queue-full reject,
  /// eviction, or deadline expiry).
  void RecordShed(int32_t node, SimTime now);

  CircuitBreaker* breaker(int32_t node) {
    return &breakers_[static_cast<size_t>(node)];
  }
  int32_t num_nodes() const { return static_cast<int32_t>(breakers_.size()); }

  /// True if any node's breaker is open at `now` — the controllers'
  /// "overload evidence" signal.
  bool AnyBreakerOpen(SimTime now);

  /// Breakers open at `now` (shed-rate gauge material).
  int32_t OpenBreakerCount(SimTime now);

  /// Total Closed/HalfOpen -> Open transitions across all nodes.
  int64_t total_trips() const;

  /// Queued lower-priority items evicted by Admit() to make room.
  int64_t evictions() const { return evictions_; }

  const OverloadConfig& config() const { return config_; }

 private:
  OverloadConfig config_;
  std::vector<CircuitBreaker> breakers_;
  int64_t evictions_ = 0;
};

}  // namespace overload
}  // namespace pstore
