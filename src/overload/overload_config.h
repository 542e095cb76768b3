#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "common/status.h"
#include "overload/circuit_breaker.h"

/// \file overload_config.h
/// Configuration for the overload-control subsystem: bounded partition
/// queues, a dequeue-time deadline (latency SLO), priority-shed
/// admission, and per-node circuit breakers. Strictly opt-in: with
/// `enabled = false` (the default) the engine behaves exactly as an
/// unbounded-FIFO build — no extra Rng draws, metrics, or events — so
/// pre-existing traces stay byte-identical.
///
/// The queue bound is the admission-side face of the paper's effective
/// capacity (Eq. 7): a partition serving at rate mu with a depth limit
/// of L and deadline T admits at most the work it can start within T,
/// so L should sit near mu * T. See DESIGN.md section 9.

namespace pstore {
namespace overload {

/// Overload-control knobs (engine-wide; queues are per partition).
struct OverloadConfig {
  /// Master switch. Everything below is inert while false.
  bool enabled = false;

  /// Waiting items allowed per partition queue (excluding the item in
  /// service). 0 = unbounded (deadline and breaker still apply). An
  /// arrival at a full queue evicts the lowest-priority queued item
  /// strictly below its own priority, or is shed if there is none.
  int32_t max_queue_depth = 64;

  /// Queueing-delay SLO: work that has not *started* service within
  /// this much virtual time of submission is shed at dequeue instead of
  /// executed (serving it would only produce an SLO-violating response
  /// while delaying everything behind it). 0 disables.
  SimDuration queue_deadline = 0;

  /// Per-node breaker tuning.
  BreakerConfig breaker;

  Status Validate() const;
};

}  // namespace overload
}  // namespace pstore
