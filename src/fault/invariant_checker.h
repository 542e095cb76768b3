#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "migration/migration_executor.h"

/// \file invariant_checker.h
/// Always-on cluster invariant checking for chaos runs. The checker
/// audits engine + migrator state against the safety properties the
/// fault model must preserve: single live ownership of every bucket, no
/// lost or duplicated rows, consistent transaction accounting, monotone
/// virtual time, conservation of migrated bytes, and — under overload
/// control — exhaustive shed accounting (submitted = committed + aborted
/// + shed + in flight) with partition queues never exceeding their
/// bound — and, when replication is enabled, sane backup placement,
/// primary/backup row-set equality, and k-safety restoration liveness.
/// When the simulated network substrate is enabled, it additionally
/// audits the fencing tripwires (no commit without a valid lease, no
/// chunk sequence applied twice) and message conservation (sent +
/// duplicated = delivered + dropped + in flight). With the
/// content-modeled durable store it audits the durability tripwire (no
/// record replayed into live state without passing CRC validation),
/// that repairs never exceed damage found, and that the detection and
/// scrub counters are monotone. With the topology layer it audits the
/// graceful-drain contract (a draining node is hard-killed at its
/// revocation deadline) and domain diversity (no fully-replicated
/// bucket keeps its primary and every backup in one failure domain
/// while a domain-diverse backup target exists). With mid-flight plan
/// repair (DESIGN.md §16) it audits that an aborted or truncated move
/// strands no bucket and double-owns none: every ended record carries a
/// real time range, `truncated` implies `aborted`, the history's flag
/// counts reconcile with the executor's counters, and at most one
/// record is in flight — exactly when the executor says InProgress().
/// Run it standalone via Check() or on a cadence via StartPeriodic().

namespace pstore {

/// One failed invariant, stamped with the virtual time it was observed.
struct InvariantViolation {
  SimTime at = 0;
  std::string what;

  std::string ToString() const {
    std::string out = "[";
    out += FormatSimTime(at);
    out += "] ";
    out += what;
    return out;
  }
};

/// \brief Audits engine/migrator state; accumulates violations.
///
/// Checks are read-only and deterministic. A null migrator skips the
/// migration-accounting checks.
class InvariantChecker {
 public:
  /// \param engine engine under audit (not owned)
  /// \param migrator migration executor under audit; may be null
  InvariantChecker(ClusterEngine* engine, MigrationExecutor* migrator)
      : engine_(engine), migrator_(migrator) {}

  /// Expected total row count for the conservation check. Set once after
  /// loading; negative (default) disables the check. Crash failover and
  /// migration move rows but never create or destroy them, so the total
  /// must stay fixed for read-only workloads (minus rows the engine
  /// explicitly accounts as lost when a crash finds no replica).
  void set_expected_rows(int64_t rows) { expected_rows_ = rows; }

  /// Runs every invariant once. Returns OK iff no new violation was
  /// found; each violation is also appended to violations().
  Status Check();

  /// Schedules Check() every `period` of virtual time, forever (chaos
  /// runs bound the simulation with RunUntil, which caps the schedule).
  void StartPeriodic(SimDuration period);

  /// Stops the periodic schedule after the currently queued check.
  void Stop() { ++generation_; }

  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  int64_t checks_run() const { return checks_run_; }

 private:
  void Tick(SimDuration period, int64_t generation);
  void Violation(const std::string& what);

  ClusterEngine* engine_;
  MigrationExecutor* migrator_;
  int64_t expected_rows_ = -1;
  std::vector<InvariantViolation> violations_;
  int64_t checks_run_ = 0;
  int64_t generation_ = 0;

  // Monotonicity watermarks from the previous Check().
  SimTime last_now_ = -1;
  int64_t last_events_executed_ = -1;
  int64_t last_committed_ = -1;
  double last_kb_moved_ = -1.0;
  int64_t last_net_delivered_ = -1;
  int64_t last_crc_failures_ = -1;
  int64_t last_scrub_verified_ = -1;

  // Two-strike memory for the rebuild-liveness check: a bucket is only
  // reported stalled when it was already stalled on the previous tick
  // (a rebuild may legally start later within the same virtual instant
  // the first time the condition is observed).
  std::vector<uint8_t> rebuild_stalled_;
  // Two-strike memories for the topology audits (same rationale): the
  // hard-kill event fires at exactly the deadline instant, possibly
  // after this tick's check, and the diversity-repair sweep may run
  // later within the same virtual instant.
  std::vector<uint8_t> drain_overdue_;
  std::vector<uint8_t> diversity_stalled_;
};

}  // namespace pstore
