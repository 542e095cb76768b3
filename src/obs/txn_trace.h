#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"

/// \file txn_trace.h
/// End-to-end transaction lifecycle tracing. A sampled transaction
/// carries a trace handle through the engine and records every phase
/// transition — submitted → admitted/shed → executing → replicating →
/// committed/aborted/fenced — stamped on the virtual clock, plus net
/// hops, retransmissions observed during its lifetime, and how much of
/// its latency overlapped an active migration. Sampling draws from a
/// dedicated pstore::Rng stream (rate configurable, default off), so
/// traces are byte-identical across runs of one seed and the disabled
/// path draws nothing and allocates nothing — the PR-2/PR-5 opt-in
/// contract.

namespace pstore {
namespace obs {

/// \brief Lifecycle states a traced transaction can enter.
///
/// The recorder stores *state-entry* events; phase durations are the
/// intervals between consecutive entries (see PhaseIntervals), so the
/// per-phase attribution always sums to the end-to-end latency.
enum class TxnPhase : uint8_t {
  kSubmitted = 0,   ///< Arrived at the engine (detail = bucket).
  kAdmitted,        ///< Passed admission, enqueued (detail = partition).
  kExecuting,       ///< Dequeued, service started (detail = partition).
  kForwarded,       ///< Finished on a stale owner; re-routed
                    ///< (detail = new partition).
  kReplicated,      ///< Backup applies done (detail = replica count).
  kCommitted,       ///< Terminal: committed.
  kAborted,         ///< Terminal: aborted.
  kShed,            ///< Terminal: shed by admission (detail = reason:
                    ///< 0 queue-full, 1 breaker, 2 deadline, 3 evicted).
  kFenced,          ///< Terminal: rejected by the lease fence.
};

/// Stable display name of a phase ("submitted", "admitted", ...).
const char* TxnPhaseName(TxnPhase phase);

/// \brief One recorded state entry.
struct TxnTraceEvent {
  TxnPhase phase = TxnPhase::kSubmitted;
  SimTime at = 0;
  int32_t detail = 0;  ///< Phase-specific (see TxnPhase comments).
};

/// \brief The full trace of one sampled transaction.
struct TxnTraceRecord {
  int64_t txn_id = 0;
  std::string proc;               ///< Procedure name.
  int32_t bucket = 0;             ///< Key bucket targeted.
  std::vector<TxnTraceEvent> events;
  int32_t net_hops = 0;           ///< Messages sent on its behalf.
  int64_t retransmits_seen = 0;   ///< Cluster retransmits during its life.
  SimDuration migration_overlap = 0;  ///< Lifetime ∩ active-move windows.
  bool done = false;              ///< Finalize() was called.
};

/// \brief One attribution interval derived from a trace.
struct TxnPhaseInterval {
  const char* phase = "";  ///< Attribution label for [start, end].
  SimTime start = 0;
  SimTime end = 0;
  int32_t detail = 0;
};

/// Derives latency-attribution intervals from a record's state entries:
/// interval i spans [event_i.at, event_{i+1}.at] and is labeled by the
/// state entered at event_i ("admission", "queued", "executing",
/// "forwarding", "replicating"). The interval durations sum exactly to
/// the transaction's end-to-end latency.
std::vector<TxnPhaseInterval> PhaseIntervals(const TxnTraceRecord& record);

/// \brief Samples transactions and records their lifecycle traces.
///
/// Deterministic: the sampling decision is one Bernoulli draw per
/// submitted transaction from a private Rng stream, and every timestamp
/// is virtual, so two same-seed runs produce byte-identical traces
/// (Fingerprint() equality). When disabled (rate 0, the default) no Rng
/// is drawn and nothing is stored.
class TxnTraceRecorder {
 public:
  struct Config {
    double sample_rate = 0.0;  ///< P(trace a txn); 0 disables entirely.
    uint64_t seed = 42;        ///< Seed of the private sampling stream.
    size_t max_records = 0;    ///< Cap on kept traces (later samples are
                               ///< counted in dropped()); 0 = unbounded.
  };

  TxnTraceRecorder() : TxnTraceRecorder(Config{}) {}
  explicit TxnTraceRecorder(const Config& config) { Configure(config); }

  /// (Re)configures the recorder; call before the first Sample().
  void Configure(const Config& config) {
    config_ = config;
    rng_ = Rng(config.seed);
  }

  /// True when tracing can record anything at all.
  bool enabled() const { return config_.sample_rate > 0.0; }

  /// Rolls the sampling dice for one submitted transaction. Returns a
  /// trace handle (>= 0) if sampled — the kSubmitted event is recorded
  /// as a side effect — or -1 if not sampled. When the recorder is
  /// disabled this returns -1 *without drawing from the Rng*, so
  /// disabled runs stay byte-identical to untraced ones.
  int64_t Sample(int64_t txn_id, const std::string& proc, int32_t bucket,
                 SimTime at);

  /// Records a state entry on a sampled transaction. `handle` may be -1
  /// (not sampled): the call is a no-op then, so hot paths stay
  /// branch-light.
  void Record(int64_t handle, TxnPhase phase, SimTime at, int32_t detail = 0);

  /// Adds network messages sent on the transaction's behalf.
  void AddNetHops(int64_t handle, int32_t hops);

  /// Closes the trace at `at`: computes retransmits observed during its
  /// lifetime and the overlap with migration move windows.
  void Finalize(int64_t handle, SimTime at);

  /// Migration executor hooks: bracket every active move so traces can
  /// attribute migration-stall overlap.
  void OnMoveStarted(SimTime at);
  void OnMoveEnded(SimTime at);

  /// Network hook: counts a chunk retransmission (attributed to every
  /// trace whose lifetime spans it).
  void NoteRetransmit();

  const std::vector<TxnTraceRecord>& records() const { return records_; }

  /// Transactions sampled so far (including any later dropped).
  int64_t sampled() const { return sampled_; }

  /// Samples discarded because max_records was reached.
  int64_t dropped() const { return dropped_; }

  /// One block per trace, deterministic formatting — the golden-test
  /// and dump representation.
  std::string ToString() const;

  /// Order-sensitive 64-bit digest of ToString().
  uint64_t Fingerprint() const;

  void Clear();

 private:
  /// Total move-window time overlapping [start, end].
  SimDuration MoveOverlap(SimTime start, SimTime end) const;

  Config config_;
  Rng rng_{42};
  std::vector<TxnTraceRecord> records_;
  /// Snapshot of retransmits_total_ at each record's Sample() time,
  /// parallel to records_; Finalize() subtracts it.
  std::vector<int64_t> retransmit_baseline_;
  /// Closed [start, end] move windows, in start order.
  std::vector<std::pair<SimTime, SimTime>> move_windows_;
  /// Starts of currently open moves (moves can overlap).
  std::vector<SimTime> open_moves_;
  int64_t retransmits_total_ = 0;
  int64_t sampled_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace pstore
