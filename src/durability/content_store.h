#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "durability/durable_store.h"

/// \file content_store.h
/// The content-modeled durable store: each node's checkpoint and
/// command log are sequences of checksummed logical records instead of
/// opaque sizes, so storage damage is *detectable* — a flipped payload
/// bit breaks the record's CRC, a torn write leaves fewer records than
/// the segment header promises — and recovery can degrade gracefully
/// (previous checkpoint + longer replay, or re-replication from a
/// healthy replica) instead of silently replaying garbage.
///
/// The store is pure state on the virtual clock's side: it never
/// touches the simulator and draws no randomness of its own (fault
/// injection passes an Rng in), so a run is exactly replayable.

namespace pstore {
namespace durability {

/// One logged committed write: which bucket/key, the node-local append
/// sequence number, the checkpoint generation in force when it was
/// logged, and a CRC over the record's deterministic encoding.
struct LogRecord {
  BucketId bucket = 0;
  int64_t key = 0;
  int64_t seq = 0;
  int64_t gen = 0;
  uint64_t crc = 0;
};

/// How a restarting node can recover from what its disk still holds.
enum class RecoveryMode {
  kNormal,       ///< Latest checkpoint + log intact: plain replay.
  kFallback,     ///< Latest checkpoint damaged; previous one + longer
                 ///< log replay still reconstruct every commit.
  kRereplicate,  ///< Log (or both checkpoints) unrecoverable: rejoin
                 ///< empty and restore k via chunked re-replication.
};

const char* RecoveryModeName(RecoveryMode mode);

/// Validated replay obligation for one restarting node.
struct RecoveryPlan {
  RecoveryMode mode = RecoveryMode::kNormal;
  double load_kb = 0.0;        ///< Checkpoint image to load.
  int64_t replay_entries = 0;  ///< Log records to re-execute.
  int64_t crc_failures = 0;    ///< Damaged records found validating.
  int64_t torn_segments = 0;   ///< Truncated segments found (0..2).
};

/// What one scrub step verified/found/fixed.
struct ScrubResult {
  int64_t verified = 0;
  int64_t found = 0;     ///< Corrupt or torn damage discovered.
  int64_t repaired = 0;  ///< Damage fixed from a healthy replica.
};

/// \brief Checksummed checkpoint + command-log storage per node.
///
/// Checkpoints are double-buffered: taking one demotes the current
/// image to `previous`, and the log keeps records back to the previous
/// image's generation — exactly the window a fallback recovery needs.
/// The fault surface (CorruptRecords/TearTail) damages payloads
/// *without* updating stored CRCs or segment headers, so detection is
/// genuine validation, not a flag check.
class ContentDurableStore : public DurableStore {
 public:
  explicit ContentDurableStore(int32_t num_nodes);

  // --- DurableStore ----------------------------------------------------

  void AppendLog(NodeId n, BucketId bucket, int64_t key) override;
  void TakeCheckpoint(NodeId n, double hosted_kb,
                      std::vector<CheckpointRecord> records) override;
  void Reset(NodeId n) override;
  int64_t log_entries(NodeId n) const override;
  double checkpoint_kb(NodeId n) const override;
  int64_t checkpoints() const override { return checkpoints_; }

  // --- Recovery planning -----------------------------------------------

  /// Validates node `n`'s durable state (CRC per record, actual vs
  /// promised record counts per segment) and decides how restart
  /// recovery proceeds. Bumps the detection counters for any damage
  /// found; call once per restart.
  RecoveryPlan PlanRecovery(NodeId n);

  // --- Scrubbing -------------------------------------------------------

  /// Verifies up to `budget_records` records, resuming from the
  /// previous step's cursor (round-robin across nodes, skipping nodes
  /// `skip` rejects — crashed/recovering nodes' disks are offline).
  /// CRC mismatches are counted and, when `can_repair`, fixed in place
  /// from a healthy replica's copy; a segment whose tail proves torn
  /// is resealed the same way. Deterministic: no Rng draws.
  ScrubResult ScrubStep(int64_t budget_records, bool can_repair,
                        const std::function<bool(NodeId)>& skip = nullptr);

  // --- Fault surface (driven by FaultInjector) -------------------------

  /// Bit-rot: flips payload bits of each of node `n`'s records with
  /// probability `p` (one Bernoulli draw per record from `rng`),
  /// leaving stored CRCs stale. Already-corrupt records are skipped so
  /// repeated faults never cancel out. Returns records corrupted.
  int64_t CorruptRecords(NodeId n, Rng* rng, double p);

  /// Torn write: truncates the trailing `fraction` of node `n`'s log
  /// (`log_side`) or current checkpoint segment without updating the
  /// segment header, so length validation sees the damage. Returns
  /// records torn off.
  int64_t TearTail(NodeId n, double fraction, bool log_side);

  /// Disk stall (the kDiskStall fault): before `until` every durable
  /// I/O (checkpoint load and log replay at restart, the scrubber's
  /// throughput) runs `factor` (>= 1) times slower. A new window
  /// replaces the open one.
  void OpenStall(double factor, SimTime until) {
    stall_factor_ = factor;
    stall_until_ = until;
  }
  /// Durable I/O latency multiplier in force at `now` (1.0 outside a
  /// stall window).
  double stall_factor(SimTime now) const {
    return now < stall_until_ ? stall_factor_ : 1.0;
  }

  // --- Introspection ---------------------------------------------------

  /// Records node `n` currently persists (both checkpoint images +
  /// log) — the scrubber's universe.
  int64_t durable_records(NodeId n) const;

  /// Records whose stored CRC currently mismatches their payload.
  int64_t damaged_records(NodeId n) const;

  /// Digest over every node's records and counters — equal across two
  /// runs iff the stores evolved identically (determinism tests).
  uint64_t StateHash() const;

  // --- Counters --------------------------------------------------------

  int64_t crc_failures_detected() const { return crc_failures_detected_; }
  int64_t torn_segments_detected() const { return torn_segments_detected_; }
  int64_t checkpoint_fallbacks() const { return checkpoint_fallbacks_; }
  int64_t replays_unrecoverable() const { return replays_unrecoverable_; }
  int64_t scrub_records_verified() const { return scrub_records_verified_; }
  int64_t scrub_corruptions_found() const { return scrub_corruptions_found_; }
  int64_t scrub_repairs() const { return scrub_repairs_; }
  int64_t records_corrupted() const { return records_corrupted_; }
  int64_t records_torn() const { return records_torn_; }

  /// Tripwire: records replayed into live state without passing CRC
  /// validation. Structurally zero — PlanRecovery validates before any
  /// replay is scheduled and damaged state degrades to fallback or
  /// re-replication — and the InvariantChecker audits it stays so.
  int64_t corrupt_records_served() const { return corrupt_records_served_; }

 private:
  /// One checkpoint segment: the records plus the header the writer
  /// stamped (promised record count, image size, generation).
  struct CheckpointImage {
    std::vector<CheckpointRecord> records;
    double kb = 0.0;
    int64_t gen = 0;
    int64_t promised_records = 0;  ///< Header; actual may be fewer (torn).
    bool valid = false;            ///< An image was ever written.
  };

  struct NodeState {
    CheckpointImage current;
    CheckpointImage previous;
    std::vector<LogRecord> log;
    int64_t log_promised = 0;  ///< Header; log.size() fewer when torn.
    int64_t next_seq = 0;
    int64_t gen = 0;  ///< Generation of the latest checkpoint.
    size_t scrub_cursor = 0;
  };

  static uint64_t LogCrc(NodeId n, const LogRecord& r);
  static uint64_t CheckpointCrc(NodeId n, const CheckpointRecord& r);
  bool LogIntact(NodeId n, const NodeState& s, int64_t min_gen,
                 int64_t* crc_failures) const;
  bool ImageIntact(NodeId n, const CheckpointImage& img,
                   int64_t* crc_failures, int64_t* torn) const;
  /// Verifies the record at flat index `i` of node `n` (checkpoint
  /// images first, then the log); repairs on mismatch if allowed.
  void ScrubRecord(NodeId n, size_t i, bool can_repair, ScrubResult* out);

  std::vector<NodeState> nodes_;
  int64_t checkpoints_ = 0;
  NodeId scrub_node_ = 0;  ///< Round-robin cursor across nodes.
  double stall_factor_ = 1.0;
  SimTime stall_until_ = -1;  ///< End of the open stall window; -1 = none.

  int64_t crc_failures_detected_ = 0;
  int64_t torn_segments_detected_ = 0;
  int64_t checkpoint_fallbacks_ = 0;
  int64_t replays_unrecoverable_ = 0;
  int64_t scrub_records_verified_ = 0;
  int64_t scrub_corruptions_found_ = 0;
  int64_t scrub_repairs_ = 0;
  int64_t records_corrupted_ = 0;
  int64_t records_torn_ = 0;
  int64_t corrupt_records_served_ = 0;
};

}  // namespace durability
}  // namespace pstore
