#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/chunk_transfer.h"
#include "cluster/engine.h"
#include "common/status.h"
#include "migration/parallel_schedule.h"
#include "obs/telemetry.h"
#include "storage/partition_map.h"

/// \file migration_executor.h
/// The Squall stand-in: executes a reconfiguration as parallel, chunked,
/// throttled bucket transfers following the three-phase MoveSchedule,
/// and a draining node's deadline-aware evacuation, on the discrete-event
/// simulator. Both ride the one paced-chunk transfer of
/// cluster/chunk_transfer.h (which also carries re-replication): a chunk
/// occupies *both* partition executors for chunk_kb / wire_kbps (the
/// burst Figure 8 shows hurting tail latency for big chunks), a stream's
/// next chunk goes one period, chunk_kb / (rate_kbps * multiplier), after
/// the last (R, or R x 8 for Figure 11's reactive fallback), and a
/// full queue or cut link defers a chunk one period. What stays here is
/// policy: which bucket each partition-pair stream ships next, the fault
/// hook's retries and the net DATA/ACK protocol for moves, the
/// evacuation's hottest-first queue and deadline, and the atomic
/// ownership flip when a bucket's last chunk lands (queued transactions
/// then forward).
///
/// Timing uses a configured *virtual* database size (1106 MB in
/// Section 8.1) so migration duration matches the paper's D even though
/// the test databases hold fewer physical rows; the physical rows all
/// really move.

namespace pstore {

/// Retries per chunk before the move aborts (fault runs only).
constexpr int32_t kMaxChunkRetries = 5;

/// Migration tuning knobs (Section 8.1's discovered values by default).
struct MigrationOptions {
  double chunk_kb = 1000.0;    ///< Upper bound on chunk size.
  double rate_kbps = 244.0;    ///< R: sustained per-stream rate.
  double wire_kbps = 10240.0;  ///< Burst rate while a chunk is in flight.
  double db_size_mb = 1106.0;  ///< Virtual database size for timing.

  Status Validate() const;
};

/// A completed or in-flight reconfiguration, for charts ("Reconfiguring"
/// spans in Figure 9).
struct MoveRecord {
  SimTime start = 0;
  SimTime end = -1;  ///< -1 while in flight.
  int32_t from_nodes = 0;
  int32_t to_nodes = 0;
  bool aborted = false;    ///< True if the move ended without completing.
  /// True when the move was deliberately cut short at a chunk boundary
  /// for a mid-flight plan repair (TruncateMove). Always implies
  /// `aborted` — the schedule did not complete — but distinguishes the
  /// guard's intentional repair from a fault-driven Abort().
  bool truncated = false;

  bool operator==(const MoveRecord& o) const {
    return start == o.start && end == o.end && from_nodes == o.from_nodes &&
           to_nodes == o.to_nodes && aborted == o.aborted &&
           truncated == o.truncated;
  }
};

/// Decision the fault layer returns for one chunk-transfer attempt.
struct ChunkFault {
  enum class Kind {
    kNone,   ///< Transfer proceeds normally.
    kFail,   ///< Transfer fails immediately; retried with backoff.
    kStall,  ///< Stream hangs for `stall`; the timeout may fire first.
  };
  Kind kind = Kind::kNone;
  SimDuration stall = 0;
};

/// Consulted once per chunk attempt when installed (src/dst partitions,
/// current virtual time). Must be deterministic for a fixed seed.
using ChunkFaultHook =
    std::function<ChunkFault(PartitionId src, PartitionId dst, SimTime now)>;

/// \brief Executes reconfigurations against a ClusterEngine.
class MigrationExecutor {
 public:
  /// \param engine the engine to reconfigure (not owned)
  /// \param options rate and sizing knobs
  MigrationExecutor(ClusterEngine* engine, MigrationOptions options);
  ~MigrationExecutor();  // out-of-line: ActiveMove is incomplete here

  /// Begins a move to `target_nodes`. Fails with FailedPrecondition if a
  /// move is in flight, InvalidArgument if the target is out of range.
  /// `on_complete` fires when the last bucket lands and (for scale-in)
  /// the drained nodes are released. Streams pace at R x
  /// `rate_multiplier` (8 = the R x 8 fallback).
  Status StartMove(int32_t target_nodes, std::function<void()> on_complete,
                   double rate_multiplier = 1.0);

  bool InProgress() const { return in_progress_; }

  /// Begins a deadline-aware evacuation of `node`'s buckets (a draining
  /// spot node's revocation-notice window). Buckets ship one at a time,
  /// hottest first (engine bucket access counts, ties toward the lower
  /// bucket id), each to the live, non-draining node with the fewest
  /// buckets. Once the projected transfer of the next bucket would
  /// overrun `deadline`, the remainder is left behind (counted in
  /// evacuations_deadline_skipped()) to fall back on replica promotion
  /// at the hard kill. Runs alongside a full reconfiguration — the two
  /// tolerate each other's concurrent relocations — but at most one
  /// evacuation is in flight at a time.
  Status StartEvacuation(NodeId node, SimTime deadline);

  /// True while a drain evacuation stream is running.
  bool EvacuationInProgress() const { return evac_ != nullptr; }

  /// Aborts the in-flight move, if any: all pending chunk transfers are
  /// cancelled, ownership of unlanded buckets never flips, and the
  /// completion callback is dropped (aborted moves do not report
  /// completion; callers observe InProgress() turning false and the
  /// MoveRecord's `aborted` flag). Buckets that already landed stay
  /// where they are — ownership remains a partition of the universe.
  void Abort(const std::string& reason);

  /// Mid-flight plan repair (DESIGN.md §16): cuts the in-flight move
  /// short at a chunk boundary so the controller can re-plan from the
  /// current placement. Reuses the move-epoch fence — every event still
  /// scheduled for this move no-ops, ownership of unlanded buckets
  /// never flips, landed buckets keep their new owners, so ownership
  /// remains a partition of the universe (the InvariantChecker audits
  /// that no bucket is stranded or double-owned afterwards). The
  /// history record carries both `aborted` and `truncated`; the
  /// completion callback is dropped. FailedPrecondition when no move
  /// is in flight.
  Status TruncateMove(const std::string& reason);

  /// Installs (or clears, with nullptr) the fault layer's per-chunk
  /// decision hook. Timeout/retry machinery is armed only while a hook
  /// is installed; without one the executor schedules exactly the same
  /// event sequence as a fault-free build.
  void set_chunk_fault_hook(ChunkFaultHook hook) {
    fault_hook_ = std::move(hook);
  }

  /// Optional sink for fault/retry/abort notices (e.g. one that records
  /// into an obs::EventStream).
  void set_event_sink(std::function<void(const std::string&)> sink) {
    event_sink_ = std::move(sink);
  }

  /// Attaches observability sinks ("migration.*" metrics, per-move and
  /// per-round spans, move lifecycle events). Counts the executor keeps
  /// anyway are bound into the registry, the other handles cached here;
  /// call once, before starting moves.
  void set_telemetry(const obs::Telemetry& telemetry);

  const std::vector<MoveRecord>& history() const { return history_; }

  /// Total virtual kB shipped so far (all moves). Failed or stalled
  /// chunk attempts are not counted — only landed chunks.
  double total_kb_moved() const { return total_kb_moved_; }

  /// Chunk attempts that were retried (failure or stall timeout).
  int64_t chunk_retries() const { return chunk_retries_; }

  /// Chunk attempts deferred by overload backpressure: the source or
  /// destination partition queue was at its limit (or the queued chunk
  /// work was evicted in favour of foreground transactions), so the
  /// chunk was rescheduled one pacing period later. Always 0 when the
  /// engine's overload control is disabled.
  int64_t chunks_backpressured() const { return chunks_backpressured_; }

  /// Moves that ended in Abort() (TruncateMove included — a truncation
  /// is a deliberate abort; moves_truncated() counts that subset).
  int64_t moves_aborted() const { return moves_aborted_; }

  /// Moves cut short by TruncateMove for a mid-flight plan repair.
  int64_t moves_truncated() const { return moves_truncated_; }

  /// Buckets whose ownership flipped off a draining node before its
  /// revocation deadline (across all evacuations).
  int64_t buckets_evacuated() const { return buckets_evacuated_; }

  /// Buckets a drain evacuation left behind because the projected
  /// transfer would have overrun the deadline. Replica promotion covers
  /// them when the hard kill lands.
  int64_t evacuations_deadline_skipped() const {
    return evacuations_deadline_skipped_;
  }

  // --- Net chunk protocol counters (all 0 with net disabled) -----------
  //
  // With the engine's simulated network substrate on, chunks ship as
  // sequence-numbered DATA messages over unreliable links and land only
  // when the receiver's ACK returns. The receiver applies each sequence
  // number at most once (a high-water mark; stop-and-wait delivers in
  // order) and re-acks duplicates, so a lost ACK never re-applies a
  // chunk and a duplicated DATA never double-counts bytes.

  /// DATA retransmissions after an ACK timeout.
  int64_t net_retransmits() const { return net_retransmits_; }
  /// Duplicate DATA arrivals suppressed (and re-acked) by the receiver.
  int64_t net_duplicate_data() const { return net_duplicate_data_; }
  /// Duplicate ACK arrivals ignored by the sender.
  int64_t net_duplicate_acks() const { return net_duplicate_acks_; }
  /// Chunk attempts deferred because the stream's link was partitioned
  /// (the transfer pauses and resumes after heal, consuming no retry
  /// budget).
  int64_t net_chunks_deferred() const { return net_chunks_deferred_; }
  /// Tripwire: chunk applications that would have re-applied an already
  /// applied sequence number. The dedup watermark makes this impossible;
  /// the invariant checker audits it stays 0.
  int64_t net_double_applies() const { return net_double_applies_; }

  const MigrationOptions& options() const { return options_; }
  /// Virtual kB per bucket: db_size_mb over the engine's buckets.
  double kb_per_bucket() const { return kb_per_bucket_; }

 private:
  struct Stream;          // one paced partition-to-partition chunk stream
  struct ActiveMove;      // state of the in-flight reconfiguration
  struct Evacuation;      // state of the in-flight drain evacuation

  void StartRound();
  void StartStream(const std::shared_ptr<Stream>& stream);
  /// Gates the stream's next chunk, consults the fault hook, ships it.
  void NextChunk(const std::shared_ptr<Stream>& stream);
  /// Local path: the two-sided burst; lands when both sides finish.
  void SendChunk(const std::shared_ptr<Stream>& stream, ChunkTiming timing,
                 double chunk_kb);
  void ArmChunkTimeout(const std::shared_ptr<Stream>& stream,
                       ChunkTiming timing);
  void RetryChunk(const std::shared_ptr<Stream>& stream, const char* why);
  // Net chunk protocol (used only when the engine's substrate is on).
  /// Allocates the next sequence number, transmits the DATA message and
  /// arms the retransmit timer.
  void SendChunkNet(const std::shared_ptr<Stream>& stream, ChunkTiming timing,
                    double chunk_kb);
  /// One DATA transmission attempt (initial send or retransmit).
  void TransmitChunk(const std::shared_ptr<Stream>& stream, SimDuration busy,
                     double chunk_kb, int64_t seq);
  /// ACK-timeout timer; retransmits the same sequence number, waiting
  /// out partitions without consuming retry budget.
  void ArmRetransmit(const std::shared_ptr<Stream>& stream, ChunkTiming timing,
                     double chunk_kb, int64_t seq);
  /// Receiver: DATA arrived; dedup, deserialize, apply, ack.
  void OnChunkData(const std::shared_ptr<Stream>& stream, SimDuration busy,
                   double chunk_kb, int64_t seq);
  /// Receiver: exactly-once chunk application (bytes, bucket flips).
  void ApplyChunk(const std::shared_ptr<Stream>& stream, double chunk_kb,
                  int64_t seq);
  /// Receiver -> sender acknowledgement.
  void SendAckNet(const std::shared_ptr<Stream>& stream, int64_t seq);
  /// Sender: ACK arrived; dedup, cancel retransmit, advance the stream.
  void OnChunkAck(const std::shared_ptr<Stream>& stream, int64_t seq);
  /// Counts a landed chunk; flips the bucket it completes (local and net
  /// paths, evacuation). True if a flip applied.
  bool LandChunk(Stream& stream, double chunk_kb);
  /// The chunk landed (local) or was acked (net): next chunk or stream end.
  void ChunkDone(const std::shared_ptr<Stream>& stream);
  /// Supersedes the attempt and runs `resume` one period later while
  /// `epoch` holds: yields to a full queue, waits out a cut link.
  template <typename Resume>
  void DeferChunk(Stream& stream, const int64_t& epoch, SimDuration period,
                  ChunkGate gate, const char* why, Resume resume);
  /// Abort / TruncateMove; EndMove is the teardown all move ends share.
  void EndMoveEarly(const std::string& reason, bool truncated);
  void EndMove(bool completed);
  void FinishRound();
  void FinishMove();
  // Drain evacuation stream (sequential, deadline-gated).
  /// Deadline-gates the next queued bucket, picks its destination and
  /// starts its chunk pacing; finishes the evacuation when the queue is
  /// exhausted, the deadline is too close, or an endpoint died.
  void NextEvacBucket();
  /// Gates and ships one evacuation chunk and advances the stream when
  /// it lands.
  void EvacChunk();
  void FinishEvacuation(const std::string& why);
  void Emit(const std::string& what);

  ClusterEngine* engine_;
  MigrationOptions options_;
  ChunkTransfer transfer_;
  double kb_per_bucket_;
  obs::Telemetry telemetry_;
  // Handles of the metrics the executor keeps no count of itself (null
  // until set_telemetry).
  obs::Counter* m_moves_started_ = nullptr;
  obs::Counter* m_moves_completed_ = nullptr;
  obs::Counter* m_chunks_landed_ = nullptr;
  obs::Counter* m_buckets_flipped_ = nullptr;
  obs::Gauge* m_kb_moved_ = nullptr;
  obs::Gauge* m_in_progress_ = nullptr;
  obs::HistogramMetric* m_move_duration_ms_ = nullptr;
  obs::HistogramMetric* m_round_duration_ms_ = nullptr;
  obs::SpanTracer::SpanId move_span_ = 0;
  obs::SpanTracer::SpanId round_span_ = 0;
  SimTime round_start_ = 0;
  bool in_progress_ = false;
  std::unique_ptr<ActiveMove> move_;
  std::vector<MoveRecord> history_;
  double total_kb_moved_ = 0;
  int64_t chunk_retries_ = 0;
  int64_t chunks_backpressured_ = 0;
  int64_t moves_aborted_ = 0;
  int64_t moves_truncated_ = 0;
  int64_t net_retransmits_ = 0;
  int64_t net_duplicate_data_ = 0;
  int64_t net_duplicate_acks_ = 0;
  int64_t net_chunks_deferred_ = 0;
  int64_t net_double_applies_ = 0;
  /// Bumped on every move start/finish/abort; scheduled events capture
  /// it and become no-ops if the move they belong to is gone.
  int64_t move_epoch_ = 0;
  std::unique_ptr<Evacuation> evac_;
  int64_t buckets_evacuated_ = 0;
  int64_t evacuations_deadline_skipped_ = 0;
  /// Bumped on every evacuation start/finish; scheduled evacuation
  /// events capture it and become no-ops once their stream is gone.
  int64_t evac_epoch_ = 0;
  std::function<void()> on_complete_;
  ChunkFaultHook fault_hook_;
  std::function<void(const std::string&)> event_sink_;
};

}  // namespace pstore
