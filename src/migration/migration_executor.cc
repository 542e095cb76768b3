#include "migration/migration_executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.h"
#include "net/channel.h"
#include "net/network_model.h"

namespace pstore {

namespace {
/// A chunk that has not landed after this multiple of its nominal
/// transfer time (burst + pacing period) is considered stalled and
/// retried. Timeouts are armed only while a fault hook is installed, so
/// fault-free runs schedule exactly the pre-fault event sequence.
constexpr double kChunkTimeoutFactor = 4.0;
/// Base backoff of a failed chunk's retry; doubles on every consecutive
/// retry of the chunk.
constexpr double kRetryBackoffMs = 50.0;
/// A chunk DATA send whose ACK has not arrived after this multiple of
/// its nominal round trip (burst + two mean latencies) is retransmitted
/// with the same sequence number.
constexpr double kRetransmitTimeoutFactor = 4.0;
}  // namespace

Status MigrationOptions::Validate() const {
  if (chunk_kb <= 0) return Status::InvalidArgument("chunk_kb <= 0");
  if (rate_kbps <= 0) return Status::InvalidArgument("rate_kbps <= 0");
  if (wire_kbps <= 0) return Status::InvalidArgument("wire_kbps <= 0");
  if (db_size_mb <= 0) return Status::InvalidArgument("db_size_mb <= 0");
  return Status::OK();
}

/// One paced partition-to-partition chunk stream: a move round's
/// partition pair, or the evacuation's current bucket (a one-bucket
/// stream).
struct MigrationExecutor::Stream {
  PartitionId src = -1;
  PartitionId dst = -1;
  std::vector<BucketId> buckets;
  size_t bucket_idx = 0;
  double remaining_kb = 0;   ///< Virtual kB left in the current bucket.
  SimTime earliest_next = 0; ///< Rate-limit gate for the next chunk.
  int32_t attempts = 0;      ///< Retries consumed by the current chunk.
  /// Attempt generation: bumped when a chunk lands, is retried or is
  /// deferred, so a stale timeout or transfer for a superseded attempt
  /// no-ops.
  int64_t gen = 0;
  /// Net-path sequencing and dedup (idle when the substrate is off).
  net::Channel channel;
  /// Tripwire watermark, independent of `channel`: the highest sequence
  /// number whose payload was applied.
  int64_t last_applied_seq = 0;

  std::string Name() const {
    return "stream " + std::to_string(src) + "->" + std::to_string(dst);
  }
};

struct MigrationExecutor::ActiveMove {
  MoveSchedule schedule;
  double rate_kbps = 0;  ///< Sustained rate including the multiplier.
  size_t round_idx = 0;
  int32_t streams_remaining = 0;
  /// Engine nodes that must be active when round r starts (scale-out).
  std::vector<int32_t> nodes_needed_before;
  /// Engine nodes still active after round r completes (scale-in).
  std::vector<int32_t> nodes_active_after;
  /// Streams of each round, prebuilt at StartMove.
  std::vector<std::vector<std::shared_ptr<Stream>>> round_streams;
};

/// One deadline-aware drain evacuation: a sequential, chunk-paced stream
/// off a draining node, re-planned bucket by bucket so destinations track
/// the live topology.
struct MigrationExecutor::Evacuation {
  NodeId node = -1;
  SimTime deadline = 0;            ///< Absolute hard-kill time.
  std::vector<BucketId> queue;     ///< Hottest-first evacuation order.
  size_t idx = 0;                  ///< Next queue entry to ship.
  double rate_kbps = 0;            ///< Sustained rate incl. multiplier.
  Stream stream;                   ///< The bucket in flight.
};

MigrationExecutor::MigrationExecutor(ClusterEngine* engine,
                                     MigrationOptions options)
    : engine_(engine),
      options_(options),
      transfer_(engine),
      kb_per_bucket_(options.db_size_mb * 1024.0 /
                     engine->config().num_buckets) {
  assert(engine != nullptr);
  assert(options_.Validate().ok());
}

MigrationExecutor::~MigrationExecutor() = default;

void MigrationExecutor::set_telemetry(const obs::Telemetry& telemetry) {
  telemetry_ = telemetry;
  if (telemetry_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *telemetry_.metrics;
  m_moves_started_ = m.GetCounter("migration.moves_started");
  m_moves_completed_ = m.GetCounter("migration.moves_completed");
  m.BindCounter("migration.moves_aborted", &moves_aborted_);
  m_chunks_landed_ = m.GetCounter("migration.chunks_landed");
  m.BindCounter("migration.chunk_retries", &chunk_retries_);
  m_buckets_flipped_ = m.GetCounter("migration.buckets_flipped");
  m_kb_moved_ = m.GetGauge("migration.kb_moved");
  m_in_progress_ = m.GetGauge("migration.in_progress");
  m_move_duration_ms_ = m.GetHistogram("migration.move_duration_ms");
  m_round_duration_ms_ = m.GetHistogram("migration.round_duration_ms");
  m_kb_moved_->Set(total_kb_moved_);
  m_in_progress_->Set(in_progress_ ? 1 : 0);
  // Registered only when the engine runs overload control, so default
  // builds' metric dumps stay byte-identical.
  if (engine_->config().overload.enabled) {
    m.BindCounter("migration.chunk_backpressure", &chunks_backpressured_);
  }
  // Evacuations exist only with the topology layer; gating the metric on
  // it keeps non-topology metric dumps byte-identical.
  if (engine_->config().topology.enabled) {
    m.BindCounter("migration.buckets_evacuated", &buckets_evacuated_);
  }
}

Status MigrationExecutor::StartMove(int32_t target_nodes,
                                    std::function<void()> on_complete,
                                    double rate_multiplier) {
  if (in_progress_) {
    return Status::FailedPrecondition("a reconfiguration is in flight");
  }
  if (target_nodes < 1 || target_nodes > engine_->max_nodes()) {
    return Status::InvalidArgument("target_nodes out of [1, max_nodes]");
  }
  const int32_t b = engine_->active_nodes();
  const int32_t a = target_nodes;
  if (b == a) {
    if (on_complete) engine_->simulator()->Schedule(0, std::move(on_complete));
    return Status::OK();
  }
  // Scale-in receivers are the surviving nodes; a crashed survivor could
  // never accept its share, so reject up front. (Scale-out receivers are
  // freshly activated and therefore healthy; a crashed *sender* owns no
  // buckets after failover, so its streams are simply empty.)
  if (a < b) {
    for (NodeId n = 0; n < a; ++n) {
      if (!engine_->IsNodeUp(n)) {
        return Status::FailedPrecondition(
            "scale-in survivor node " + std::to_string(n) + " is down");
      }
    }
  }

  auto schedule = BuildMoveSchedule(b, a);
  if (!schedule.ok()) return schedule.status();

  auto move = std::make_unique<ActiveMove>();
  move->schedule = std::move(schedule).MoveValueUnsafe();
  move->rate_kbps = options_.rate_kbps * rate_multiplier;

  const int32_t p = engine_->partitions_per_node();
  const bool out = move->schedule.scale_out();
  const int32_t delta = move->schedule.delta();

  // Engine-node mapping for delta-side nodes: scale-out allocates b+d
  // ascending; scale-in drains a+d from the top (largest d first, which
  // the reversed schedule guarantees), keeping active nodes a prefix.
  auto delta_engine_node = [&](int32_t d) { return out ? b + d : a + d; };

  // --- Plan bucket flows -----------------------------------------------
  // flows[src_partition][counterpart] = buckets shipped on that stream.
  // Scale-out: counterpart = delta index (0..delta-1).
  // Scale-in:  counterpart = survivor node index (0..a-1).
  const int32_t counterparts = out ? delta : a;
  std::vector<std::vector<std::vector<BucketId>>> flows(
      static_cast<size_t>(engine_->total_partitions()));
  const PartitionMap& map = engine_->partition_map();

  auto split_buckets = [&](PartitionId sp, const std::vector<BucketId>& owned,
                           size_t send_total) {
    auto& out_flows = flows[static_cast<size_t>(sp)];
    out_flows.assign(static_cast<size_t>(counterparts), {});
    // Send the tail of the owned list, sliced round-robin so rounding
    // surplus spreads across counterparts (offset by sp to decorrelate).
    const size_t start = owned.size() - send_total;
    for (size_t i = 0; i < send_total; ++i) {
      const size_t c =
          (i + static_cast<size_t>(sp)) % static_cast<size_t>(counterparts);
      out_flows[c].push_back(owned[start + i]);
    }
  };

  if (out) {
    // Every partition of the original b nodes sends fraction delta/a of
    // its buckets, split across the delta new nodes.
    for (PartitionId sp = 0; sp < b * p; ++sp) {
      const std::vector<BucketId> owned = map.BucketsOfPartition(sp);
      const size_t send_total = static_cast<size_t>(
          std::llround(static_cast<double>(owned.size()) * delta / a));
      split_buckets(sp, owned, send_total);
    }
  } else {
    // Every partition of the departing delta nodes sends *all* its
    // buckets, split across the a surviving nodes.
    for (PartitionId sp = a * p; sp < b * p; ++sp) {
      const std::vector<BucketId> owned = map.BucketsOfPartition(sp);
      split_buckets(sp, owned, owned.size());
    }
  }

  // --- Materialize per-round streams -----------------------------------
  const auto& rounds = move->schedule.rounds;
  move->round_streams.resize(rounds.size());
  move->nodes_needed_before.assign(rounds.size(), b);
  move->nodes_active_after.assign(rounds.size(), b);

  int32_t max_delta_seen = -1;
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (const auto& t : rounds[r].transfers) {
      max_delta_seen = std::max(max_delta_seen, t.delta_index);
      const int32_t delta_node = delta_engine_node(t.delta_index);
      const int32_t small_node = t.small_index;
      const int32_t sender_node = out ? small_node : delta_node;
      const int32_t receiver_node = out ? delta_node : small_node;
      const int32_t counterpart = out ? t.delta_index : t.small_index;
      for (int32_t k = 0; k < p; ++k) {
        auto stream = std::make_shared<Stream>();
        stream->src = sender_node * p + k;
        stream->dst = receiver_node * p + k;
        stream->buckets = flows[static_cast<size_t>(stream->src)]
                               [static_cast<size_t>(counterpart)];
        move->round_streams[r].push_back(std::move(stream));
      }
    }
    if (out) {
      move->nodes_needed_before[r] = b + max_delta_seen + 1;
    }
  }
  if (!out) {
    // After round r, delta nodes whose last transfer has completed are
    // released; the reversed schedule drains the largest delta index
    // first, so the surviving set stays a prefix.
    for (size_t r = 0; r < rounds.size(); ++r) {
      int32_t max_live_delta = -1;
      for (size_t r2 = r + 1; r2 < rounds.size(); ++r2) {
        for (const auto& t : rounds[r2].transfers) {
          max_live_delta = std::max(max_live_delta, t.delta_index);
        }
      }
      move->nodes_active_after[r] = a + max_live_delta + 1;
    }
  }

  move_ = std::move(move);
  in_progress_ = true;
  ++move_epoch_;
  on_complete_ = std::move(on_complete);
  history_.push_back(MoveRecord{engine_->simulator()->Now(), -1, b, a});
  if (m_moves_started_ != nullptr) {
    m_moves_started_->Add(1);
    m_in_progress_->Set(1);
  }
  if (telemetry_.tracer != nullptr) {
    move_span_ = telemetry_.tracer->Begin(
        "migration.move " + std::to_string(b) + "->" + std::to_string(a));
  }
  if (telemetry_.txn_traces != nullptr) {
    // Sampled transactions attribute the overlap of their lifetime with
    // this window as migration interference.
    telemetry_.txn_traces->OnMoveStarted(engine_->simulator()->Now());
  }
  if (telemetry_.events != nullptr) {
    telemetry_.events->Record(
        engine_->simulator()->Now(), "migration",
        "move started " + std::to_string(b) + " -> " + std::to_string(a) +
            " nodes (" + std::to_string(move_->round_streams.size()) +
            " rounds)");
  }
  StartRound();
  return Status::OK();
}

void MigrationExecutor::Abort(const std::string& reason) {
  if (in_progress_) EndMoveEarly(reason, /*truncated=*/false);
}

Status MigrationExecutor::TruncateMove(const std::string& reason) {
  if (!in_progress_) {
    return Status::FailedPrecondition("no move in flight to truncate");
  }
  EndMoveEarly(reason, /*truncated=*/true);
  return Status::OK();
}

void MigrationExecutor::EndMoveEarly(const std::string& reason,
                                     bool truncated) {
  const std::string what =
      std::string(truncated ? "migration truncated: " : "migration aborted: ") +
      reason;
  PSTORE_LOG(Warn) << what;
  Emit(what);
  history_.back().aborted = true;
  history_.back().truncated = truncated;
  ++moves_aborted_;
  if (truncated) ++moves_truncated_;
  on_complete_ = nullptr;  // moves that end early do not report completion
  EndMove(/*completed=*/false);  // its epoch bump is the chunk fence
}

void MigrationExecutor::EndMove(bool completed) {
  const SimTime now = engine_->simulator()->Now();
  history_.back().end = now;
  ++move_epoch_;  // retire every event still scheduled for this move
  move_.reset();
  in_progress_ = false;
  if (m_moves_completed_ != nullptr) {
    if (completed) m_moves_completed_->Add(1);
    m_in_progress_->Set(0);
    m_move_duration_ms_->Record(
        static_cast<double>(history_.back().end - history_.back().start) /
        1000.0);
  }
  if (telemetry_.tracer != nullptr) {
    if (round_span_ != 0) telemetry_.tracer->End(round_span_);
    if (move_span_ != 0) telemetry_.tracer->End(move_span_);
    round_span_ = 0;
    move_span_ = 0;
  }
  if (telemetry_.txn_traces != nullptr) {
    telemetry_.txn_traces->OnMoveEnded(now);
  }
}

void MigrationExecutor::Emit(const std::string& what) {
  if (event_sink_) event_sink_(what);
  // Telemetry mirrors the same notices under a "migration" category; the
  // fault trace above stays byte-identical with telemetry detached.
  if (telemetry_.events != nullptr) {
    telemetry_.events->Record(engine_->simulator()->Now(), "migration", what);
  }
}

void MigrationExecutor::StartRound() {
  ActiveMove& move = *move_;
  if (move.round_idx >= move.round_streams.size()) {
    FinishMove();
    return;
  }
  if (move.schedule.scale_out()) {
    Status st = engine_->ActivateNodes(
        move.nodes_needed_before[move.round_idx]);
    assert(st.ok());
    (void)st;
  }
  round_start_ = engine_->simulator()->Now();
  if (telemetry_.tracer != nullptr) {
    round_span_ = telemetry_.tracer->Begin(
        "migration.round " + std::to_string(move.round_idx));
  }
  auto& streams = move.round_streams[move.round_idx];
  move.streams_remaining = static_cast<int32_t>(streams.size());
  if (streams.empty()) {
    FinishRound();
    return;
  }
  for (auto& stream : streams) StartStream(stream);
}

void MigrationExecutor::StartStream(const std::shared_ptr<Stream>& stream) {
  if (stream->buckets.empty()) {
    // Nothing to ship on this partition pair.
    if (--move_->streams_remaining == 0) FinishRound();
    return;
  }
  stream->bucket_idx = 0;
  stream->remaining_kb = kb_per_bucket_;
  stream->earliest_next = engine_->simulator()->Now();
  NextChunk(stream);
}

void MigrationExecutor::NextChunk(const std::shared_ptr<Stream>& stream) {
  const double chunk_kb = std::min(options_.chunk_kb, stream->remaining_kb);
  const ChunkTiming timing =
      ChunkTiming::Rounded(chunk_kb, options_.wire_kbps, move_->rate_kbps);
  // After the rate-limit gate opens, check the endpoints, consult the
  // fault layer (if any), then ship the chunk.
  auto go = [this, stream, timing, chunk_kb]() {
    Simulator* sim = engine_->simulator();
    const ChunkGate gate = transfer_.Check(stream->src, stream->dst);
    if (gate == ChunkGate::kEndpointDown) {
      // A dead endpoint cannot make progress: abort rather than flip
      // ownership of unlanded buckets or hang forever.
      Abort(stream->Name() + " " + Describe(gate));
      return;
    }
    if (gate != ChunkGate::kOpen) {
      // Migration yields to foreground load rather than deepen a full
      // queue, and waits out a cut link (no DATA or ACK could cross).
      DeferChunk(*stream, move_epoch_, timing.period, gate, Describe(gate),
                 [this, stream]() { NextChunk(stream); });
      return;
    }
    const bool via_net = engine_->net() != nullptr;
    if (fault_hook_) {
      const ChunkFault fault = fault_hook_(stream->src, stream->dst,
                                           sim->Now());
      if (fault.kind == ChunkFault::Kind::kFail) {
        Emit("chunk transfer failed on " + stream->Name());
        RetryChunk(stream, "chunk transfer failed");
        return;
      }
      if (fault.kind == ChunkFault::Kind::kStall) {
        // The stream hangs: the transfer restarts after the stall unless
        // the timeout fires first and supersedes this attempt.
        Emit(stream->Name() + " stalled");
        const ChunkGuard guard(move_epoch_, &stream->gen);
        sim->Schedule(fault.stall, [this, stream, timing, chunk_kb, guard,
                                    via_net]() {
          if (!guard.live()) return;
          if (via_net) {
            SendChunkNet(stream, timing, chunk_kb);
          } else {
            SendChunk(stream, timing, chunk_kb);
          }
        });
        if (!via_net) ArmChunkTimeout(stream, timing);
        return;
      }
    }
    if (via_net) {
      // Seq-numbered DATA/ACK transfer with its own retransmit timer;
      // the legacy chunk timeout is superseded by the ACK timeout.
      SendChunkNet(stream, timing, chunk_kb);
      return;
    }
    const int64_t gen_before = stream->gen;
    SendChunk(stream, timing, chunk_kb);
    // SendChunk may have superseded the attempt via backpressure; a
    // timeout armed for the superseded generation would misfire later.
    if (fault_hook_ && stream->gen == gen_before) {
      ArmChunkTimeout(stream, timing);
    }
  };
  transfer_.AtGate(stream->earliest_next, ChunkGuard(move_epoch_),
                   std::move(go));
}

void MigrationExecutor::SendChunk(const std::shared_ptr<Stream>& stream,
                                  ChunkTiming timing, double chunk_kb) {
  stream->earliest_next = engine_->simulator()->Now() + timing.period;
  const ChunkGuard guard(move_epoch_, &stream->gen);
  auto landed = ChunkTransfer::BothSides([this, stream, chunk_kb, guard]() {
    if (!guard.live()) return;
    if (!transfer_.EndpointsUp(stream->src, stream->dst)) {
      // The receiver (or sender) died while the chunk was in flight:
      // the chunk is lost, ownership must not flip to a dead node.
      Abort(stream->Name() + " endpoint died mid-chunk");
      return;
    }
    LandChunk(*stream, chunk_kb);
    ChunkDone(stream);
  });
  transfer_.Burst(stream->src, stream->dst, timing.busy, guard, landed,
                  landed, [this, stream, timing](const char* why) {
                    DeferChunk(*stream, move_epoch_, timing.period,
                               ChunkGate::kQueueFull, why,
                               [this, stream]() { NextChunk(stream); });
                  });
}

bool MigrationExecutor::LandChunk(Stream& stream, double chunk_kb) {
  total_kb_moved_ += chunk_kb;
  if (m_chunks_landed_ != nullptr) {
    m_chunks_landed_->Add(1);
    m_kb_moved_->Set(total_kb_moved_);
  }
  stream.remaining_kb -= chunk_kb;
  if (stream.remaining_kb > 1e-9 ||
      stream.bucket_idx >= stream.buckets.size()) {
    return false;
  }
  // Bucket complete: flip ownership atomically. A concurrent relocation
  // (skew manager, a reconfiguration round) may have already moved this
  // bucket; in that case the transfer is simply wasted work.
  const BucketId bucket = stream.buckets[stream.bucket_idx];
  Status st =
      engine_->ApplyBucketMove(BucketMove{bucket, stream.src, stream.dst});
  if (!st.ok()) {
    PSTORE_LOG(Info) << "bucket " << bucket
                     << " relocated concurrently: " << st.ToString();
  } else if (m_buckets_flipped_ != nullptr) {
    m_buckets_flipped_->Add(1);
  }
  if (++stream.bucket_idx < stream.buckets.size()) {
    stream.remaining_kb = kb_per_bucket_;
  }
  return st.ok();
}

void MigrationExecutor::SendChunkNet(const std::shared_ptr<Stream>& stream,
                                     ChunkTiming timing, double chunk_kb) {
  stream->earliest_next = engine_->simulator()->Now() + timing.period;
  const int64_t seq = stream->channel.NextSeq();
  TransmitChunk(stream, timing.busy, chunk_kb, seq);
  ArmRetransmit(stream, timing, chunk_kb, seq);
}

void MigrationExecutor::TransmitChunk(const std::shared_ptr<Stream>& stream,
                                      SimDuration busy, double chunk_kb,
                                      int64_t seq) {
  // The serialization burst occupies the sender for every transmission
  // attempt — retransmits re-serialize and are charged again. A refused
  // burst, or one evicted before the DATA arrives, loses the message;
  // the retransmit timer recovers it. Only bounded work can be evicted,
  // so only then is there a flag to set.
  const ChunkGuard guard(move_epoch_);
  std::shared_ptr<bool> evicted;
  if (transfer_.bounded()) evicted = std::make_shared<bool>(false);
  if (!transfer_.OneSided(
          stream->src, busy, guard, [](SimTime, SimTime) {},
          [evicted]() { *evicted = true; })) {
    return;
  }
  engine_->net()->Send(
      engine_->NodeOfPartition(stream->src),
      engine_->NodeOfPartition(stream->dst), net::MessageKind::kChunkData,
      /*reliable=*/false,
      [this, stream, busy, chunk_kb, guard, seq, evicted]() {
        if (guard.live() && !(evicted && *evicted)) {
          OnChunkData(stream, busy, chunk_kb, seq);
        }
      });
}

void MigrationExecutor::ArmRetransmit(const std::shared_ptr<Stream>& stream,
                                      ChunkTiming timing, double chunk_kb,
                                      int64_t seq) {
  // ACK timeout: burst + round trip, scaled by kRetransmitTimeoutFactor.
  // The pacing period is excluded — it gates the *next* chunk, not this
  // one's acknowledgement.
  const SimDuration rtt = static_cast<SimDuration>(2.0 * net::kMeanLatencyUs);
  const SimDuration rto = std::max<SimDuration>(
      1, static_cast<SimDuration>(static_cast<double>(timing.busy + rtt) *
                                  kRetransmitTimeoutFactor));
  const ChunkGuard guard(move_epoch_, &stream->gen);
  engine_->simulator()->Schedule(
      rto, [this, stream, timing, chunk_kb, seq, guard]() {
        if (!guard.live()) return;  // Acked.
        if (!transfer_.EndpointsUp(stream->src, stream->dst)) {
          Abort(stream->Name() + " endpoint died awaiting chunk ack");
          return;
        }
        if (!engine_->net()->Reachable(
                engine_->NodeOfPartition(stream->src),
                engine_->NodeOfPartition(stream->dst))) {
          // Partitioned: re-arm without transmitting or consuming
          // budget; the transfer resumes when the window closes.
          ++net_chunks_deferred_;
          ArmRetransmit(stream, timing, chunk_kb, seq);
          return;
        }
        if (stream->attempts >= kMaxChunkRetries) {
          Abort("chunk ack timeout on " + stream->Name() +
                ": retry budget (" + std::to_string(kMaxChunkRetries) +
                ") exhausted");
          return;
        }
        ++stream->attempts;
        ++chunk_retries_;
        ++net_retransmits_;
        if (telemetry_.txn_traces != nullptr) {
          telemetry_.txn_traces->NoteRetransmit();
        }
        Emit("retransmitting chunk seq " + std::to_string(seq) + " on " +
             stream->Name() + " (attempt " +
             std::to_string(stream->attempts) + ")");
        TransmitChunk(stream, timing.busy, chunk_kb, seq);
        ArmRetransmit(stream, timing, chunk_kb, seq);
      });
}

void MigrationExecutor::OnChunkData(const std::shared_ptr<Stream>& stream,
                                    SimDuration busy, double chunk_kb,
                                    int64_t seq) {
  if (!transfer_.EndpointsUp(stream->src, stream->dst)) {
    return;  // Sender's timer handles it.
  }
  if (!stream->channel.Accept(seq)) {
    // Retransmission or network duplication of an already-accepted
    // chunk: suppress the payload. Re-ack only once the apply path has
    // processed it — acking an accepted-but-unapplied duplicate would
    // let the sender advance past stop-and-wait while the original
    // copy's apply is still queued behind the deserialization burst.
    ++net_duplicate_data_;
    if (seq <= stream->last_applied_seq) SendAckNet(stream, seq);
    return;
  }
  // Deserialization burst on the receiver, then exactly-once apply. A
  // refused or evicted burst loses the payload: the receiver forgets the
  // sequence number, so the sender's retransmission is accepted anew.
  const ChunkGuard guard(move_epoch_);
  if (!transfer_.OneSided(
          stream->dst, busy, guard,
          [this, stream, chunk_kb, guard, seq](SimTime, SimTime) {
            if (guard.live()) ApplyChunk(stream, chunk_kb, seq);
          },
          [stream, seq]() { stream->channel.Forget(seq); })) {
    stream->channel.Forget(seq);
  }
}

void MigrationExecutor::ApplyChunk(const std::shared_ptr<Stream>& stream,
                                   double chunk_kb, int64_t seq) {
  if (seq <= stream->last_applied_seq) {
    ++net_double_applies_;  // Tripwire; Accept() makes this unreachable.
    return;
  }
  stream->last_applied_seq = seq;
  LandChunk(*stream, chunk_kb);
  SendAckNet(stream, seq);
}

void MigrationExecutor::SendAckNet(const std::shared_ptr<Stream>& stream,
                                   int64_t seq) {
  const ChunkGuard guard(move_epoch_);
  engine_->net()->Send(engine_->NodeOfPartition(stream->dst),
                       engine_->NodeOfPartition(stream->src),
                       net::MessageKind::kChunkAck, /*reliable=*/false,
                       [this, stream, guard, seq]() {
                         if (guard.live()) OnChunkAck(stream, seq);
                       });
}

void MigrationExecutor::OnChunkAck(const std::shared_ptr<Stream>& stream,
                                   int64_t seq) {
  if (!stream->channel.AckReceived(seq)) {
    ++net_duplicate_acks_;  // Re-ack for a retransmitted DATA; ignore.
    return;
  }
  ChunkDone(stream);
}

void MigrationExecutor::ChunkDone(const std::shared_ptr<Stream>& stream) {
  ++stream->gen;  // Supersedes the chunk's timeout or retransmit timer.
  stream->attempts = 0;
  if (stream->bucket_idx < stream->buckets.size()) {
    NextChunk(stream);
  } else if (--move_->streams_remaining == 0) {
    FinishRound();  // The stream's last bucket flipped.
  }
}

template <typename Resume>
void MigrationExecutor::DeferChunk(Stream& stream, const int64_t& epoch,
                                   SimDuration period, ChunkGate gate,
                                   const char* why, Resume resume) {
  ++stream.gen;  // supersede this attempt and any armed timeout
  const bool cut = gate == ChunkGate::kUnreachable;
  if (cut) {
    ++net_chunks_deferred_;
  } else {
    ++chunks_backpressured_;
  }
  Emit(std::string(cut ? "chunk deferred on " : "chunk backpressured on ") +
       stream.Name() + ": " + why);
  stream.earliest_next = engine_->simulator()->Now() + period;
  transfer_.AtGate(stream.earliest_next, ChunkGuard(epoch),
                   std::move(resume));
}

void MigrationExecutor::ArmChunkTimeout(const std::shared_ptr<Stream>& stream,
                                        ChunkTiming timing) {
  const SimDuration nominal =
      std::max<SimDuration>(1, timing.busy + timing.period);
  const SimDuration timeout = static_cast<SimDuration>(
      static_cast<double>(nominal) * kChunkTimeoutFactor);
  const ChunkGuard guard(move_epoch_, &stream->gen);
  engine_->simulator()->Schedule(timeout, [this, stream, guard]() {
    if (!guard.live()) return;  // landed
    Emit("chunk timeout on " + stream->Name());
    RetryChunk(stream, "chunk timed out");
  });
}

void MigrationExecutor::RetryChunk(const std::shared_ptr<Stream>& stream,
                                   const char* why) {
  ++stream->gen;  // supersede the failed/stalled attempt and its timeout
  if (stream->attempts >= kMaxChunkRetries) {
    Abort(std::string(why) + " on " + stream->Name() + ": retry budget (" +
          std::to_string(kMaxChunkRetries) + ") exhausted");
    return;
  }
  // Exponential backoff; the retry is idempotent (no bytes were counted
  // and no ownership flipped for the failed attempt).
  const SimDuration backoff = SecondsToDuration(
      kRetryBackoffMs / 1000.0 *
      std::pow(2.0, static_cast<double>(stream->attempts)));
  ++stream->attempts;
  ++chunk_retries_;
  Emit("retrying chunk on " + stream->Name() + " (attempt " +
       std::to_string(stream->attempts) + ")");
  const ChunkGuard guard(move_epoch_);
  engine_->simulator()->Schedule(backoff, [this, stream, guard]() {
    if (!guard.live()) return;
    if (!transfer_.EndpointsUp(stream->src, stream->dst)) {
      Abort("retry target node is down");
      return;
    }
    NextChunk(stream);
  });
}

Status MigrationExecutor::StartEvacuation(NodeId node, SimTime deadline) {
  if (evac_ != nullptr) {
    return Status::FailedPrecondition("an evacuation is in flight");
  }
  if (!engine_->IsNodeUp(node)) {
    return Status::FailedPrecondition("evacuation source node " +
                                      std::to_string(node) + " is not up");
  }
  const SimTime now = engine_->simulator()->Now();
  if (deadline <= now) {
    return Status::InvalidArgument("evacuation deadline is in the past");
  }

  // Hottest buckets first: whatever the notice window cannot fit falls
  // back to replica promotion at the hard kill (losing any unreplicated
  // tail), so the stream spends its budget on the data taking the most
  // traffic. Ties break toward the lower bucket id for determinism.
  const PartitionMap& map = engine_->partition_map();
  const std::vector<int64_t>& heat = engine_->bucket_access_counts();
  const int32_t p = engine_->partitions_per_node();
  std::vector<BucketId> queue;
  for (PartitionId sp = node * p; sp < (node + 1) * p; ++sp) {
    const std::vector<BucketId> owned = map.BucketsOfPartition(sp);
    queue.insert(queue.end(), owned.begin(), owned.end());
  }
  std::sort(queue.begin(), queue.end(), [&](BucketId a, BucketId b) {
    const int64_t ha = heat[static_cast<size_t>(a)];
    const int64_t hb = heat[static_cast<size_t>(b)];
    return ha != hb ? ha > hb : a < b;
  });

  auto evac = std::make_unique<Evacuation>();
  evac->node = node;
  evac->deadline = deadline;
  evac->queue = std::move(queue);
  evac->rate_kbps = options_.rate_kbps;
  evac->stream.earliest_next = now;
  evac_ = std::move(evac);
  ++evac_epoch_;
  Emit("evacuation of node " + std::to_string(node) + " started: " +
       std::to_string(evac_->queue.size()) + " bucket(s), deadline " +
       std::to_string(deadline) + " us");
  NextEvacBucket();
  return Status::OK();
}

void MigrationExecutor::NextEvacBucket() {
  Evacuation& evac = *evac_;
  Simulator* sim = engine_->simulator();
  if (evac.idx >= evac.queue.size()) {
    FinishEvacuation(std::to_string(buckets_evacuated_) +
                     " bucket(s) evacuated in total");
    return;
  }
  if (!engine_->IsNodeUp(evac.node)) {
    FinishEvacuation("source node is down");
    return;
  }
  // Deadline gate: pacing makes a bucket take kb / rate seconds plus the
  // last chunk's wire burst. Once the projected landing overruns the
  // hard kill the stream stops — shipping half a bucket helps nobody,
  // and replica promotion covers whatever stays behind.
  const SimDuration bucket_time =
      SecondsToDuration(kb_per_bucket_ / evac.rate_kbps) +
      SecondsToDuration(std::min(options_.chunk_kb, kb_per_bucket_) /
                        options_.wire_kbps);
  if (sim->Now() + bucket_time > evac.deadline) {
    const int64_t left = static_cast<int64_t>(evac.queue.size() - evac.idx);
    evacuations_deadline_skipped_ += left;
    FinishEvacuation(std::to_string(left) +
                     " bucket(s) left to replica promotion: deadline too "
                     "close");
    return;
  }
  // The bucket may have been relocated off the draining node meanwhile
  // (skew manager, a reconfiguration round): skip without shipping.
  const BucketId bucket = evac.queue[evac.idx];
  const PartitionMap& map = engine_->partition_map();
  Stream& s = evac.stream;
  s.src = map.PartitionOfBucket(bucket);
  if (engine_->NodeOfPartition(s.src) != evac.node) {
    ++evac.idx;
    NextEvacBucket();
    return;
  }
  // Destination: the live, non-draining node (never the source) with the
  // fewest buckets, ties toward the lower node id; within it the
  // least-loaded partition, ties toward the lower index.
  const int32_t p = engine_->partitions_per_node();
  NodeId best_node = -1;
  size_t best_count = 0;
  for (NodeId n = 0; n < engine_->active_nodes(); ++n) {
    if (n == evac.node || !engine_->IsNodeUp(n) ||
        engine_->IsNodeDraining(n)) {
      continue;
    }
    size_t count = 0;
    for (int32_t k = 0; k < p; ++k) {
      count += map.BucketsOfPartition(n * p + k).size();
    }
    if (best_node < 0 || count < best_count) {
      best_node = n;
      best_count = count;
    }
  }
  if (best_node < 0) {
    FinishEvacuation("no live non-draining destination node");
    return;
  }
  s.dst = best_node * p;
  size_t dst_count = map.BucketsOfPartition(s.dst).size();
  for (int32_t k = 1; k < p; ++k) {
    const PartitionId cand = best_node * p + k;
    const size_t count = map.BucketsOfPartition(cand).size();
    if (count < dst_count) {
      s.dst = cand;
      dst_count = count;
    }
  }
  s.buckets.assign(1, bucket);
  s.bucket_idx = 0;
  s.remaining_kb = kb_per_bucket_;
  EvacChunk();
}

void MigrationExecutor::EvacChunk() {
  const double chunk_kb =
      std::min(options_.chunk_kb, evac_->stream.remaining_kb);
  const ChunkTiming timing =
      ChunkTiming::Rounded(chunk_kb, options_.wire_kbps, evac_->rate_kbps);
  auto go = [this, timing, chunk_kb]() {
    Stream& s = evac_->stream;
    auto resume = [this]() { EvacChunk(); };
    const ChunkGate gate = transfer_.Check(s.src, s.dst);
    if (gate == ChunkGate::kEndpointDown) {
      // The hard kill (or an unrelated crash) beats the chunk: the stream
      // cannot make progress, and ownership must not flip to a dead node.
      FinishEvacuation("endpoint node went down");
      return;
    }
    if (gate != ChunkGate::kOpen) {
      // Like a move: yield to a full queue, wait out a cut link.
      DeferChunk(s, evac_epoch_, timing.period, gate, Describe(gate), resume);
      return;
    }
    s.earliest_next = engine_->simulator()->Now() + timing.period;
    const ChunkGuard guard(evac_epoch_, &s.gen);
    auto landed = ChunkTransfer::BothSides([this, chunk_kb, guard]() {
      if (!guard.live()) return;
      Evacuation& evac = *evac_;
      if (!transfer_.EndpointsUp(evac.stream.src, evac.stream.dst)) {
        FinishEvacuation("endpoint died mid-chunk");
        return;
      }
      if (LandChunk(evac.stream, chunk_kb)) ++buckets_evacuated_;
      if (evac.stream.bucket_idx == 0) {
        EvacChunk();  // The bucket has chunks left.
        return;
      }
      ++evac.idx;
      NextEvacBucket();
    });
    transfer_.Burst(s.src, s.dst, timing.busy, guard, landed, landed,
                    [this, timing, resume](const char* why) {
                      DeferChunk(evac_->stream, evac_epoch_, timing.period,
                                 ChunkGate::kQueueFull, why, resume);
                    });
  };
  transfer_.AtGate(evac_->stream.earliest_next, ChunkGuard(evac_epoch_),
                   std::move(go));
}

void MigrationExecutor::FinishEvacuation(const std::string& why) {
  Emit("evacuation of node " + std::to_string(evac_->node) +
       " ended: " + why);
  ++evac_epoch_;  // cancels every event still scheduled for this stream
  evac_.reset();
}

void MigrationExecutor::FinishRound() {
  ActiveMove& move = *move_;
  if (!move.schedule.scale_out()) {
    // If a concurrent relocation parked a stray bucket on a drained
    // node, evacuate it before releasing the node.
    const int32_t keep = move.nodes_active_after[move.round_idx];
    const int32_t p = engine_->partitions_per_node();
    const PartitionMap& map = engine_->partition_map();
    // Evacuate onto the lowest *live* surviving node (node 0 may have
    // crashed since the move was planned).
    NodeId refuge = -1;
    for (NodeId n = 0; n < keep; ++n) {
      if (engine_->IsNodeUp(n)) {
        refuge = n;
        break;
      }
    }
    for (PartitionId src = keep * p;
         src < engine_->active_nodes() * p; ++src) {
      for (BucketId bucket : map.BucketsOfPartition(src)) {
        if (refuge < 0) {
          Abort("no live surviving node for stray-bucket evacuation");
          return;
        }
        const PartitionId dst = refuge * p + src % p;  // same index
        Status st =
            engine_->ApplyBucketMove(BucketMove{bucket, src, dst});
        if (!st.ok()) {
          PSTORE_LOG(Warn) << "stray-bucket evacuation failed: "
                           << st.ToString();
        }
      }
    }
    Status st = engine_->DeactivateNodes(keep);
    if (!st.ok()) {
      PSTORE_LOG(Warn) << "node release failed: " << st.ToString();
    }
  }
  if (m_round_duration_ms_ != nullptr) {
    m_round_duration_ms_->Record(
        static_cast<double>(engine_->simulator()->Now() - round_start_) /
        1000.0);
  }
  if (telemetry_.tracer != nullptr && round_span_ != 0) {
    telemetry_.tracer->End(round_span_);
    round_span_ = 0;
  }
  ++move.round_idx;
  StartRound();
}

void MigrationExecutor::FinishMove() {
  EndMove(/*completed=*/true);
  if (telemetry_.events != nullptr) {
    telemetry_.events->Record(
        engine_->simulator()->Now(), "migration",
        "move completed at " + std::to_string(engine_->active_nodes()) +
            " nodes");
  }
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb();
  }
}

}  // namespace pstore
