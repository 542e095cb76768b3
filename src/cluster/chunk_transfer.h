#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "cluster/partition_executor.h"
#include "storage/partition_map.h"

/// \file chunk_transfer.h
/// The one paced-chunk transfer behind every data movement: a move's
/// partition-pair streams and a drain's evacuation (src/migration), and
/// re-replication rebuilds (ClusterEngine). As in Squall, a chunk of kB
/// costs both endpoints' executors a burst of kB / wire rate, and its
/// stream's next chunk goes no sooner than kB / sustained rate after it.
/// This file owns the timing, the one "may this chunk go now" check, the
/// pacing gate, the two-sided burst and a net-borne chunk's one-sided
/// bursts (overload's bounded queues included), and the guard that voids
/// a superseded transfer's events. Callers keep their policy: which
/// bucket ships next, what a landing does, and what each refusal means
/// (a move aborts on a dead endpoint, a drain ends, a rebuild keeps
/// deferring).

namespace pstore {

class ClusterEngine;

/// Executor cost and pacing of one chunk.
struct ChunkTiming {
  SimDuration busy = 0;    ///< Burst on each endpoint: kB / wire rate.
  SimDuration period = 0;  ///< Stream spacing: kB / sustained rate.

  /// Both rounded to the nearest microsecond (moves and drains).
  static ChunkTiming Rounded(double kb, double wire_kbps, double rate_kbps);
  /// Both truncated to whole microseconds, at least 1 (rebuilds, whose
  /// recovery timings have always truncated).
  static ChunkTiming Truncated(double kb, double wire_kbps, double rate_kbps);
};

/// Verdict of ChunkTransfer::Check; the first failing gate, in this order.
enum class ChunkGate { kOpen, kEndpointDown, kQueueFull, kUnreachable };

/// Why `gate` refused ("endpoint node is down", "partition queue at
/// limit", "link partitioned"; "open" for kOpen).
const char* Describe(ChunkGate gate);

/// Voids a scheduled chunk event once its transfer is superseded: it
/// snapshots the owner's epoch (bumped when a move or drain ends or a
/// rebuild is cancelled) and, for one attempt's events, the stream's
/// attempt generation. The epoch is compared first, so the generation
/// only has to outlive its epoch.
class ChunkGuard {
 public:
  explicit ChunkGuard(const int64_t& epoch, const int64_t* gen = nullptr)
      : epoch_(&epoch), epoch_at_(epoch), gen_(gen),
        gen_at_(gen != nullptr ? *gen : 0) {}
  bool live() const {
    return *epoch_ == epoch_at_ && (gen_ == nullptr || *gen_ == gen_at_);
  }

 private:
  const int64_t* epoch_;
  int64_t epoch_at_;
  const int64_t* gen_;
  int64_t gen_at_;
};

/// A pipelined stream copying `bucket` from wherever its primary lives
/// to `dst` (re-replication). Chunk i+1 goes one period after chunk i
/// went, the first one period after the start; each crosses the
/// reliable transport when net is on and lands when the destination's
/// burst finishes. A refused gate defers that chunk one period; a
/// refused or evicted burst does too, voiding the chunks after it, which
/// re-ship behind it.
struct PipelinedStream {
  const int64_t* epoch = nullptr;  ///< Owner's cancel counter.
  BucketId bucket = 0;
  PartitionId dst = -1;
  int32_t chunks = 1;
  ChunkTiming timing;
  std::function<void()> on_sent;    ///< A chunk passed its gate.
  std::function<void()> on_landed;  ///< The last chunk landed.
  int64_t gen = 0;  ///< Attempt generation, bumped by a refused burst.
};

/// \brief The shared chunk-transfer mechanics over one ClusterEngine.
class ChunkTransfer {
 public:
  explicit ChunkTransfer(ClusterEngine* engine) : engine_(engine) {}

  bool EndpointsUp(PartitionId src, PartitionId dst) const;

  /// May a chunk go now: both endpoints up, neither executor at its
  /// queue limit (overload on), the link reachable (net on).
  ChunkGate Check(PartitionId src, PartitionId dst) const;

  /// Pacing gate: runs `go` at `at` (now if past) while `guard` is live.
  template <typename Fn>
  void AtGate(SimTime at, ChunkGuard guard, Fn go) const {
    sim()->ScheduleAt(at, [guard, go = std::move(go)]() {
      if (guard.live()) go();
    });
  }

  /// Occupies both endpoints' executors for `busy`; `on_src` / `on_dst`
  /// fire as each side finishes. Each side is a OneSided item: while
  /// `guard` is live, a refused arrival calls `refused(why)` at once and
  /// an evicted one when shed. A destination refusal leaves the source's
  /// item queued as wasted work.
  template <typename SrcDone, typename DstDone, typename Refused>
  void Burst(PartitionId src, PartitionId dst, SimDuration busy,
             ChunkGuard guard, SrcDone on_src, DstDone on_dst,
             Refused refused) const {
    auto evicted = [refused]() { refused("chunk work evicted"); };
    const char* why = nullptr;
    if (!OneSided(src, busy, guard, std::move(on_src), evicted)) {
      why = "source queue full";
    } else if (!OneSided(dst, busy, guard, std::move(on_dst), evicted)) {
      why = "destination queue full";
    }
    if (why != nullptr && guard.live()) refused(why);
  }

  /// Occupies `p`'s executor for `busy`, then runs `done`: one side of a
  /// burst, e.g. a net-borne chunk's serialization on the sender or
  /// deserialization on the receiver. With overload on the work rides at
  /// background priority in the bounded queue, so foreground load evicts
  /// it first: returns false when the queue refuses it, and calls
  /// `evicted()` if it is shed later while `guard` is live. With overload
  /// off it is always accepted.
  template <typename Done, typename Evicted>
  bool OneSided(PartitionId p, SimDuration busy, ChunkGuard guard, Done done,
                Evicted evicted) const {
    if (!bounded()) {
      executor(p)->Enqueue(busy, std::move(done));
      return true;
    }
    return executor(p)->TryEnqueue(Background(
        busy, std::move(done),
        [guard, evicted](SimTime, PartitionExecutor::ShedCause) {
          if (guard.live()) evicted();
        }));
  }

  /// Wraps `landed` into a per-side completion that runs it once both
  /// sides of a burst finished: pass the result as `on_src` and `on_dst`.
  template <typename Fn>
  static auto BothSides(Fn landed) {
    return [joins = std::make_shared<int32_t>(2), landed](SimTime, SimTime) {
      if (--*joins == 0) landed();
    };
  }

  /// Runs chunk `chunk` of `stream` (and, as each goes, the next).
  void Pipeline(const std::shared_ptr<PipelinedStream>& stream,
                int32_t chunk) const;

  bool bounded() const;  ///< Overload control (bounded queues) is on.

 private:
  Simulator* sim() const;
  PartitionExecutor* executor(PartitionId p) const;
  static PartitionExecutor::WorkItem Background(
      SimDuration busy, PartitionExecutor::Completion done,
      PartitionExecutor::ShedFn on_shed);

  ClusterEngine* engine_;
};

}  // namespace pstore
