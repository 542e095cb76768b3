#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.h"
#include "sim/simulator.h"

/// \file partition_executor.h
/// A partition's single execution thread, modeled as a FIFO service
/// station on the discrete-event simulator. Both transaction work and
/// migration chunk (de)serialization occupy this station — that shared
/// queue is exactly the contention the paper measures in Figure 8 and
/// that makes reactive reconfiguration at peak load painful.
///
/// The queue can optionally be *bounded* (overload control): TryEnqueue
/// refuses arrivals past `queue_limit`, queued items can carry a
/// deadline (work whose service has not started by its deadline is shed
/// at dequeue, not executed) and a priority (the admission controller
/// may evict queued lower-priority work to admit new arrivals). With no
/// limit, no deadlines and plain Enqueue — the default — behaviour is
/// byte-identical to the historical unbounded FIFO.

namespace pstore {

/// \brief FIFO, one-at-a-time work queue bound to a Simulator.
class PartitionExecutor {
 public:
  /// Invoked when a work item finishes; receives (service start time,
  /// completion time).
  using Completion = std::function<void(SimTime started, SimTime finished)>;

  /// Why a queued item was removed without being served.
  enum class ShedCause {
    kDeadline,  ///< Still queued past its deadline at dequeue time.
    kEvicted,   ///< Displaced by the admission policy.
  };

  /// Invoked when a queued item is shed; receives the virtual time of
  /// the shed and the cause. The item's Completion never fires.
  using ShedFn = std::function<void(SimTime at, ShedCause cause)>;

  /// One unit of work for the bounded-queue path.
  struct WorkItem {
    SimDuration service = 0;  ///< Virtual service time required.
    Completion done;          ///< Fires at completion.
    /// Absolute virtual time service must *start* by; -1 = none.
    SimTime deadline = -1;
    /// Overload priority (TxnPriority scale; higher outranks lower).
    int8_t priority = 2;
    ShedFn on_shed;           ///< Fires if the item is shed instead.
  };

  explicit PartitionExecutor(Simulator* sim) : sim_(sim) {}

  /// Enqueues a work item requiring `service` virtual time. Items run
  /// in arrival order; `done` fires at completion. This legacy entry
  /// bypasses the queue limit (overload-controlled callers use
  /// TryEnqueue after consulting the admission controller).
  void Enqueue(SimDuration service, Completion done);

  /// Bounded enqueue: refuses (returns false, item untouched, no shed
  /// callback) when the waiting queue is at the limit. The admission
  /// controller is expected to have made room first, so a false return
  /// is a caller bug or a deliberate backpressure probe.
  bool TryEnqueue(WorkItem item);

  /// Waiting-queue bound for TryEnqueue; 0 (default) = unbounded.
  void set_queue_limit(size_t limit) { queue_limit_ = limit; }
  size_t queue_limit() const { return queue_limit_; }

  /// True when TryEnqueue would refuse an arrival right now.
  bool AtLimit() const {
    return queue_limit_ > 0 && queue_.size() >= queue_limit_;
  }

  /// Evicts the waiting item with the lowest priority strictly below
  /// `priority` (newest among ties, so older equal-priority work keeps
  /// its place); its on_shed fires inside this call. False if no
  /// waiting item qualifies.
  bool EvictLowestBelow(int8_t priority);

  /// Items waiting (not counting the one in service).
  size_t queue_length() const { return queue_.size(); }

  /// True while an item is in service.
  bool busy() const { return busy_; }

  /// Cumulative virtual time this executor has spent serving items.
  SimDuration busy_time() const { return busy_time_; }

  /// Cumulative items completed.
  int64_t completed() const { return completed_; }

  /// Cumulative items shed (deadline expiries + evictions).
  int64_t shed() const { return shed_; }

  /// Items shed because their deadline passed before service started.
  int64_t deadline_shed() const { return deadline_shed_; }

  /// Items evicted by the admission policy.
  int64_t evicted() const { return evicted_; }

  /// Deepest the waiting queue has ever been (bounded-queue invariant:
  /// never exceeds queue_limit once a limit is set).
  size_t max_queue_depth() const { return max_queue_depth_; }

 private:
  /// The waiting items, oldest first: a ring over a power-of-two slot
  /// array that only grows, so a queue that stays within its high-water
  /// mark allocates nothing (a std::deque frees and allocates a block
  /// every few items).
  class Queue {
   public:
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Item `i` (0 = oldest).
    WorkItem& operator[](size_t i) {
      return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    void PushBack(WorkItem item);
    /// Removes and returns item `i`; the newer items close the gap.
    WorkItem Take(size_t i);

   private:
    std::vector<WorkItem> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  void Push(WorkItem item);
  void ShedItem(WorkItem item, ShedCause cause);
  void StartNext();
  /// The in-service item's service time elapsed.
  void Finish();

  Simulator* sim_;
  Queue queue_;
  /// The in-service item's completion and start time, held here so the
  /// completion event captures only `this`.
  Completion in_service_;
  SimTime in_service_started_ = 0;
  size_t queue_limit_ = 0;
  bool busy_ = false;
  SimDuration busy_time_ = 0;
  int64_t completed_ = 0;
  int64_t shed_ = 0;
  int64_t deadline_shed_ = 0;
  int64_t evicted_ = 0;
  size_t max_queue_depth_ = 0;
};

}  // namespace pstore
