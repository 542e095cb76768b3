#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/sim_time.h"

/// \file simulator.h
/// Deterministic discrete-event simulator. All engine-level experiments
/// (Figures 7-11) run on this virtual clock: transactions execute real
/// storage operations, but time advances event-to-event, so a "7.2-hour"
/// benchmark (Section 8.2) replays in seconds and is exactly repeatable.

namespace pstore {

/// \brief Single-threaded event loop over virtual time.
///
/// Events scheduled for the same instant fire in scheduling order
/// (a monotone sequence number breaks ties), which keeps runs
/// deterministic regardless of container iteration order.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at Now() + delay. Negative delays clamp to 0.
  void Schedule(SimDuration delay, Callback fn);

  /// Schedules `fn` at an absolute time (clamped to Now()).
  void ScheduleAt(SimTime at, Callback fn);

  /// Takes the next `n` sequence numbers, as `n` ScheduleAt calls would,
  /// without scheduling anything; returns the first. A client that draws
  /// a burst of arrivals at once can reserve their numbers here and arm
  /// them one at a time with ScheduleReserved: every event keeps the
  /// (time, seq) key eager scheduling would have given it, so firing
  /// order and events_scheduled() are unchanged while the queue holds
  /// one pending arrival instead of the burst.
  int64_t ReserveSeqs(int64_t n);

  /// Schedules `fn` at `at` under `seq`, a number from ReserveSeqs not
  /// used before. `at` must not be in the past, and the event must be
  /// armed before any event ordered after it fires.
  void ScheduleReserved(SimTime at, int64_t seq, Callback fn);

  /// Runs events until the queue empties or virtual time would pass
  /// `until`; Now() afterwards is min(until, last event time). Events
  /// exactly at `until` are executed.
  void RunUntil(SimTime until);

  /// Runs until the queue is empty.
  void RunAll();

  /// Number of events executed so far (for tests and sanity checks).
  int64_t events_executed() const { return events_executed_; }

  /// Number of events ever scheduled. Together with events_executed()
  /// this gives the invariant checker a cheap progress/accounting
  /// signal: executed is monotone and never exceeds scheduled.
  int64_t events_scheduled() const { return next_seq_; }

  /// True if no events are pending.
  bool Empty() const { return queue_.empty(); }

 private:
  struct Event {
    SimTime at;
    int64_t seq;
    Callback fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap on time
      return a.seq > b.seq;                  // FIFO within an instant
    }
  };

  SimTime now_ = 0;
  int64_t next_seq_ = 0;
  int64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
};

}  // namespace pstore
