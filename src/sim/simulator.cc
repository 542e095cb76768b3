#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace pstore {

void Simulator::Schedule(SimDuration delay, Callback fn) {
  if (delay < 0) delay = 0;
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime at, Callback fn) {
  if (at < now_) at = now_;
  queue_.push(Event{at, next_seq_++, std::move(fn)});
}

int64_t Simulator::ReserveSeqs(int64_t n) {
  assert(n >= 0);
  const int64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

void Simulator::ScheduleReserved(SimTime at, int64_t seq, Callback fn) {
  assert(at >= now_ && seq < next_seq_);
  queue_.push(Event{at, seq, std::move(fn)});
}

void Simulator::RunUntil(SimTime until) {
  while (!queue_.empty() && queue_.top().at <= until) {
    // Moving out of a priority_queue requires const_cast; the event is
    // popped immediately after, so no ordering invariant is violated.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    ++events_executed_;
    ev.fn();
  }
  if (now_ < until) now_ = until;
}

void Simulator::RunAll() {
  while (!queue_.empty()) {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    ++events_executed_;
    ev.fn();
  }
}

}  // namespace pstore
