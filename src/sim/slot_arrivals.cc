#include "sim/slot_arrivals.h"

#include <algorithm>
#include <cassert>

namespace pstore {

void SlotArrivals::Draw(Rng* rng, double mean, SimTime start,
                        SimDuration duration) {
  assert(next_ == drawn_.size() && start >= sim_->Now());
  const int64_t arrivals = rng->NextPoisson(mean);
  const int64_t first = sim_->ReserveSeqs(arrivals);
  drawn_.clear();
  for (int64_t i = 0; i < arrivals; ++i) {
    const SimDuration offset = static_cast<SimDuration>(
        rng->NextDouble() * static_cast<double>(duration));
    drawn_.push_back(Key{start + offset, first + i});
  }
  // The event queue's order: time, then sequence number.
  std::sort(drawn_.begin(), drawn_.end(), [](const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  next_ = 0;
  if (!drawn_.empty()) {
    sim_->ScheduleReserved(drawn_[0].at, drawn_[0].seq, [this]() { Fire(); });
  }
}

void SlotArrivals::Fire() {
  // The next key orders after the one firing now, so arming it here is
  // in time.
  if (++next_ < drawn_.size()) {
    sim_->ScheduleReserved(drawn_[next_].at, drawn_[next_].seq,
                           [this]() { Fire(); });
  }
  on_arrival_();
}

}  // namespace pstore
