#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/simulator.h"

/// \file slot_arrivals.h
/// Poisson arrivals of trace slots, fed to the simulator one at a time.
/// A trace-driven client (B2W, Wikipedia) draws each slot's arrival
/// count and offsets in one go. Scheduling every arrival at once parks
/// a whole slot — thousands of closures at the B2W peak — in the event
/// queue. SlotArrivals reserves their sequence numbers instead, keeps
/// the (time, seq) keys sorted on its side, and arms only the next one:
/// each event fires exactly when, and in the order, eager scheduling
/// would have fired it.

namespace pstore {

/// \brief One client's drawn-but-unfired arrivals.
class SlotArrivals {
 public:
  /// \param sim the virtual clock (not owned; must outlive this)
  /// \param on_arrival runs once per arrival, at its instant
  SlotArrivals(Simulator* sim, std::function<void()> on_arrival)
      : sim_(sim), on_arrival_(std::move(on_arrival)) {}
  // The armed event holds this object's address.
  SlotArrivals(const SlotArrivals&) = delete;
  SlotArrivals& operator=(const SlotArrivals&) = delete;

  /// Draws a Poisson(`mean`) arrival count from `rng`, then one offset
  /// per arrival, uniform over [start, start + duration) — the draws,
  /// in the order, that scheduling each arrival at once makes — and
  /// takes their sequence numbers as those ScheduleAt calls would have.
  /// `start` must not be before Now(), and every arrival of the
  /// previous draw must have fired: a client draws the next slot from
  /// an event at or after the current slot's end, scheduled after this
  /// draw reserved its numbers.
  void Draw(Rng* rng, double mean, SimTime start, SimDuration duration);

 private:
  /// An arrival's event key.
  struct Key {
    SimTime at;
    int64_t seq;
  };

  /// The armed arrival fired: arms the next, then runs `on_arrival_`.
  void Fire();

  Simulator* sim_;
  std::function<void()> on_arrival_;
  /// The current draw's arrivals, earliest first. `next_` is the one
  /// armed in the event queue; none is when it reaches the end.
  std::vector<Key> drawn_;
  size_t next_ = 0;
};

}  // namespace pstore
