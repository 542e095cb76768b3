#include "sim/simulator.h"

#include <array>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/slot_arrivals.h"

namespace pstore {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.events_executed(), 3);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i]() { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&]() { ++fired; });
  sim.Schedule(20, [&]() { ++fired; });
  sim.Schedule(30, [&]() { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);  // events at t <= 20 fire
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), 100);  // clock advances to `until`
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) sim.Schedule(10, recurse);
  };
  sim.Schedule(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(10, []() {});
  sim.RunAll();
  SimTime fired_at = -1;
  sim.Schedule(-100, [&]() { fired_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(fired_at, 10);
}

TEST(SimulatorTest, ScheduleAtInThePastClamps) {
  Simulator sim;
  sim.Schedule(50, []() {});
  sim.RunAll();
  SimTime fired_at = -1;
  sim.ScheduleAt(10, [&]() { fired_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(fired_at, 50);
}

TEST(SimulatorTest, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.RunUntil(1234);
  EXPECT_EQ(sim.Now(), 1234);
}

TEST(SimulatorTest, ManyEventsPerformanceSmoke) {
  Simulator sim;
  int64_t count = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.Schedule(i, [&]() { ++count; });
  }
  sim.RunAll();
  EXPECT_EQ(count, 100000);
}

/// Two arrival sources replaying trace slots the way the workload
/// clients do (each slot's arrivals spread over 40 us, the next slot
/// drawn 40 us later; ~30 arrivals per slot, so many share a
/// microsecond), plus other events: each arrival may
/// schedule a follow-up at its own instant or a few us later, and a
/// timer ticks every 7 us. Arrivals are scheduled eagerly at draw time
/// or through SlotArrivals; the handlers draw from one Rng, so any
/// reordering also changes what happens next.
class ArrivalHarness {
 public:
  ArrivalHarness(bool eager, uint64_t seed)
      : eager_(eager), handler_rng_(seed), slot_rngs_{Rng(seed * 3 + 1),
                                                      Rng(seed * 3 + 2)} {
    for (int src = 0; src < 2; ++src) {
      sources_[static_cast<size_t>(src)] = std::make_unique<SlotArrivals>(
          &sim_, [this, src]() { Arrive(src); });
      Slot(src, 0, src * 13);
    }
    Tick();
  }

  /// (time, what) per fired event: 0/1 = an arrival of that source,
  /// -1 = the timer, >= 2 = follow-up number.
  std::vector<std::pair<SimTime, int64_t>> Run() {
    sim_.RunAll();
    return log_;
  }
  const Simulator& sim() const { return sim_; }

 private:
  static constexpr int64_t kSlots = 40;

  void Slot(int src, int64_t slot, SimTime start) {
    Rng* rng = &slot_rngs_[static_cast<size_t>(src)];
    if (eager_) {
      const int64_t arrivals = rng->NextPoisson(30.0);
      for (int64_t i = 0; i < arrivals; ++i) {
        const SimDuration offset =
            static_cast<SimDuration>(rng->NextDouble() * 40.0);
        sim_.ScheduleAt(start + offset, [this, src]() { Arrive(src); });
      }
    } else {
      sources_[static_cast<size_t>(src)]->Draw(rng, 30.0, start, 40);
    }
    if (slot + 1 < kSlots) {
      sim_.ScheduleAt(start + 40, [this, src, slot, start]() {
        Slot(src, slot + 1, start + 40);
      });
    }
  }

  void Arrive(int src) {
    log_.emplace_back(sim_.Now(), src);
    const double u = handler_rng_.NextDouble();
    if (u < 0.5) {
      const SimDuration delay =
          u < 0.3 ? 0 : static_cast<SimDuration>(handler_rng_.NextBounded(5));
      const int64_t id = next_follow_up_++;
      sim_.Schedule(delay, [this, id]() { log_.emplace_back(sim_.Now(), id); });
    }
  }

  void Tick() {
    log_.emplace_back(sim_.Now(), -1);
    if (sim_.Now() < kSlots * 40) sim_.Schedule(7, [this]() { Tick(); });
  }

  bool eager_;
  Simulator sim_;
  Rng handler_rng_;
  std::array<Rng, 2> slot_rngs_;
  std::array<std::unique_ptr<SlotArrivals>, 2> sources_;
  std::vector<std::pair<SimTime, int64_t>> log_;
  int64_t next_follow_up_ = 2;
};

TEST(SimulatorTest, ReservedSeqsFireLikeEagerScheduling) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ArrivalHarness eager(/*eager=*/true, seed);
    ArrivalHarness armed(/*eager=*/false, seed);
    const auto want = eager.Run();
    const auto got = armed.Run();
    ASSERT_GT(want.size(), 2000u);
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(armed.sim().events_scheduled(), eager.sim().events_scheduled())
        << "seed " << seed;
    EXPECT_EQ(armed.sim().events_executed(), eager.sim().events_executed())
        << "seed " << seed;
  }
}

TEST(SimulatorTest, ScheduleReservedKeepsTheReservedPlace) {
  Simulator sim;
  std::vector<int> order;
  const int64_t first = sim.ReserveSeqs(2);
  sim.Schedule(5, [&]() { order.push_back(3); });  // seq first + 2
  EXPECT_EQ(sim.events_scheduled(), 3);
  sim.ScheduleReserved(5, first + 1, [&]() { order.push_back(2); });
  sim.ScheduleReserved(5, first, [&]() { order.push_back(1); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_scheduled(), 3);
  EXPECT_EQ(sim.events_executed(), 3);
}

}  // namespace
}  // namespace pstore
