#include "cluster/partition_executor.h"

#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/simulator.h"

namespace pstore {
namespace {

TEST(PartitionExecutorTest, SingleItemRunsForServiceTime) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  SimTime started = -1, finished = -1;
  exec.Enqueue(100, [&](SimTime s, SimTime f) {
    started = s;
    finished = f;
  });
  sim.RunAll();
  EXPECT_EQ(started, 0);
  EXPECT_EQ(finished, 100);
  EXPECT_EQ(exec.completed(), 1);
  EXPECT_EQ(exec.busy_time(), 100);
  EXPECT_FALSE(exec.busy());
}

TEST(PartitionExecutorTest, FifoOrderAndQueueing) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  std::vector<int> order;
  std::vector<SimTime> finish;
  for (int i = 0; i < 3; ++i) {
    exec.Enqueue(10, [&, i](SimTime, SimTime f) {
      order.push_back(i);
      finish.push_back(f);
    });
  }
  EXPECT_EQ(exec.queue_length(), 2u);  // one in service, two waiting
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(finish, (std::vector<SimTime>{10, 20, 30}));
}

TEST(PartitionExecutorTest, QueueingDelayAccumulates) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  // Saturate: 10 items of 100 each arriving at t=0.
  SimTime last_finish = 0;
  for (int i = 0; i < 10; ++i) {
    exec.Enqueue(100, [&](SimTime, SimTime f) { last_finish = f; });
  }
  sim.RunAll();
  EXPECT_EQ(last_finish, 1000);
  EXPECT_EQ(exec.busy_time(), 1000);
}

TEST(PartitionExecutorTest, IdleThenNewWork) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  exec.Enqueue(10, nullptr);
  sim.RunAll();
  EXPECT_EQ(sim.Now(), 10);
  SimTime f2 = -1;
  exec.Enqueue(5, [&](SimTime, SimTime f) { f2 = f; });
  sim.RunAll();
  EXPECT_EQ(f2, 15);
  EXPECT_EQ(exec.completed(), 2);
}

TEST(PartitionExecutorTest, WorkEnqueuedFromCompletion) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  int chain = 0;
  std::function<void(SimTime, SimTime)> next = [&](SimTime, SimTime) {
    if (++chain < 3) exec.Enqueue(7, next);
  };
  exec.Enqueue(7, next);
  sim.RunAll();
  EXPECT_EQ(chain, 3);
  EXPECT_EQ(sim.Now(), 21);
}

TEST(PartitionExecutorTest, ZeroServiceTimeCompletesImmediately) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  SimTime f = -1;
  exec.Enqueue(0, [&](SimTime, SimTime fin) { f = fin; });
  sim.RunAll();
  EXPECT_EQ(f, 0);
}

PartitionExecutor::WorkItem Item(SimDuration service, SimTime deadline = -1,
                                 int8_t priority = 2,
                                 PartitionExecutor::ShedFn on_shed = nullptr) {
  PartitionExecutor::WorkItem item;
  item.service = service;
  item.deadline = deadline;
  item.priority = priority;
  item.on_shed = std::move(on_shed);
  return item;
}

TEST(PartitionExecutorTest, TryEnqueueRespectsLimit) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  exec.set_queue_limit(2);
  exec.Enqueue(100, nullptr);  // in service; waiting queue empty
  EXPECT_TRUE(exec.TryEnqueue(Item(10)));
  EXPECT_TRUE(exec.TryEnqueue(Item(10)));
  EXPECT_TRUE(exec.AtLimit());
  EXPECT_FALSE(exec.TryEnqueue(Item(10)));
  sim.RunAll();
  EXPECT_EQ(exec.completed(), 3);
  EXPECT_EQ(exec.shed(), 0);
}

TEST(PartitionExecutorTest, LegacyEnqueueBypassesLimit) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  exec.set_queue_limit(1);
  for (int i = 0; i < 5; ++i) exec.Enqueue(10, nullptr);
  sim.RunAll();
  EXPECT_EQ(exec.completed(), 5);
  EXPECT_EQ(exec.shed(), 0);
}

TEST(PartitionExecutorTest, DeadlineExpiryShedsAtDequeue) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  exec.Enqueue(100, nullptr);  // serves until t=100
  SimTime shed_at = -1;
  PartitionExecutor::ShedCause cause = PartitionExecutor::ShedCause::kEvicted;
  ASSERT_TRUE(exec.TryEnqueue(
      Item(10, /*deadline=*/50, 2, [&](SimTime at,
                                       PartitionExecutor::ShedCause c) {
        shed_at = at;
        cause = c;
      })));
  sim.RunAll();
  EXPECT_EQ(exec.completed(), 1);
  EXPECT_EQ(exec.deadline_shed(), 1);
  EXPECT_EQ(exec.shed(), 1);
  EXPECT_EQ(shed_at, 100);  // shed when it would have started
  EXPECT_EQ(cause, PartitionExecutor::ShedCause::kDeadline);
}

TEST(PartitionExecutorTest, DeadlineStillAheadRuns) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  exec.Enqueue(100, nullptr);
  SimTime finished = -1;
  auto item = Item(10, /*deadline=*/100);
  item.done = [&](SimTime, SimTime f) { finished = f; };
  ASSERT_TRUE(exec.TryEnqueue(std::move(item)));
  sim.RunAll();
  // Starts exactly at its deadline: not late, so it runs.
  EXPECT_EQ(finished, 110);
  EXPECT_EQ(exec.deadline_shed(), 0);
}

TEST(PartitionExecutorTest, EvictLowestBelowPicksLowestThenNewest) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  exec.Enqueue(100, nullptr);
  std::vector<int> shed_order;
  auto track = [&](int id) {
    return [&shed_order, id](SimTime, PartitionExecutor::ShedCause) {
      shed_order.push_back(id);
    };
  };
  ASSERT_TRUE(exec.TryEnqueue(Item(10, -1, 1, track(0))));  // low
  ASSERT_TRUE(exec.TryEnqueue(Item(10, -1, 0, track(1))));  // background
  ASSERT_TRUE(exec.TryEnqueue(Item(10, -1, 0, track(2))));  // background
  // Lowest priority below 2 is 0; newest among the tie is item 2.
  EXPECT_TRUE(exec.EvictLowestBelow(2));
  EXPECT_TRUE(exec.EvictLowestBelow(1));
  EXPECT_EQ(shed_order, (std::vector<int>{2, 1}));
  // Only the priority-1 item remains, which is not strictly below 1.
  EXPECT_FALSE(exec.EvictLowestBelow(1));
  EXPECT_EQ(exec.evicted(), 2);
}

TEST(PartitionExecutorTest, MaxQueueDepthIsHighWater) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  exec.Enqueue(10, nullptr);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(exec.TryEnqueue(Item(10)));
  EXPECT_EQ(exec.max_queue_depth(), 3u);
  sim.RunAll();
  EXPECT_EQ(exec.queue_length(), 0u);
  EXPECT_EQ(exec.max_queue_depth(), 3u);  // high-water survives the drain
}

TEST(PartitionExecutorTest, CallbacksThatEnqueueKeepFifoOrder) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  std::vector<char> order;
  auto run = [&](char id) {
    return [&order, id](SimTime, SimTime) { order.push_back(id); };
  };
  // A's completion enqueues D onto its own executor: D queues behind B
  // and C rather than jumping them.
  exec.Enqueue(10, [&](SimTime, SimTime) {
    order.push_back('A');
    exec.Enqueue(10, run('D'));
  });
  // E expires in the queue; its shed callback submits F, which queues
  // behind C, the item served in its place.
  auto expiring = Item(10, /*deadline=*/5, 2,
                       [&](SimTime, PartitionExecutor::ShedCause) {
                         order.push_back('e');
                         exec.Enqueue(10, run('F'));
                       });
  exec.Enqueue(10, run('B'));
  ASSERT_TRUE(exec.TryEnqueue(std::move(expiring)));
  exec.Enqueue(10, run('C'));
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'e', 'C', 'D', 'F'}));
  EXPECT_EQ(exec.completed(), 5);
  EXPECT_EQ(exec.deadline_shed(), 1);
  EXPECT_EQ(sim.Now(), 50);
}

// The waiting queue is a ring that wraps and grows: random enqueues,
// evictions and service against a std::deque model of the same queue,
// checking which item each completion and shed callback belongs to.
TEST(PartitionExecutorTest, QueueMatchesDequeModelAcrossWraps) {
  Simulator sim;
  PartitionExecutor exec(&sim);
  Rng rng(5);
  struct Queued {
    int id;
    int8_t priority;
  };
  std::deque<Queued> model;  // waiting items, oldest first
  int in_service = -1;
  std::vector<int> served, shed, want_served, want_shed;
  int next_id = 0;
  auto enqueue = [&]() {
    const int id = next_id++;
    const auto priority = static_cast<int8_t>(rng.NextBounded(4));
    PartitionExecutor::WorkItem item = Item(
        1 + static_cast<SimDuration>(rng.NextBounded(20)), -1, priority,
        [&shed, id](SimTime, PartitionExecutor::ShedCause) {
          shed.push_back(id);
        });
    item.done = [&served, id](SimTime, SimTime) { served.push_back(id); };
    const bool idle = !exec.busy();
    ASSERT_TRUE(exec.TryEnqueue(std::move(item)));
    if (idle) {
      in_service = id;
    } else {
      model.push_back({id, priority});
    }
  };
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 5) {
      enqueue();
    } else if (op == 5 || op == 6) {
      const auto below = static_cast<int8_t>(rng.NextBounded(4));
      auto victim = model.end();
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->priority < below &&
            (victim == model.end() || it->priority <= victim->priority)) {
          victim = it;
        }
      }
      ASSERT_EQ(exec.EvictLowestBelow(below), victim != model.end());
      if (victim != model.end()) {
        want_shed.push_back(victim->id);
        model.erase(victim);
      }
    } else if (exec.busy()) {
      // Finish the item in service; the oldest waiting one starts.
      want_served.push_back(in_service);
      sim.RunUntil(sim.Now() + 1);
      while (static_cast<int64_t>(served.size()) <
             static_cast<int64_t>(want_served.size())) {
        sim.RunUntil(sim.Now() + 1);
      }
      in_service = -1;
      if (!model.empty()) {
        in_service = model.front().id;
        model.pop_front();
      }
    }
    ASSERT_EQ(exec.queue_length(), model.size());
  }
  sim.RunAll();
  if (in_service >= 0) want_served.push_back(in_service);
  for (const Queued& q : model) want_served.push_back(q.id);
  EXPECT_EQ(served, want_served);
  EXPECT_EQ(shed, want_shed);
  EXPECT_GT(exec.max_queue_depth(), 16u);  // the ring grew at least once
}

}  // namespace
}  // namespace pstore
