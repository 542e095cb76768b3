#include "overload/admission_controller.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace pstore {
namespace overload {
namespace {

/// In-memory stand-in for a partition's waiting queue: just the
/// priorities, in arrival order, with the executor's eviction rules.
struct FakeQueue {
  std::vector<int8_t> priorities;

  QueueOps ops() {
    QueueOps o;
    o.queue_length = [this] { return priorities.size(); };
    o.evict_lowest_below = [this](int8_t priority) {
      int best = -1;
      for (size_t i = 0; i < priorities.size(); ++i) {
        if (priorities[i] >= priority) continue;
        if (best < 0 || priorities[i] <= priorities[best]) {
          best = static_cast<int>(i);  // <=: newest among ties
        }
      }
      if (best < 0) return false;
      priorities.erase(priorities.begin() + best);
      return true;
    };
    return o;
  }
};

OverloadConfig TestConfig() {
  OverloadConfig config;
  config.enabled = true;
  config.max_queue_depth = 3;
  return config;
}

TEST(AdmissionControllerTest, AdmitsBelowLimit) {
  AdmissionController admission(TestConfig(), 1);
  FakeQueue queue;
  queue.priorities = {2, 2};
  EXPECT_EQ(admission.Admit(queue.ops(), 0, 2, 0),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(admission.evictions(), 0);
}

TEST(AdmissionControllerTest, RejectNewShedsArrival) {
  // Nothing queued sits below the arrival's priority: the new item is
  // the one shed.
  AdmissionController admission(TestConfig(), 1);
  FakeQueue queue;
  queue.priorities = {2, 2, 2};
  EXPECT_EQ(admission.Admit(queue.ops(), 0, 1, 0),
            AdmissionDecision::kRejectQueueFull);
  EXPECT_EQ(queue.priorities.size(), 3u);  // queue untouched
  EXPECT_EQ(admission.evictions(), 0);
}

TEST(AdmissionControllerTest, PriorityShedEvictsStrictlyLower) {
  AdmissionController admission(TestConfig(), 1);
  FakeQueue queue;
  queue.priorities = {2, 0, 1};
  // Arrival at priority 2 may displace the priority-0 item.
  EXPECT_EQ(admission.Admit(queue.ops(), 0, 2, 0),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(queue.priorities, (std::vector<int8_t>{2, 1}));
  // Queue refills with equal-priority work: no strictly-lower victim.
  queue.priorities = {2, 2, 2};
  EXPECT_EQ(admission.Admit(queue.ops(), 0, 2, 0),
            AdmissionDecision::kRejectQueueFull);
  EXPECT_EQ(admission.evictions(), 1);
}

TEST(AdmissionControllerTest, UnboundedDepthAlwaysAdmits) {
  OverloadConfig config = TestConfig();
  config.max_queue_depth = 0;
  AdmissionController admission(config, 1);
  FakeQueue queue;
  queue.priorities.assign(1000, 2);
  EXPECT_EQ(admission.Admit(queue.ops(), 0, 0, 0),
            AdmissionDecision::kAdmit);
}

TEST(AdmissionControllerTest, OpenBreakerRejectsAllButCritical) {
  OverloadConfig config = TestConfig();
  config.breaker.shed_threshold = 0.5;
  config.breaker.min_samples = 10;
  config.breaker.cooldown = 5 * kSecond;
  AdmissionController admission(config, 2);
  for (int i = 0; i < 20; ++i) admission.RecordShed(0, 100 * kMillisecond);
  // The shedding window closes at 1 s and trips node 0's breaker.
  ASSERT_TRUE(admission.AnyBreakerOpen(kSecond));
  EXPECT_EQ(admission.OpenBreakerCount(kSecond), 1);
  EXPECT_EQ(admission.total_trips(), 1);

  const SimTime later = 1500 * kMillisecond;
  FakeQueue queue;  // plenty of room: the breaker alone rejects
  EXPECT_EQ(admission.Admit(queue.ops(), 0, 2, later),
            AdmissionDecision::kRejectBreakerOpen);
  // Critical work (checkout path) passes an open breaker.
  EXPECT_EQ(admission.Admit(queue.ops(), 0, 3, later),
            AdmissionDecision::kAdmit);
  // Other nodes' breakers are independent.
  EXPECT_EQ(admission.Admit(queue.ops(), 1, 2, later),
            AdmissionDecision::kAdmit);
}

TEST(AdmissionControllerTest, DecisionNames) {
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kAdmit), "admit");
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kRejectQueueFull),
               "reject-queue-full");
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kRejectBreakerOpen),
               "reject-breaker-open");
}

}  // namespace
}  // namespace overload
}  // namespace pstore
