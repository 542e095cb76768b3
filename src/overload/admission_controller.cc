#include "overload/admission_controller.h"

#include <cassert>

namespace pstore {
namespace overload {

namespace {
/// Work at or above this priority is admitted even while a breaker is
/// open (TxnPriority::kPriorityCritical).
constexpr int8_t kCriticalPriority = 3;
}  // namespace

const char* AdmissionDecisionName(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kRejectQueueFull:
      return "reject-queue-full";
    case AdmissionDecision::kRejectBreakerOpen:
      return "reject-breaker-open";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const OverloadConfig& config,
                                         int32_t num_nodes)
    : config_(config) {
  assert(config_.Validate().ok());
  assert(num_nodes >= 1);
  breakers_.assign(static_cast<size_t>(num_nodes),
                   CircuitBreaker(config_.breaker));
}

AdmissionDecision AdmissionController::Admit(const QueueOps& ops,
                                             int32_t node, int8_t priority,
                                             SimTime now) {
  CircuitBreaker& breaker = breakers_[static_cast<size_t>(node)];
  if (breaker.state(now) == BreakerState::kOpen &&
      priority < kCriticalPriority) {
    return AdmissionDecision::kRejectBreakerOpen;
  }
  const size_t limit = static_cast<size_t>(config_.max_queue_depth);
  if (limit == 0 || ops.queue_length() < limit) {
    return AdmissionDecision::kAdmit;
  }
  if (ops.evict_lowest_below(priority)) {
    ++evictions_;
    return AdmissionDecision::kAdmit;
  }
  return AdmissionDecision::kRejectQueueFull;
}

void AdmissionController::RecordAdmitted(int32_t node, SimTime now) {
  breakers_[static_cast<size_t>(node)].RecordAdmitted(now);
}

void AdmissionController::RecordShed(int32_t node, SimTime now) {
  breakers_[static_cast<size_t>(node)].RecordShed(now);
}

bool AdmissionController::AnyBreakerOpen(SimTime now) {
  for (CircuitBreaker& b : breakers_) {
    if (b.state(now) == BreakerState::kOpen) return true;
  }
  return false;
}

int32_t AdmissionController::OpenBreakerCount(SimTime now) {
  int32_t open = 0;
  for (CircuitBreaker& b : breakers_) {
    if (b.state(now) == BreakerState::kOpen) ++open;
  }
  return open;
}

int64_t AdmissionController::total_trips() const {
  int64_t trips = 0;
  for (const CircuitBreaker& b : breakers_) trips += b.trips();
  return trips;
}

}  // namespace overload
}  // namespace pstore
