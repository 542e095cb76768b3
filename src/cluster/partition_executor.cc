#include "cluster/partition_executor.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pstore {

void PartitionExecutor::Enqueue(SimDuration service, Completion done) {
  assert(service >= 0);
  WorkItem item;
  item.service = service;
  item.done = std::move(done);
  Push(std::move(item));
}

bool PartitionExecutor::TryEnqueue(WorkItem item) {
  assert(item.service >= 0);
  if (AtLimit()) return false;
  Push(std::move(item));
  return true;
}

void PartitionExecutor::Queue::PushBack(WorkItem item) {
  if (size_ == slots_.size()) {
    // Full: unroll into a doubled array, oldest first.
    std::vector<WorkItem> grown(std::max<size_t>(8, 2 * slots_.size()));
    for (size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(item);
  ++size_;
}

PartitionExecutor::WorkItem PartitionExecutor::Queue::Take(size_t i) {
  assert(i < size_);
  const size_t mask = slots_.size() - 1;
  WorkItem item = std::move((*this)[i]);
  size_t vacated = head_;
  if (i == 0) {
    head_ = (head_ + 1) & mask;
  } else {
    for (size_t j = i; j + 1 < size_; ++j) {
      (*this)[j] = std::move((*this)[j + 1]);
    }
    vacated = (head_ + size_ - 1) & mask;
  }
  --size_;
  // A moved-from std::function is valid but unspecified: drop whatever
  // the vacated slot still holds.
  slots_[vacated].done = nullptr;
  slots_[vacated].on_shed = nullptr;
  return item;
}

void PartitionExecutor::Push(WorkItem item) {
  queue_.PushBack(std::move(item));
  max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  if (!busy_) StartNext();
}

void PartitionExecutor::ShedItem(WorkItem item, ShedCause cause) {
  ++shed_;
  if (cause == ShedCause::kDeadline) {
    ++deadline_shed_;
  } else {
    ++evicted_;
  }
  if (item.on_shed) item.on_shed(sim_->Now(), cause);
}

bool PartitionExecutor::EvictLowestBelow(int8_t priority) {
  // Lowest priority wins; among ties the newest goes (<= keeps updating
  // as the scan moves toward the tail), so older work keeps its place.
  size_t best = queue_.size();
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].priority >= priority) continue;
    if (best == queue_.size() ||
        queue_[i].priority <= queue_[best].priority) {
      best = i;
    }
  }
  if (best == queue_.size()) return false;
  ShedItem(queue_.Take(best), ShedCause::kEvicted);
  return true;
}

void PartitionExecutor::StartNext() {
  // Claim the station first: a shed callback below may synchronously
  // enqueue follow-up work, which must queue rather than re-enter here.
  busy_ = true;
  const SimTime now = sim_->Now();
  // Shed expired work instead of serving it — a response after the
  // deadline is worthless, and serving it would delay live work behind
  // it (dequeue-time deadline check).
  while (!queue_.empty() && queue_[0].deadline >= 0 &&
         now > queue_[0].deadline) {
    ShedItem(queue_.Take(0), ShedCause::kDeadline);
  }
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  WorkItem item = queue_.Take(0);
  in_service_ = std::move(item.done);
  in_service_started_ = sim_->Now();
  busy_time_ += item.service;
  // `this` outlives the simulator run.
  sim_->Schedule(item.service, [this]() { Finish(); });
}

void PartitionExecutor::Finish() {
  ++completed_;
  // Moved out first: the completion may enqueue onto this executor, and
  // its captures should not outlive the call.
  const Completion done = std::move(in_service_);
  in_service_ = nullptr;
  if (done) done(in_service_started_, sim_->Now());
  StartNext();
}

}  // namespace pstore
