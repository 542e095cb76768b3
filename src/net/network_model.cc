#include "net/network_model.h"

#include <algorithm>

namespace pstore {
namespace net {

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kChunkData:
      return "chunk-data";
    case MessageKind::kChunkAck:
      return "chunk-ack";
    case MessageKind::kReplApply:
      return "repl-apply";
    case MessageKind::kHeartbeat:
      return "heartbeat";
    case MessageKind::kHeartbeatAck:
      return "heartbeat-ack";
    case MessageKind::kRebuildChunk:
      return "rebuild-chunk";
  }
  return "unknown";
}

NetworkModel::NetworkModel(Simulator* sim, NetConfig config, uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {
  kind_sends_.assign(6, 0);
}

bool NetworkModel::Isolated(NodeId n) const {
  return std::find(isolated_.begin(), isolated_.end(), n) != isolated_.end();
}

bool NetworkModel::Reachable(NodeId a, NodeId b) const {
  if (sim_->Now() >= partition_until_) return true;
  return Isolated(a) == Isolated(b);
}

SimDuration NetworkModel::DrawLatency() {
  const double excess = kMeanLatencyUs - kMinLatencyUs;
  double us = kMinLatencyUs;
  if (excess > 0) us += rng_.NextExponential(1.0 / excess);
  SimDuration latency = std::max<SimDuration>(
      1, static_cast<SimDuration>(us));
  if (sim_->Now() < delay_until_) latency += delay_extra_;
  return latency;
}

void NetworkModel::Deliver(std::function<void()> deliver) {
  const SimDuration latency = DrawLatency();
  ++in_flight_;
  sim_->Schedule(latency, [this, deliver = std::move(deliver)]() {
    --in_flight_;
    ++delivered_;
    deliver();
  });
}

void NetworkModel::Send(NodeId from, NodeId to, MessageKind kind,
                        bool reliable, std::function<void()> deliver) {
  ++sent_;
  const int64_t kind_index = kind_sends_[static_cast<size_t>(kind)]++;
  if (fault_hook_) {
    const MessageFault fault = fault_hook_(from, to, kind, kind_index);
    if (fault.kind == MessageFault::Kind::kDrop) {
      ++dropped_loss_;
      return;
    }
    if (fault.kind == MessageFault::Kind::kDuplicate) {
      ++duplicated_;
      Deliver(deliver);
      Deliver(std::move(deliver));
      return;
    }
  }
  if (!reliable) {
    if (!Reachable(from, to)) {
      ++dropped_partition_;
      return;
    }
    if (sim_->Now() < loss_until_) {
      if (rng_.NextBernoulli(drop_p_)) {
        ++dropped_loss_;
        return;
      }
      if (rng_.NextBernoulli(dup_p_)) {
        ++duplicated_;
        Deliver(deliver);
        Deliver(std::move(deliver));
        return;
      }
    }
  }
  Deliver(std::move(deliver));
}

void NetworkModel::OpenPartition(std::vector<NodeId> isolated,
                                 SimDuration window) {
  isolated_ = std::move(isolated);
  partition_until_ = sim_->Now() + window;
  ++partitions_opened_;
}

void NetworkModel::OpenLoss(double drop_p, double dup_p, SimDuration window) {
  drop_p_ = drop_p;
  dup_p_ = dup_p;
  loss_until_ = sim_->Now() + window;
}

void NetworkModel::OpenDelay(SimDuration extra, SimDuration window) {
  delay_extra_ = extra;
  delay_until_ = sim_->Now() + window;
}

}  // namespace net
}  // namespace pstore
