#include "cluster/chunk_transfer.h"

#include <algorithm>

#include "cluster/engine.h"

namespace pstore {

ChunkTiming ChunkTiming::Rounded(double kb, double wire_kbps,
                                 double rate_kbps) {
  return {SecondsToDuration(kb / wire_kbps), SecondsToDuration(kb / rate_kbps)};
}

ChunkTiming ChunkTiming::Truncated(double kb, double wire_kbps,
                                   double rate_kbps) {
  return {std::max<SimDuration>(1, static_cast<SimDuration>(kb / wire_kbps *
                                                            1e6)),
          std::max<SimDuration>(1, static_cast<SimDuration>(kb / rate_kbps *
                                                            1e6))};
}

const char* Describe(ChunkGate gate) {
  static const char* const kWhy[] = {"open", "endpoint node is down",
                                     "partition queue at limit",
                                     "link partitioned"};
  return kWhy[static_cast<int>(gate)];
}

bool ChunkTransfer::EndpointsUp(PartitionId src, PartitionId dst) const {
  return engine_->IsNodeUp(engine_->NodeOfPartition(src)) &&
         engine_->IsNodeUp(engine_->NodeOfPartition(dst));
}

ChunkGate ChunkTransfer::Check(PartitionId src, PartitionId dst) const {
  if (!EndpointsUp(src, dst)) return ChunkGate::kEndpointDown;
  if (bounded() && (executor(src)->AtLimit() || executor(dst)->AtLimit())) {
    return ChunkGate::kQueueFull;
  }
  const net::NetworkModel* net = engine_->net();
  if (net != nullptr && !net->Reachable(engine_->NodeOfPartition(src),
                                        engine_->NodeOfPartition(dst))) {
    return ChunkGate::kUnreachable;
  }
  return ChunkGate::kOpen;
}

void ChunkTransfer::Pipeline(const std::shared_ptr<PipelinedStream>& stream,
                             int32_t chunk) const {
  const ChunkGuard guard(*stream->epoch, &stream->gen);
  AtGate(sim()->Now() + stream->timing.period, guard, [=, this]() {
    const PartitionId src =
        engine_->partition_map().PartitionOfBucket(stream->bucket);
    const PartitionId dst = stream->dst;
    if (Check(src, dst) != ChunkGate::kOpen) {
      Pipeline(stream, chunk);
      return;
    }
    stream->on_sent();
    const bool last = chunk + 1 >= stream->chunks;
    auto land = [=, this]() {
      Burst(
          src, dst, stream->timing.busy, guard, [](SimTime, SimTime) {},
          [stream, guard, last](SimTime, SimTime) {
            if (last && guard.live()) stream->on_landed();
          },
          [this, stream, chunk](const char*) {
            ++stream->gen;
            Pipeline(stream, chunk);
          });
    };
    if (net::NetworkModel* net = engine_->net()) {
      net->Send(engine_->NodeOfPartition(src), engine_->NodeOfPartition(dst),
                net::MessageKind::kRebuildChunk, /*reliable=*/true,
                std::move(land));
    } else {
      land();
    }
    if (!last) Pipeline(stream, chunk + 1);
  });
}

Simulator* ChunkTransfer::sim() const { return engine_->simulator(); }

PartitionExecutor* ChunkTransfer::executor(PartitionId p) const {
  return engine_->executor(p);
}

bool ChunkTransfer::bounded() const {
  return engine_->config().overload.enabled;
}

PartitionExecutor::WorkItem ChunkTransfer::Background(
    SimDuration busy, PartitionExecutor::Completion done,
    PartitionExecutor::ShedFn on_shed) {
  PartitionExecutor::WorkItem item;
  item.service = busy;
  item.done = std::move(done);
  item.priority = kPriorityBackground;
  item.on_shed = std::move(on_shed);
  return item;
}

}  // namespace pstore
