#include "net/network_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/channel.h"
#include "net/net_config.h"
#include "sim/simulator.h"

/// Unit tests for the simulated message substrate: latency bounds and
/// reordering, partition cuts, loss/duplication/delay windows, the
/// deterministic test fault hook, reliable-tier semantics, the message
/// conservation ledger, and same-seed determinism.

namespace pstore {
namespace net {
namespace {

NetConfig TestConfig() {
  NetConfig config;
  config.enabled = true;
  return config;
}

TEST(NetConfigTest, ValidateEnforcesTimerChain) {
  NetConfig config = TestConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.suspicion_timeout = kHeartbeatPeriod;  // not strictly >
  EXPECT_FALSE(config.Validate().ok());
  config = TestConfig();
  config.lease_timeout = config.failover_timeout + kSecond;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(NetworkModelTest, LatencyRespectsMinimumAndVaries) {
  Simulator sim;
  NetworkModel net(&sim, TestConfig(), 7);
  std::vector<SimDuration> latencies;
  for (int i = 0; i < 200; ++i) latencies.push_back(net.DrawLatency());
  bool varied = false;
  for (SimDuration l : latencies) {
    EXPECT_GE(l, static_cast<SimDuration>(kMinLatencyUs));
    if (l != latencies[0]) varied = true;
  }
  EXPECT_TRUE(varied) << "exponential excess should vary per message";
}

TEST(NetworkModelTest, DeliversWithLatencyAndCounts) {
  Simulator sim;
  NetworkModel net(&sim, TestConfig(), 7);
  int delivered = 0;
  SimTime at = -1;
  net.Send(0, 1, MessageKind::kHeartbeat, false, [&]() {
    ++delivered;
    at = sim.Now();
  });
  EXPECT_EQ(net.messages_in_flight(), 1);
  sim.RunUntil(kSecond);
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(at, static_cast<SimTime>(kMinLatencyUs));
  EXPECT_EQ(net.messages_sent(), 1);
  EXPECT_EQ(net.messages_delivered(), 1);
  EXPECT_EQ(net.messages_in_flight(), 0);
}

TEST(NetworkModelTest, PartitionDropsCrossCutTrafficThenHeals) {
  Simulator sim;
  NetworkModel net(&sim, TestConfig(), 7);
  net.OpenPartition({2}, kSecond);
  EXPECT_TRUE(net.PartitionActive());
  EXPECT_FALSE(net.Reachable(0, 2));
  EXPECT_FALSE(net.Reachable(2, NetworkModel::kController));
  EXPECT_TRUE(net.Reachable(0, 1));  // same side of the cut
  EXPECT_TRUE(net.Reachable(2, 2));  // loopback never cut

  int delivered = 0;
  net.Send(0, 2, MessageKind::kHeartbeat, false, [&]() { ++delivered; });
  net.Send(0, 1, MessageKind::kHeartbeat, false, [&]() { ++delivered; });
  sim.RunUntil(kSecond + kMillisecond);
  EXPECT_EQ(delivered, 1);  // only the same-side message landed
  EXPECT_EQ(net.messages_dropped_partition(), 1);

  // The window expired: the cut is healed without any explicit action.
  EXPECT_FALSE(net.PartitionActive());
  EXPECT_TRUE(net.Reachable(0, 2));
  net.Send(0, 2, MessageKind::kHeartbeat, false, [&]() { ++delivered; });
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(delivered, 2);
}

TEST(NetworkModelTest, ReliableTierIgnoresPartitionAndLoss) {
  Simulator sim;
  NetworkModel net(&sim, TestConfig(), 7);
  net.OpenPartition({1}, kSecond);
  net.OpenLoss(1.0, 0.0, kSecond);  // drop every best-effort message
  int delivered = 0;
  net.Send(0, 1, MessageKind::kReplApply, true, [&]() { ++delivered; });
  net.Send(0, 1, MessageKind::kHeartbeat, false, [&]() { ++delivered; });
  sim.RunUntil(kSecond);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.messages_dropped_partition(), 1);
}

TEST(NetworkModelTest, LossWindowDropsAndDuplicates) {
  Simulator sim;
  NetworkModel net(&sim, TestConfig(), 7);
  net.OpenLoss(0.5, 0.3, 10 * kSecond);
  int delivered = 0;
  const int kSends = 400;
  for (int i = 0; i < kSends; ++i) {
    net.Send(0, 1, MessageKind::kChunkData, false, [&]() { ++delivered; });
  }
  sim.RunUntil(20 * kSecond);
  EXPECT_GT(net.messages_dropped_loss(), 0);
  EXPECT_GT(net.messages_duplicated(), 0);
  EXPECT_EQ(delivered,
            kSends - net.messages_dropped_loss() + net.messages_duplicated());
  // Conservation ledger: everything sent is accounted exactly once.
  EXPECT_EQ(net.messages_delivered() + net.messages_dropped_partition() +
                net.messages_dropped_loss() + net.messages_in_flight(),
            net.messages_sent() + net.messages_duplicated());
}

TEST(NetworkModelTest, DelayWindowStretchesLatency) {
  Simulator sim;
  NetworkModel net(&sim, TestConfig(), 7);
  const SimDuration extra = 50 * kMillisecond;
  net.OpenDelay(extra, kSecond);
  SimTime at = -1;
  net.Send(0, 1, MessageKind::kHeartbeat, false, [&](){ at = sim.Now(); });
  sim.RunUntil(kSecond);
  EXPECT_GE(at, extra);
}

TEST(NetworkModelTest, FaultHookDropsAndDuplicatesByKindIndex) {
  Simulator sim;
  NetworkModel net(&sim, TestConfig(), 7);
  net.set_message_fault_hook([](NodeId, NodeId, MessageKind kind,
                                int64_t kind_index) {
    MessageFault fault;
    if (kind != MessageKind::kChunkData) return fault;
    if (kind_index == 0) fault.kind = MessageFault::Kind::kDrop;
    if (kind_index == 1) fault.kind = MessageFault::Kind::kDuplicate;
    return fault;
  });
  int data = 0, acks = 0;
  for (int i = 0; i < 3; ++i) {
    net.Send(0, 1, MessageKind::kChunkData, false, [&]() { ++data; });
    net.Send(1, 0, MessageKind::kChunkAck, false, [&]() { ++acks; });
  }
  sim.RunUntil(kSecond);
  EXPECT_EQ(data, 3);  // send 0 dropped, send 1 doubled, send 2 plain
  EXPECT_EQ(acks, 3);  // the hook keyed on kind: acks untouched
  EXPECT_EQ(net.messages_dropped_loss(), 1);
  EXPECT_EQ(net.messages_duplicated(), 1);
}

TEST(NetworkModelTest, SameSeedIsByteIdentical) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    NetworkModel net(&sim, TestConfig(), seed);
    net.OpenLoss(0.3, 0.2, 5 * kSecond);
    std::vector<SimTime> deliveries;
    for (int i = 0; i < 100; ++i) {
      net.Send(0, 1, MessageKind::kChunkData, false,
               [&]() { deliveries.push_back(sim.Now()); });
    }
    sim.RunUntil(10 * kSecond);
    return std::make_pair(deliveries, net.rng_state_hash());
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first, c.first);
}

TEST(ChannelTest, SequenceDedupAndAckWatermarks) {
  Channel ch;
  const int64_t s1 = ch.NextSeq();
  const int64_t s2 = ch.NextSeq();
  EXPECT_EQ(s1, 1);
  EXPECT_EQ(s2, 2);
  EXPECT_TRUE(ch.Accept(s1));
  EXPECT_FALSE(ch.Accept(s1));  // retransmit of an applied seq
  EXPECT_EQ(ch.duplicates_suppressed(), 1);
  EXPECT_TRUE(ch.Accept(s2));
  EXPECT_TRUE(ch.AckReceived(s1));
  EXPECT_FALSE(ch.AckReceived(s1));  // duplicate ack
  EXPECT_EQ(ch.duplicate_acks(), 1);
  EXPECT_TRUE(ch.AckReceived(s2));
}

}  // namespace
}  // namespace net
}  // namespace pstore
