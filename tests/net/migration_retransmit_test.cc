#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "../test_util.h"
#include "migration/migration_executor.h"
#include "net/network_model.h"

/// The stop-and-wait chunk protocol under targeted message faults: a
/// duplicated DATA message must apply once, a lost DATA message must be
/// retransmitted with the same sequence number, and a lost ACK must
/// trigger a retransmission the receiver suppresses and re-acks — never
/// a second application. Each scenario is driven by the NetworkModel's
/// deterministic per-message fault hook, so there is no probability
/// involved: the exact message named by its per-kind send index fails.

namespace pstore {
namespace {

using testing_util::FastMigration;
using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

class MigrationRetransmitTest : public ::testing::Test {
 protected:
  MigrationRetransmitTest() : db_(MakeKvDatabase()) {}

  void BuildEngine(int64_t rows = 500, bool overload = false) {
    EngineConfig config = WithReplication(SmallEngineConfig());
    if (overload) {
      config.overload.enabled = true;
      config.overload.max_queue_depth = 4;
    }
    config.net.enabled = true;
    engine_ = std::make_unique<ClusterEngine>(&sim_, db_.catalog,
                                              db_.registry, config);
    for (int64_t k = 0; k < rows; ++k) {
      ASSERT_TRUE(
          engine_->LoadRow(db_.table, Row({Value(k), Value(k)})).ok());
    }
  }

  Simulator sim_;
  testing_util::KvDatabase db_;
  std::unique_ptr<ClusterEngine> engine_;
};

TEST_F(MigrationRetransmitTest, CleanMoveCompletesOverTheSubstrate) {
  BuildEngine();
  MigrationExecutor migrator(engine_.get(), FastMigration());
  const int64_t rows_before = engine_->TotalRowCount();
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  // Heartbeat loops run forever, so bound the run instead of RunAll().
  sim_.RunUntil(60 * kSecond);
  EXPECT_TRUE(completed);
  EXPECT_EQ(engine_->active_nodes(), 4);
  EXPECT_EQ(engine_->TotalRowCount(), rows_before);
  EXPECT_GT(engine_->net()->messages_sent(), 0);
  EXPECT_EQ(migrator.net_retransmits(), 0);
  EXPECT_EQ(migrator.net_double_applies(), 0);
}

TEST_F(MigrationRetransmitTest, DuplicatedChunkDataAppliesOnce) {
  BuildEngine();
  MigrationExecutor migrator(engine_.get(), FastMigration());
  const int64_t rows_before = engine_->TotalRowCount();
  engine_->net()->set_message_fault_hook(
      [](net::NodeId, net::NodeId, net::MessageKind kind,
         int64_t kind_index) {
        net::MessageFault fault;
        // Double every third DATA message of the move.
        if (kind == net::MessageKind::kChunkData && kind_index % 3 == 0) {
          fault.kind = net::MessageFault::Kind::kDuplicate;
        }
        return fault;
      });
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunUntil(60 * kSecond);
  EXPECT_TRUE(completed);
  EXPECT_GT(migrator.net_duplicate_data(), 0);
  EXPECT_EQ(migrator.net_double_applies(), 0);
  EXPECT_EQ(engine_->TotalRowCount(), rows_before);
}

TEST_F(MigrationRetransmitTest, LostChunkDataIsRetransmitted) {
  BuildEngine();
  MigrationExecutor migrator(engine_.get(), FastMigration());
  const int64_t rows_before = engine_->TotalRowCount();
  engine_->net()->set_message_fault_hook(
      [](net::NodeId, net::NodeId, net::MessageKind kind,
         int64_t kind_index) {
        net::MessageFault fault;
        // Swallow the first two DATA sends; retransmissions get through
        // (they re-enter Send with fresh kind indices).
        if (kind == net::MessageKind::kChunkData && kind_index < 2) {
          fault.kind = net::MessageFault::Kind::kDrop;
        }
        return fault;
      });
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunUntil(120 * kSecond);
  EXPECT_TRUE(completed);
  EXPECT_GE(migrator.net_retransmits(), 2);
  EXPECT_EQ(migrator.net_double_applies(), 0);
  EXPECT_EQ(engine_->TotalRowCount(), rows_before);
}

TEST_F(MigrationRetransmitTest, LostAckTriggersRetransmitNotDoubleApply) {
  BuildEngine();
  MigrationExecutor migrator(engine_.get(), FastMigration());
  const int64_t rows_before = engine_->TotalRowCount();
  engine_->net()->set_message_fault_hook(
      [](net::NodeId, net::NodeId, net::MessageKind kind,
         int64_t kind_index) {
        net::MessageFault fault;
        // The chunk applies, but its ACK dies: the sender must time out
        // and retransmit, and the receiver must suppress the duplicate
        // and re-ack instead of applying again.
        if (kind == net::MessageKind::kChunkAck && kind_index < 2) {
          fault.kind = net::MessageFault::Kind::kDrop;
        }
        return fault;
      });
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunUntil(120 * kSecond);
  EXPECT_TRUE(completed);
  EXPECT_GE(migrator.net_retransmits(), 2);
  EXPECT_GT(migrator.net_duplicate_data(), 0);  // suppressed + re-acked
  EXPECT_EQ(migrator.net_double_applies(), 0);
  EXPECT_EQ(engine_->TotalRowCount(), rows_before);
}

// With overload and net both on, a chunk that passed its gate can find
// its destination's queue full when the DATA arrives. The receiver's
// deserialization burst is then refused like a lost message instead of
// queueing past the bound, and the retransmission lands once the queue
// drains.
TEST_F(MigrationRetransmitTest, FullDestinationQueueLosesTheChunkNotTheBound) {
  BuildEngine(/*rows=*/500, /*overload=*/true);
  MigrationExecutor migrator(engine_.get(), FastMigration());
  const int64_t rows_before = engine_->TotalRowCount();
  const int32_t ppn = engine_->config().partitions_per_node;
  ClusterEngine* engine = engine_.get();
  engine_->net()->set_message_fault_hook(
      [engine, ppn](net::NodeId, net::NodeId dst, net::MessageKind kind,
                    int64_t kind_index) {
        // As the first DATA leaves, fill its destination node's queues
        // to their limit with 2 ms items (one in service, four waiting):
        // full when the DATA lands, drained well inside the retry budget
        // (five retransmit timeouts of 5.6 ms).
        if (kind == net::MessageKind::kChunkData && kind_index == 0) {
          for (PartitionId q = dst * ppn; q < (dst + 1) * ppn; ++q) {
            while (!engine->executor(q)->AtLimit()) {
              engine->executor(q)->Enqueue(2 * kMillisecond,
                                           [](SimTime, SimTime) {});
            }
          }
        }
        return net::MessageFault{};
      });
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunUntil(60 * kSecond);
  EXPECT_TRUE(completed);
  EXPECT_GE(migrator.net_retransmits(), 1);
  EXPECT_EQ(migrator.net_double_applies(), 0);
  EXPECT_EQ(engine_->TotalRowCount(), rows_before);
  for (PartitionId q = 0; q < engine_->config().max_nodes * ppn; ++q) {
    EXPECT_LE(engine_->executor(q)->max_queue_depth(),
              engine_->executor(q)->queue_limit())
        << "partition " << q << " was enqueued past its bound";
  }
}

TEST(MigrationRetransmitReplayTest, SameSeedSameRetransmissionSchedule) {
  auto run = []() {
    auto db = MakeKvDatabase();
    Simulator sim;
    EngineConfig config = WithReplication(SmallEngineConfig());
    config.net.enabled = true;
    ClusterEngine engine(&sim, db.catalog, db.registry, config);
    for (int64_t k = 0; k < 500; ++k) {
      EXPECT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
    }
    MigrationExecutor migrator(&engine, FastMigration());
    engine.net()->set_message_fault_hook(
        [](net::NodeId, net::NodeId, net::MessageKind kind,
           int64_t kind_index) {
          net::MessageFault fault;
          if (kind == net::MessageKind::kChunkData && kind_index % 5 == 1) {
            fault.kind = net::MessageFault::Kind::kDrop;
          }
          return fault;
        });
    bool completed = false;
    EXPECT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
    sim.RunUntil(120 * kSecond);
    EXPECT_TRUE(completed);
    return std::make_tuple(migrator.net_retransmits(),
                           engine.net()->messages_sent(),
                           engine.net()->rng_state_hash(),
                           sim.events_executed());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pstore
