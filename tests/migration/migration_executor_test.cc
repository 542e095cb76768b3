#include "migration/migration_executor.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace pstore {
namespace {

using testing_util::FastMigration;
using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;

class MigrationExecutorTest : public ::testing::Test {
 protected:
  MigrationExecutorTest() : db_(MakeKvDatabase()) {}

  void BuildEngine(EngineConfig config, int64_t rows = 500) {
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

TEST_F(MigrationExecutorTest, OptionsValidation) {
  MigrationOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.chunk_kb = 0;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
  opts = MigrationOptions{};
  opts.rate_kbps = -1;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
  opts = MigrationOptions{};
  opts.db_size_mb = 0;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
}

TEST_F(MigrationExecutorTest, ScaleOutMovesDataAndBalances) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  const int64_t rows_before = engine_->TotalRowCount();

  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  EXPECT_TRUE(migrator.InProgress());
  sim_.RunAll();

  EXPECT_TRUE(completed);
  EXPECT_FALSE(migrator.InProgress());
  EXPECT_EQ(engine_->active_nodes(), 4);
  EXPECT_EQ(engine_->TotalRowCount(), rows_before);

  // Buckets spread evenly: 64 buckets over 8 partitions -> 8 each.
  const auto counts = engine_->partition_map().BucketCounts();
  for (int32_t p = 0; p < engine_->active_partitions(); ++p) {
    EXPECT_NEAR(counts[static_cast<size_t>(p)], 8, 3);
  }
  // Every row is where the map says.
  for (int64_t k = 0; k < rows_before; ++k) {
    const PartitionId p = engine_->partition_map().PartitionOfKey(k);
    EXPECT_TRUE(engine_->fragment(p)->Contains(db_.table, k));
  }
}

TEST_F(MigrationExecutorTest, ScaleInDrainsAndReleasesNodes) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 4;
  BuildEngine(config);
  MigrationExecutor migrator(engine_.get(), FastMigration());

  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(2, [&]() { completed = true; }).ok());
  sim_.RunAll();
  EXPECT_TRUE(completed);
  EXPECT_EQ(engine_->active_nodes(), 2);
  EXPECT_EQ(engine_->TotalRowCount(), 500);
  // Released nodes hold nothing.
  for (int32_t p = 4; p < 8; ++p) {
    EXPECT_EQ(engine_->fragment(p)->TotalRowCount(), 0);
  }
  // All keys still reachable.
  for (int64_t k = 0; k < 500; ++k) {
    const PartitionId p = engine_->partition_map().PartitionOfKey(k);
    EXPECT_TRUE(engine_->fragment(p)->Contains(db_.table, k));
    EXPECT_LT(p, 4);
  }
}

TEST_F(MigrationExecutorTest, RejectsConcurrentMoves) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  ASSERT_TRUE(migrator.StartMove(4, nullptr).ok());
  EXPECT_TRUE(migrator.StartMove(6, nullptr).IsFailedPrecondition());
  sim_.RunAll();
  EXPECT_TRUE(migrator.StartMove(6, nullptr).ok());
  sim_.RunAll();
  EXPECT_EQ(engine_->active_nodes(), 6);
}

TEST_F(MigrationExecutorTest, TargetOutOfRangeRejected) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  EXPECT_TRUE(migrator.StartMove(0, nullptr).IsInvalidArgument());
  EXPECT_TRUE(migrator.StartMove(100, nullptr).IsInvalidArgument());
}

TEST_F(MigrationExecutorTest, SameTargetCompletesImmediately) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(2, [&]() { completed = true; }).ok());
  sim_.RunAll();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(migrator.history().empty());
}

TEST_F(MigrationExecutorTest, DurationMatchesMoveModel) {
  // 1 -> 2 with P=2: max parallelism 2, fraction 1/2. The sustained
  // per-stream rate R gives T = (db/2) / R / 2 seconds.
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 1;
  BuildEngine(config);
  MigrationOptions opts;
  opts.chunk_kb = 64;
  opts.rate_kbps = 1000;
  opts.wire_kbps = 1e9;   // negligible burst time
  opts.db_size_mb = 100;  // 102400 kB
  MigrationExecutor migrator(engine_.get(), opts);

  ASSERT_TRUE(migrator.StartMove(2, nullptr).ok());
  sim_.RunAll();
  ASSERT_EQ(migrator.history().size(), 1u);
  const MoveRecord& record = migrator.history()[0];
  const double elapsed_s = DurationToSeconds(record.end - record.start);
  // Expected: total moved = half the DB = 51200 kB over 2 parallel
  // streams at 1000 kB/s -> ~25.6 s.
  EXPECT_NEAR(elapsed_s, 25.6, 3.0);
  EXPECT_NEAR(migrator.total_kb_moved(), 51200, 5200);
}

TEST_F(MigrationExecutorTest, RateMultiplierShortensMove) {
  auto run = [&](double multiplier) {
    Simulator sim;
    ClusterEngine engine(&sim, db_.catalog, db_.registry,
                         SmallEngineConfig());
    for (int64_t k = 0; k < 100; ++k) {
      EXPECT_TRUE(engine.LoadRow(db_.table, Row({Value(k), Value(k)})).ok());
    }
    MigrationOptions opts = FastMigration();
    opts.rate_kbps = 500;
    MigrationExecutor migrator(&engine, opts);
    EXPECT_TRUE(migrator.StartMove(4, nullptr, multiplier).ok());
    sim.RunAll();
    return migrator.history()[0].end - migrator.history()[0].start;
  };
  const SimDuration slow = run(1.0);
  const SimDuration fast = run(8.0);
  EXPECT_GT(static_cast<double>(slow) / static_cast<double>(fast), 4.0);
}

TEST_F(MigrationExecutorTest, MigrationOccupiesExecutors) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 1;
  BuildEngine(config);
  MigrationOptions opts = FastMigration();
  opts.wire_kbps = 1000;  // slow wire: long bursts
  MigrationExecutor migrator(engine_.get(), opts);
  const SimDuration busy_before = engine_->executor(0)->busy_time();
  ASSERT_TRUE(migrator.StartMove(2, nullptr).ok());
  sim_.RunAll();
  EXPECT_GT(engine_->executor(0)->busy_time(), busy_before);
  EXPECT_GT(engine_->executor(2)->busy_time(), 0);  // receiver side
}

TEST_F(MigrationExecutorTest, TransactionsKeepCommittingDuringMigration) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  ASSERT_TRUE(migrator.StartMove(4, nullptr).ok());
  // Interleave reads of existing keys with the move.
  for (int64_t i = 0; i < 200; ++i) {
    TxnRequest get;
    get.proc = db_.get;
    get.key = i % 500;
    sim_.Schedule(i * kMillisecond,
                  [this, get]() { engine_->Submit(get); });
  }
  sim_.RunAll();
  EXPECT_EQ(engine_->txns_committed(), 200);
  EXPECT_EQ(engine_->txns_aborted(), 0);
}

TEST_F(MigrationExecutorTest, HistoryRecordsSpans) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  ASSERT_TRUE(migrator.StartMove(4, nullptr).ok());
  ASSERT_EQ(migrator.history().size(), 1u);
  EXPECT_EQ(migrator.history()[0].end, -1);  // in flight
  sim_.RunAll();
  EXPECT_GT(migrator.history()[0].end, migrator.history()[0].start);
  EXPECT_EQ(migrator.history()[0].from_nodes, 2);
  EXPECT_EQ(migrator.history()[0].to_nodes, 4);
}

TEST_F(MigrationExecutorTest, RepeatedScaleOutInRoundTripPreservesData) {
  BuildEngine(SmallEngineConfig(), 300);
  MigrationExecutor migrator(engine_.get(), FastMigration());
  const std::vector<int32_t> targets = {5, 3, 8, 1, 2};
  for (int32_t target : targets) {
    ASSERT_TRUE(migrator.StartMove(target, nullptr).ok());
    sim_.RunAll();
    ASSERT_EQ(engine_->active_nodes(), target);
    ASSERT_EQ(engine_->TotalRowCount(), 300);
    for (int64_t k = 0; k < 300; ++k) {
      const PartitionId p = engine_->partition_map().PartitionOfKey(k);
      ASSERT_TRUE(engine_->fragment(p)->Contains(db_.table, k))
          << "key " << k << " lost at " << target << " nodes";
      ASSERT_LT(engine_->NodeOfPartition(p), target);
    }
  }
}

// --- Fault-handling regressions --------------------------------------

TEST_F(MigrationExecutorTest, ReceiverCrashAbortsMoveCleanly) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  // Kill a receiver node mid-move.
  sim_.Schedule(15 * kMillisecond,
                [this]() { ASSERT_TRUE(engine_->CrashNode(3).ok()); });
  sim_.RunAll();

  EXPECT_FALSE(completed);  // aborted moves never report completion
  EXPECT_FALSE(migrator.InProgress());
  EXPECT_EQ(migrator.moves_aborted(), 1);
  ASSERT_EQ(migrator.history().size(), 1u);
  EXPECT_TRUE(migrator.history()[0].aborted);
  EXPECT_GE(migrator.history()[0].end, migrator.history()[0].start);

  // No row lost; every key reachable on a live node (ownership never
  // flipped to the dead receiver, and its landed buckets failed over).
  EXPECT_EQ(engine_->TotalRowCount(), 500);
  for (int64_t k = 0; k < 500; ++k) {
    const PartitionId p = engine_->partition_map().PartitionOfKey(k);
    EXPECT_TRUE(engine_->IsNodeUp(engine_->NodeOfPartition(p)));
    EXPECT_TRUE(engine_->fragment(p)->Contains(db_.table, k));
  }
}

TEST_F(MigrationExecutorTest, ScaleInWithDownSurvivorRejected) {
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 4;
  BuildEngine(config);
  MigrationExecutor migrator(engine_.get(), FastMigration());
  ASSERT_TRUE(engine_->CrashNode(1).ok());
  EXPECT_TRUE(migrator.StartMove(2, nullptr).IsFailedPrecondition());
  EXPECT_FALSE(migrator.InProgress());
}

TEST_F(MigrationExecutorTest, StalledStreamTimesOutAndRetries) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  // Stall only the very first chunk attempt, far past the timeout.
  int32_t consults = 0;
  migrator.set_chunk_fault_hook(
      [&](PartitionId, PartitionId, SimTime) {
        ChunkFault fault;
        if (consults++ == 0) {
          fault.kind = ChunkFault::Kind::kStall;
          fault.stall = 10 * kSecond;
        }
        return fault;
      });
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunAll();

  EXPECT_TRUE(completed);
  EXPECT_GE(migrator.chunk_retries(), 1);  // the timeout fired
  EXPECT_EQ(migrator.moves_aborted(), 0);
  EXPECT_EQ(engine_->active_nodes(), 4);
  EXPECT_EQ(engine_->TotalRowCount(), 500);
}

TEST_F(MigrationExecutorTest, FailedChunkRetriesWithBackoff) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  // Fail the first two attempts on one stream; record consult times.
  std::vector<SimTime> attempts;
  migrator.set_chunk_fault_hook(
      [&](PartitionId, PartitionId dst, SimTime now) {
        ChunkFault fault;
        if (dst == 4 && attempts.size() < 3) {
          attempts.push_back(now);
          if (attempts.size() <= 2) fault.kind = ChunkFault::Kind::kFail;
        }
        return fault;
      });
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunAll();

  EXPECT_TRUE(completed);
  EXPECT_GE(migrator.chunk_retries(), 2);
  ASSERT_EQ(attempts.size(), 3u);
  // Exponential backoff: second attempt >= 50 ms after the first, third
  // >= 100 ms after the second.
  EXPECT_GE(attempts[1] - attempts[0], 50 * kMillisecond);
  EXPECT_GE(attempts[2] - attempts[1], 100 * kMillisecond);
}

TEST_F(MigrationExecutorTest, RetryBudgetExhaustedAborts) {
  BuildEngine(SmallEngineConfig());
  MigrationExecutor migrator(engine_.get(), FastMigration());
  // Every chunk attempt fails: the budget of kMaxChunkRetries retries
  // must run out and the move must abort without flipping any ownership.
  migrator.set_chunk_fault_hook([](PartitionId, PartitionId, SimTime) {
    ChunkFault fault;
    fault.kind = ChunkFault::Kind::kFail;
    return fault;
  });
  const PartitionMap map_before = engine_->partition_map();
  bool completed = false;
  ASSERT_TRUE(migrator.StartMove(4, [&]() { completed = true; }).ok());
  sim_.RunAll();

  EXPECT_FALSE(completed);
  EXPECT_FALSE(migrator.InProgress());
  EXPECT_EQ(migrator.moves_aborted(), 1);
  EXPECT_GE(migrator.chunk_retries(), kMaxChunkRetries);
  EXPECT_TRUE(migrator.history()[0].aborted);
  EXPECT_DOUBLE_EQ(migrator.total_kb_moved(), 0.0);
  // Ownership is exactly what it was before the move.
  for (BucketId b = 0; b < 64; ++b) {
    EXPECT_EQ(engine_->partition_map().PartitionOfBucket(b),
              map_before.PartitionOfBucket(b));
  }
  EXPECT_EQ(engine_->TotalRowCount(), 500);
}

TEST_F(MigrationExecutorTest, DeterministicMoveRecordLogs) {
  // Two identical runs (same seed-free deterministic fault pattern) must
  // produce identical MoveRecord logs and event counts.
  auto run = [&](std::vector<MoveRecord>* history, double* kb,
                 int64_t* retries, int64_t* events) {
    Simulator sim;
    ClusterEngine engine(&sim, db_.catalog, db_.registry,
                         SmallEngineConfig());
    for (int64_t k = 0; k < 300; ++k) {
      ASSERT_TRUE(engine.LoadRow(db_.table, Row({Value(k), Value(k)})).ok());
    }
    MigrationExecutor migrator(&engine, FastMigration());
    int32_t consults = 0;
    migrator.set_chunk_fault_hook(
        [&consults](PartitionId, PartitionId, SimTime) {
          ChunkFault fault;
          if (consults++ % 5 == 0) fault.kind = ChunkFault::Kind::kFail;
          return fault;
        });
    ASSERT_TRUE(migrator.StartMove(4, nullptr).ok());
    sim.RunAll();
    ASSERT_TRUE(migrator.StartMove(2, nullptr).ok());
    sim.RunAll();
    *history = migrator.history();
    *kb = migrator.total_kb_moved();
    *retries = migrator.chunk_retries();
    *events = sim.events_executed();
  };
  std::vector<MoveRecord> h1, h2;
  double kb1 = 0, kb2 = 0;
  int64_t r1 = 0, r2 = 0, e1 = 0, e2 = 0;
  run(&h1, &kb1, &r1, &e1);
  run(&h2, &kb2, &r2, &e2);
  EXPECT_EQ(h1, h2);
  EXPECT_DOUBLE_EQ(kb1, kb2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(e1, e2);
  EXPECT_GT(r1, 0);  // the fault pattern actually fired
  ASSERT_EQ(h1.size(), 2u);
  EXPECT_FALSE(h1[0].aborted);
  EXPECT_FALSE(h1[1].aborted);
}

}  // namespace
}  // namespace pstore
