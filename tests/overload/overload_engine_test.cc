#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.h"
#include "sim/simulator.h"
#include "storage/schema.h"
#include "txn/procedure.h"

/// End-to-end overload control through ClusterEngine: bounded queues,
/// admission decisions, deadline shedding, priority eviction, shed
/// results surfaced to on_done, and txn conservation.

namespace pstore {
namespace {

struct Harness {
  Catalog catalog;
  ProcedureRegistry registry;
  TableId table = -1;
  ProcedureId get = -1;
  Simulator sim;
  std::unique_ptr<ClusterEngine> engine;

  explicit Harness(const overload::OverloadConfig& overload) {
    table = *catalog.AddTable(Schema(
        "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
    const TableId t = table;
    get = *registry.Register(ProcedureDef{
        "Get",
        [t](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          auto row = ctx.Get(t, req.key);
          if (!row.ok()) {
            r.status = row.status();
          } else {
            r.rows.push_back(std::move(row).MoveValueUnsafe());
          }
          return r;
        },
        1.0});
    EngineConfig config;
    config.num_buckets = 16;
    config.partitions_per_node = 2;
    config.max_nodes = 1;
    config.initial_nodes = 1;
    config.txn_service_us_mean = 1000.0;
    config.txn_service_cv = 0.0;  // deterministic 1 ms service
    config.overload = overload;
    engine = std::make_unique<ClusterEngine>(&sim, catalog, registry,
                                             config);
    for (int64_t k = 0; k < 16; ++k) {
      EXPECT_TRUE(
          engine->LoadRow(table, Row({Value(k), Value(k)})).ok());
    }
  }

  TxnRequest Req(int64_t key, int8_t priority = -1) {
    TxnRequest req;
    req.proc = get;
    req.key = key;
    req.priority = priority;
    return req;
  }
};

overload::OverloadConfig Limits(int32_t depth, SimDuration deadline = 0) {
  overload::OverloadConfig config;
  config.enabled = true;
  config.max_queue_depth = depth;
  config.queue_deadline = deadline;
  // Keep the breaker out of these tests: each exercises one mechanism.
  config.breaker.min_samples = 1 << 30;
  return config;
}

TEST(OverloadEngineTest, DisabledConfigHasNoAdmissionController) {
  Harness h{overload::OverloadConfig{}};
  EXPECT_EQ(h.engine->admission(), nullptr);
  for (int i = 0; i < 20; ++i) h.engine->Submit(h.Req(0));
  h.sim.RunAll();
  EXPECT_EQ(h.engine->txns_committed(), 20);
  EXPECT_EQ(h.engine->txns_shed(), 0);
  EXPECT_EQ(h.engine->txns_in_flight(), 0);
}

TEST(OverloadEngineTest, QueueFullShedsWithRejectNew) {
  // Equal-priority arrivals find no lower-priority victim, so each new
  // arrival at a full queue is rejected.
  Harness h{Limits(4)};
  ASSERT_NE(h.engine->admission(), nullptr);
  int shed_results = 0;
  Status last_shed_status;
  for (int i = 0; i < 20; ++i) {
    h.engine->Submit(h.Req(0), [&](const TxnResult& result) {
      if (result.shed) {
        ++shed_results;
        last_shed_status = result.status;
      }
    });
  }
  // One in service + 4 queued survive; 15 are rejected synchronously.
  EXPECT_EQ(h.engine->txns_shed(), 15);
  EXPECT_EQ(h.engine->txns_in_flight(), 5);
  h.sim.RunAll();
  EXPECT_EQ(h.engine->txns_committed(), 5);
  EXPECT_EQ(shed_results, 15);
  EXPECT_TRUE(last_shed_status.IsUnavailable());
  // Conservation: submitted = committed + aborted + shed + in flight.
  EXPECT_EQ(h.engine->txns_submitted(),
            h.engine->txns_committed() + h.engine->txns_aborted() +
                h.engine->txns_shed() + h.engine->txns_in_flight());
}

TEST(OverloadEngineTest, DeadlineShedsStaleQueuedWork) {
  Harness h{Limits(64, /*deadline=*/2000)};
  for (int i = 0; i < 5; ++i) h.engine->Submit(h.Req(0));
  h.sim.RunAll();
  // Service starts at 0/1000/2000/3000/4000; deadline is arrival+2000.
  // The starts at 3000 and 4000 are past it and shed at dequeue.
  EXPECT_EQ(h.engine->txns_committed(), 3);
  EXPECT_EQ(h.engine->txns_shed(), 2);
  EXPECT_EQ(h.engine->txns_in_flight(), 0);
}

TEST(OverloadEngineTest, CriticalArrivalEvictsQueuedBackground) {
  Harness h{Limits(2)};
  int shed = 0;
  for (int i = 0; i < 3; ++i) {
    h.engine->Submit(h.Req(0), [&](const TxnResult& result) {
      if (result.shed) ++shed;
    });
  }
  EXPECT_EQ(h.engine->txns_shed(), 0);  // exactly at the limit
  bool critical_committed = false;
  h.engine->Submit(h.Req(0, kPriorityCritical),
                   [&](const TxnResult& result) {
                     critical_committed = result.status.ok();
                   });
  // The newest queued normal made way for the checkout-priority txn.
  EXPECT_EQ(h.engine->txns_shed(), 1);
  EXPECT_EQ(h.engine->admission()->evictions(), 1);
  EXPECT_EQ(shed, 1);
  h.sim.RunAll();
  EXPECT_TRUE(critical_committed);
  EXPECT_EQ(h.engine->txns_committed(), 3);
}

TEST(OverloadEngineTest, SustainedShedTripsNodeBreaker) {
  overload::OverloadConfig config = Limits(2);
  config.breaker.shed_threshold = 0.3;
  config.breaker.min_samples = 10;
  config.breaker.cooldown = 5 * kSecond;
  Harness h{config};
  // 2x capacity for 3 virtual seconds: shed rate ~0.5 per window.
  for (int i = 0; i < 6000; ++i) {
    h.sim.ScheduleAt(static_cast<SimTime>(i) * 500,
                     [&h]() { h.engine->Submit(h.Req(0)); });
  }
  h.sim.RunAll();
  EXPECT_GE(h.engine->admission()->total_trips(), 1);
  EXPECT_GT(h.engine->txns_shed(), 0);
  EXPECT_EQ(h.engine->txns_submitted(),
            h.engine->txns_committed() + h.engine->txns_aborted() +
                h.engine->txns_shed() + h.engine->txns_in_flight());
}

TEST(OverloadEngineTest, BoundedDepthNeverExceeded) {
  Harness h{Limits(4)};
  // Mixed priorities, so full queues both evict and reject.
  for (int i = 0; i < 200; ++i) {
    h.sim.ScheduleAt(static_cast<SimTime>(i) * 100, [&h, i]() {
      h.engine->Submit(h.Req(i % 16, static_cast<int8_t>(i % 3)));
    });
  }
  h.sim.RunAll();
  for (PartitionId p = 0; p < h.engine->total_partitions(); ++p) {
    EXPECT_LE(h.engine->executor(p)->max_queue_depth(), 4u);
  }
  EXPECT_GT(h.engine->admission()->evictions(), 0);
}

}  // namespace
}  // namespace pstore
