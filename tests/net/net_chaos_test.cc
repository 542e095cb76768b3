#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../test_util.h"
#include "fault/fault_injector.h"

/// Chaos property tests for the network substrate (scenario row
/// "net_sweep"): random partition / loss / delay plans (with crashes
/// mixed in) against a k=1 cluster running a write workload while a
/// scale-out migrates buckets through the fault windows. Every seed must
/// keep every invariant — no dual-commit (split-brain), no
/// double-applied chunk, conserved rows and messages, row-set equality
/// after heal. A final set of tests pins the opt-in contract: with
/// net.enabled=false no NetworkModel exists, net faults draw nothing
/// from any Rng stream, and runs are byte-identical across arbitrary
/// (disabled) NetConfig values.

namespace pstore {
namespace {

using testing_util::ExpectNoViolations;
using testing_util::FastMigration;
using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

/// 3 nodes, k=1, net enabled, mixed Put/Get load, a 2 s scale-out
/// racing the fault plan (partition-during-migration), and a net-heavy
/// random plan.
scenario::ScenarioResult RunNetChaos(uint64_t seed) {
  return testing_util::RunRow("net_sweep", seed);
}

// The 50-seed sweep is sharded 5 seeds per ctest unit so `ctest -j`
// runs shards concurrently (and a failure names a 5-seed range, not a
// 50-seed monolith). The shard parameter is the first seed.
constexpr uint64_t kSeedsPerShard = 5;

class NetSeedShard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetSeedShard, NoSplitBrainNoDoubleApply) {
  const uint64_t first = GetParam();
  for (uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const scenario::ScenarioResult out = RunNetChaos(seed);
    ExpectNoViolations(seed, out);
    // The two split-brain tripwires, per seed, unconditionally.
    EXPECT_EQ(out.counter("fenced_commits"), 0) << "seed " << seed;
    EXPECT_EQ(out.counter("net_double_applies"), 0) << "seed " << seed;
    // Row conservation after heal: crash losses are accounted, and the
    // write workload may legally re-create lost keys via upsert.
    EXPECT_EQ(out.counter("rows_at_end"),
              200 - out.counter("rows_lost") +
                  out.counter("rows_net_created"))
        << "seed " << seed;
    EXPECT_GT(out.counter("committed"), 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, NetSeedShard,
                         ::testing::Range(uint64_t{1}, uint64_t{51},
                                          kSeedsPerShard));

TEST(NetChaosTest, SweepExercisesNetworkMachinery) {
  // Scaled-down aggregate over the first ten seeds: partitions open,
  // messages drop, nodes get suspected and fenced, failovers run, the
  // commit gate rejects, and the chunk protocol retransmits. (The
  // per-seed invariants live in the shards.)
  int64_t total_partitions = 0, total_losses = 0, total_delays = 0;
  int64_t total_suspicions = 0, total_failovers = 0, total_rejections = 0;
  int64_t total_retransmits = 0, total_dropped = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const scenario::ScenarioResult out = RunNetChaos(seed);
    total_partitions += out.counter("net_partitions");
    total_losses += out.counter("net_losses");
    total_delays += out.counter("net_delays");
    total_suspicions += out.counter("suspicions");
    total_failovers += out.counter("fenced_failovers");
    total_rejections += out.counter("fenced_rejections");
    total_retransmits += out.counter("net_retransmits");
    total_dropped += out.counter("msgs_dropped");
  }
  EXPECT_GT(total_partitions, 6);
  EXPECT_GT(total_losses, 4);
  EXPECT_GT(total_delays, 3);
  EXPECT_GT(total_suspicions, 6);
  EXPECT_GT(total_failovers, 2);
  EXPECT_GT(total_rejections, 10);
  EXPECT_GT(total_retransmits, 2);
  EXPECT_GT(total_dropped, 200);
}

// ---- The opt-in contract (Rng stream audit regressions) -------------

/// A baseline (net-off) run, parameterized by a NetConfig whose
/// `enabled` stays false: every field of the disabled config must be
/// inert, or toggling unrelated knobs would perturb golden traces.
std::pair<int64_t, int64_t> RunBaseline(net::NetConfig net) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = WithReplication(SmallEngineConfig());
  config.initial_nodes = 3;
  config.net = net;
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  EXPECT_EQ(engine.net(), nullptr);
  const int64_t rows = 100;
  for (int64_t k = 0; k < rows; ++k) {
    EXPECT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  MigrationExecutor migrator(&engine, FastMigration());
  (void)migrator.StartMove(5, nullptr);
  for (int64_t i = 0; i < 200; ++i) {
    TxnRequest req;
    req.key = i % rows;
    req.proc = i % 4 == 0 ? db.put : db.get;
    if (i % 4 == 0) req.args.push_back(Value(i));
    sim.ScheduleAt(i * 10 * kMillisecond,
                   [&engine, req]() { engine.Submit(req); });
  }
  sim.RunUntil(30 * kSecond);
  return {sim.events_executed(), engine.txns_committed()};
}

TEST(NetOffIdentityTest, DisabledNetConfigKnobsAreInert) {
  const auto base = RunBaseline(net::NetConfig{});
  net::NetConfig wild;
  wild.enabled = false;  // still off — but every other knob extreme
  wild.suspicion_timeout = 2 * kMillisecond;
  wild.lease_timeout = 3 * kMillisecond;
  wild.failover_timeout = 4 * kMillisecond;
  EXPECT_EQ(base, RunBaseline(wild));
  EXPECT_GT(base.second, 0);
}

TEST(NetOffIdentityTest, NetFaultEventsDrawNothingWhenSubstrateOff) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = SmallEngineConfig();
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  MigrationExecutor migrator(&engine, FastMigration());

  const uint64_t seed = 77;
  FaultPlan plan;
  for (int i = 0; i < 3; ++i) {
    FaultEvent e;
    e.at = (i + 1) * kSecond;
    e.type = i == 0 ? FaultType::kNetPartition
                    : i == 1 ? FaultType::kNetLoss : FaultType::kNetDelay;
    e.duration = kSecond;
    e.probability = 0.5;
    e.stall = kMillisecond;
    plan.events.push_back(e);
  }
  FaultInjector injector(&engine, &migrator, seed);
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim.RunUntil(10 * kSecond);
  // Every event fired, was recorded as skipped, and consumed NOTHING
  // from the injector's Rng — the stream audit that keeps pre-existing
  // chaos traces byte-identical when this binary gains net fault types.
  EXPECT_EQ(injector.net_partitions(), 0);
  EXPECT_EQ(injector.net_losses(), 0);
  EXPECT_EQ(injector.net_delays(), 0);
  EXPECT_EQ(injector.rng_state_hash(), Rng(seed).StateHash());
  EXPECT_NE(injector.trace().ToString().find("skipped"), std::string::npos);
}

TEST(NetOffIdentityTest, DefaultChaosPlansContainNoNetFaults) {
  // The net weights sit in trailing zero-weight buckets: default plans
  // must never draw a net event (pre-existing seeds stay unchanged).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ChaosConfig chaos;
    chaos.num_events = 20;
    const FaultPlan plan = RandomFaultPlan(&rng, chaos);
    for (const FaultEvent& e : plan.events) {
      EXPECT_NE(e.type, FaultType::kNetPartition) << "seed " << seed;
      EXPECT_NE(e.type, FaultType::kNetLoss) << "seed " << seed;
      EXPECT_NE(e.type, FaultType::kNetDelay) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pstore
