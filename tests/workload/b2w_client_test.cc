#include "workload/b2w_client.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace pstore {
namespace {

class B2wClientTest : public ::testing::Test {
 protected:
  B2wClientTest() {
    tables_ = *RegisterB2wTables(&catalog_);
    procs_ = *RegisterB2wProcedures(&registry_, tables_);
  }

  EngineConfig EngineSmall() {
    EngineConfig config;
    config.num_buckets = 128;
    config.partitions_per_node = 2;
    config.max_nodes = 4;
    config.initial_nodes = 2;
    config.txn_service_us_mean = 500.0;
    config.txn_service_cv = 0.1;
    return config;
  }

  B2wClientConfig ClientSmall() {
    B2wClientConfig config;
    config.speedup = 10.0;
    config.peak_txn_rate = 200.0;
    config.initial_carts = 500;
    config.initial_checkouts = 200;
    config.initial_stock = 100;
    return config;
  }

  Simulator sim_;
  Catalog catalog_;
  ProcedureRegistry registry_;
  B2wTables tables_;
  B2wProcedures procs_;
};

TEST_F(B2wClientTest, ConfigValidation) {
  B2wClientConfig c;
  EXPECT_TRUE(c.Validate().ok());
  c.speedup = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = B2wClientConfig{};
  c.peak_txn_rate = 0;
  c.absolute_scale = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST_F(B2wClientTest, PreloadPopulatesTables) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  std::vector<double> trace(1440, 1000.0);
  B2wClient client(&engine, tables_, procs_, trace, ClientSmall());
  ASSERT_TRUE(client.PreloadData().ok());
  EXPECT_EQ(engine.TotalRowCount(), 500 + 200 + 100);
}

TEST_F(B2wClientTest, ScaleMapsPeakToTarget) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  std::vector<double> trace = {100.0, 500.0, 250.0};
  B2wClient client(&engine, tables_, procs_, trace, ClientSmall());
  // Peak 500 rpm maps to 200 txn/s.
  EXPECT_DOUBLE_EQ(client.SlotRate(1), 200.0);
  EXPECT_DOUBLE_EQ(client.SlotRate(0), 40.0);
  EXPECT_DOUBLE_EQ(client.SlotRate(99), 0.0);
  const auto scaled = client.ScaledTrace();
  EXPECT_DOUBLE_EQ(scaled[1], 200.0);
}

TEST_F(B2wClientTest, AbsoluteScaleOverridesPeak) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  B2wClientConfig config = ClientSmall();
  config.absolute_scale = 2.0;
  std::vector<double> trace = {10.0, 20.0};
  B2wClient client(&engine, tables_, procs_, trace, config);
  EXPECT_DOUBLE_EQ(client.SlotRate(0), 20.0);
}

TEST_F(B2wClientTest, SlotDurationCompressedBySpeedup) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  std::vector<double> trace(10, 1.0);
  B2wClient client(&engine, tables_, procs_, trace, ClientSmall());
  EXPECT_EQ(client.slot_duration(), 6 * kSecond);  // 60 s / 10x
}

TEST_F(B2wClientTest, ReplayGeneratesExpectedArrivalVolume) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  // Flat trace at half the peak: expect ~100 txn/s for 10 slots (60 s).
  std::vector<double> trace(20, 250.0);
  trace[0] = 500.0;  // defines the peak
  B2wClientConfig config = ClientSmall();
  B2wClient client(&engine, tables_, procs_, trace, config);
  ASSERT_TRUE(client.PreloadData().ok());
  client.Start(5, 15);
  sim_.RunUntil(10 * client.slot_duration() + kSecond);
  // 10 slots * 6 s * 100 txn/s = ~6000 arrivals (Poisson).
  EXPECT_NEAR(static_cast<double>(client.submitted()), 6000.0, 400.0);
  EXPECT_EQ(engine.txns_submitted(), client.submitted());
}

TEST_F(B2wClientTest, MostTransactionsCommit) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  std::vector<double> trace(10, 300.0);
  B2wClient client(&engine, tables_, procs_, trace, ClientSmall());
  ASSERT_TRUE(client.PreloadData().ok());
  client.Start(0, 10);
  sim_.RunAll();
  ASSERT_GT(engine.txns_submitted(), 1000);
  const double commit_rate =
      static_cast<double>(engine.txns_committed()) /
      static_cast<double>(engine.txns_submitted());
  // Session pools keep the abort rate (missing keys etc.) modest.
  EXPECT_GT(commit_rate, 0.85);
}

TEST_F(B2wClientTest, ReplayIsDeterministicForSeed) {
  auto run = [&]() {
    Simulator sim;
    ClusterEngine engine(&sim, catalog_, registry_, EngineSmall());
    std::vector<double> trace(5, 300.0);
    B2wClient client(&engine, tables_, procs_, trace, ClientSmall());
    EXPECT_TRUE(client.PreloadData().ok());
    client.Start(0, 5);
    sim.RunAll();
    return engine.txns_committed();
  };
  EXPECT_EQ(run(), run());
}

TEST_F(B2wClientTest, AccessPatternNearUniformAcrossPartitions) {
  // Section 8.1's uniformity claim, on our synthetic keys.
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  std::vector<double> trace(20, 400.0);
  B2wClientConfig config = ClientSmall();
  config.peak_txn_rate = 400.0;
  B2wClient client(&engine, tables_, procs_, trace, config);
  ASSERT_TRUE(client.PreloadData().ok());
  client.Start(0, 20);
  sim_.RunAll();
  const auto& counts = engine.partition_access_counts();
  double mean = 0;
  for (int32_t p = 0; p < engine.active_partitions(); ++p) {
    mean += static_cast<double>(counts[static_cast<size_t>(p)]);
  }
  mean /= engine.active_partitions();
  ASSERT_GT(mean, 1000.0);
  for (int32_t p = 0; p < engine.active_partitions(); ++p) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(p)]), mean,
                mean * 0.2)
        << "partition " << p;
  }
}

}  // namespace
}  // namespace pstore
