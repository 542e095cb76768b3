#include "workload/wiki_workload.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "workload/wiki_trace.h"

namespace pstore {
namespace {

class WikiWorkloadTest : public ::testing::Test {
 protected:
  WikiWorkloadTest() {
    workload_ = *RegisterWikiWorkload(&catalog_, &registry_);
  }

  EngineConfig EngineSmall() {
    EngineConfig config;
    config.num_buckets = 128;
    config.partitions_per_node = 2;
    config.max_nodes = 4;
    config.initial_nodes = 2;
    config.txn_service_us_mean = 500.0;
    config.txn_service_cv = 0.0;
    return config;
  }

  WikiClientConfig ClientSmall() {
    WikiClientConfig config;
    config.num_pages = 2000;
    return config;
  }

  Simulator sim_;
  Catalog catalog_;
  ProcedureRegistry registry_;
  WikiWorkload workload_;
};

TEST_F(WikiWorkloadTest, RegistersTableAndProcedures) {
  EXPECT_EQ(catalog_.num_tables(), 1u);
  EXPECT_EQ(registry_.size(), 4u);
  EXPECT_EQ(catalog_.GetSchema(workload_.page).name(), "PAGE");
}

TEST_F(WikiWorkloadTest, ProcedureSemantics) {
  StorageFragment frag(&catalog_, 128);
  WriteSet writes;
  ExecutionContext ctx(&frag, &writes);
  auto run = [&](ProcedureId proc, int64_t key, std::vector<Value> args) {
    TxnRequest req;
    req.proc = proc;
    req.key = key;
    req.args = std::move(args);
    return registry_.Get(proc).body(ctx, req);
  };

  // Create, read, view, edit.
  EXPECT_TRUE(run(workload_.create_page, 42,
                  {Value("Title"), Value("Body")})
                  .status.ok());
  EXPECT_TRUE(run(workload_.create_page, 42, {Value("T"), Value("B")})
                  .status.IsAlreadyExists());
  TxnResult read = run(workload_.get_page, 42, {});
  ASSERT_TRUE(read.status.ok());
  EXPECT_EQ(read.rows[0].at(wiki_cols::kPageTitle).as_string(), "Title");

  EXPECT_TRUE(run(workload_.record_view, 42, {}).status.ok());
  EXPECT_TRUE(run(workload_.record_view, 42, {}).status.ok());
  EXPECT_EQ(frag.Get(workload_.page, 42)
                ->at(wiki_cols::kPageViews)
                .as_int64(),
            2);

  EXPECT_TRUE(run(workload_.edit_page, 42, {Value("NewBody")}).status.ok());
  EXPECT_EQ(frag.Get(workload_.page, 42)
                ->at(wiki_cols::kPageContent)
                .as_string(),
            "NewBody");

  // Misses abort.
  EXPECT_TRUE(run(workload_.get_page, 404, {}).status.IsNotFound());
  EXPECT_TRUE(run(workload_.record_view, 404, {}).status.IsNotFound());
  EXPECT_TRUE(run(workload_.edit_page, 404, {Value("x")})
                  .status.IsNotFound());
}

TEST_F(WikiWorkloadTest, ClientConfigValidation) {
  WikiClientConfig c = ClientSmall();
  EXPECT_TRUE(c.Validate().ok());
  c.num_pages = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST_F(WikiWorkloadTest, ReplayServesSkewedReads) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  auto trace = GenerateWikiTrace(WikiEnglish(2, 5));
  ASSERT_TRUE(trace.ok());
  WikiClient client(&engine, workload_, *trace, ClientSmall());
  ASSERT_TRUE(client.PreloadData().ok());
  EXPECT_EQ(engine.TotalRowCount(), 2000);

  client.Start(0, 12, /*peak_txn_rate=*/300.0);
  sim_.RunAll();
  EXPECT_GT(client.submitted(), 2000);
  const double commit_rate =
      static_cast<double>(engine.txns_committed()) /
      static_cast<double>(engine.txns_submitted());
  EXPECT_GT(commit_rate, 0.95);

  // Popularity skew: the hottest bucket should see far more traffic
  // than the median bucket (Zipf page popularity).
  auto counts = engine.bucket_access_counts();
  std::sort(counts.begin(), counts.end());
  const int64_t hottest = counts.back();
  const int64_t median = counts[counts.size() / 2];
  EXPECT_GT(hottest, 3 * std::max<int64_t>(1, median));
}

TEST_F(WikiWorkloadTest, ScaledTraceMapsPeak) {
  ClusterEngine engine(&sim_, catalog_, registry_, EngineSmall());
  std::vector<double> trace = {100.0, 400.0, 200.0};
  WikiClient client(&engine, workload_, trace, ClientSmall());
  const auto scaled = client.ScaledTrace(800.0);
  EXPECT_DOUBLE_EQ(scaled[1], 800.0);
  EXPECT_DOUBLE_EQ(scaled[0], 200.0);
}

}  // namespace
}  // namespace pstore
