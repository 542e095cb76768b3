/// Cross-cutting integration tests: the pieces of the P-Store stack
/// working together, and the analytic capacity simulator agreeing with
/// the engine-level experiment on aggregate outcomes.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/predictive_controller.h"
#include "core/skew_manager.h"
#include "prediction/spar.h"
#include "sim/strategies.h"
#include "workload/b2w_trace.h"

namespace pstore {
namespace {

TEST(IntegrationTest, AnalyticSimTracksEngineExperimentMachines) {
  // Run the same one-day trace through (a) the engine-level oracle
  // experiment and (b) the analytic capacity simulator with an oracle
  // strategy, using matched parameters. The average machine counts
  // should agree within ~25% — they model the same planner and move
  // dynamics at different fidelities.
  const uint64_t seed = 777;
  const int32_t train_days = 10;

  ExperimentConfig engine_config;
  engine_config.strategy = ElasticityStrategy::kPStoreOracle;
  engine_config.replay_days = 1;
  engine_config.train_days = train_days;
  engine_config.speedup = 60.0;
  engine_config.peak_txn_rate = 600.0;
  engine_config.trace = B2wRegularTraffic(train_days + 2, seed);
  engine_config.engine.max_nodes = 6;
  engine_config.static_nodes = 6;
  engine_config.migration.db_size_mb = 110.0;
  auto engine_result = RunElasticityExperiment(engine_config);
  ASSERT_TRUE(engine_result.ok()) << engine_result.status().ToString();

  // Analytic counterpart: same scaled trace, same Q/Q-hat, D matched to
  // the engine's migration options in *virtual* minutes.
  auto trace = GenerateB2wTrace(B2wRegularTraffic(train_days + 2, seed));
  ASSERT_TRUE(trace.ok());
  double peak = 0;
  for (double v : *trace) peak = std::max(peak, v);
  std::vector<double> load(trace->size());
  for (size_t i = 0; i < load.size(); ++i) {
    load[i] = (*trace)[i] / peak * 600.0;
  }

  CapacitySimConfig sim_config;
  sim_config.move_model.q = 285.0;
  sim_config.move_model.partitions_per_node = 6;
  // Virtual D equals the engine's: db/rate (plus the planner buffer);
  // but the analytic sim steps in *trace minutes*, which run 60x faster
  // than virtual time at speedup 60 -> convert.
  const double d_virtual_min = 110.0 * 1024.0 / 244.0 / 60.0 * 1.1;
  sim_config.move_model.d_minutes = d_virtual_min * 60.0;  // trace minutes
  sim_config.move_model.interval_minutes = 5;
  sim_config.q_hat = 350.0;
  sim_config.max_machines = 6;

  class SlotOracle : public LoadPredictor {
   public:
    SlotOracle(const std::vector<double>& minutes) {
      for (size_t i = 0; i + 5 <= minutes.size(); i += 5) {
        double acc = 0;
        for (size_t j = 0; j < 5; ++j) acc += minutes[i + j];
        slots_.push_back(acc / 5);
      }
    }
    std::string name() const override { return "Oracle"; }
    Status Fit(const std::vector<double>&, int32_t) override {
      return Status::OK();
    }
    int64_t MinHistory() const override { return 0; }
    Result<std::vector<double>> Forecast(const std::vector<double>&,
                                         int64_t t,
                                         int32_t horizon) const override {
      std::vector<double> out;
      for (int32_t h = 1; h <= horizon; ++h) {
        const int64_t idx = t + h;
        out.push_back(idx < static_cast<int64_t>(slots_.size())
                          ? slots_[static_cast<size_t>(idx)]
                          : slots_.back());
      }
      return out;
    }

   private:
    std::vector<double> slots_;
  };

  PStoreStrategyConfig ps;
  ps.move_model = sim_config.move_model;
  ps.horizon_intervals = 12;
  ps.prediction_inflation = 0.0;
  ps.max_machines = 6;
  PStoreStrategy strategy(ps, std::make_unique<SlotOracle>(load),
                          "P-Store Oracle");
  CapacitySimulator sim(sim_config);
  auto sim_result = sim.Run(load, &strategy,
                            static_cast<int64_t>(train_days) * 1440,
                            static_cast<int64_t>(train_days + 1) * 1440);
  ASSERT_TRUE(sim_result.ok());

  const double sim_avg_machines =
      sim_result->total_machine_minutes /
      static_cast<double>(sim_result->minutes_simulated);
  EXPECT_NEAR(engine_result->avg_machines, sim_avg_machines,
              0.25 * sim_avg_machines)
      << "engine=" << engine_result->avg_machines
      << " analytic=" << sim_avg_machines;
}

TEST(IntegrationTest, ControllerAndSkewManagerCoexist) {
  // P-Store elasticity and the skew manager running together on one
  // engine: a rising diurnal load plus a hot key. Both mechanisms act;
  // no data is lost; the final map is consistent.
  Simulator sim;
  Catalog catalog;
  const TableId table = *catalog.AddTable(Schema(
      "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
  ProcedureRegistry registry;
  const ProcedureId get = *registry.Register(ProcedureDef{
      "Get",
      [table](ExecutionContext& ctx, const TxnRequest& req) {
        TxnResult r;
        auto row = ctx.Get(table, req.key);
        if (!row.ok()) {
          r.status = ctx.Upsert(table,
                                Row({Value(req.key), Value(int64_t{0})}));
        }
        return r;
      },
      1.0});

  EngineConfig engine_config;
  engine_config.num_buckets = 128;
  engine_config.partitions_per_node = 2;
  engine_config.max_nodes = 6;
  engine_config.initial_nodes = 1;
  engine_config.txn_service_us_mean = 1000.0;
  engine_config.txn_service_cv = 0.0;
  ClusterEngine engine(&sim, catalog, registry, engine_config);
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(engine.LoadRow(table, Row({Value(k), Value(k)})).ok());
  }

  // 6.25 MB over the 128 buckets: 50 kB per relocated bucket.
  MigrationOptions migration;
  migration.db_size_mb = 6.25;
  migration.rate_kbps = 2000;
  MigrationExecutor migrator(&engine, migration);

  ControllerConfig controller_config;
  controller_config.move_model.q = 100.0;
  controller_config.move_model.partitions_per_node = 2;
  controller_config.move_model.d_minutes = 0.12;
  controller_config.move_model.interval_minutes = 2.0 / 60.0;
  controller_config.q_hat = 125.0;
  controller_config.horizon_intervals = 10;
  controller_config.prediction_inflation = 0.1;
  // The oracle here: a ramp from 80 to 380 txn/s over 30 slots.
  class Ramp : public LoadPredictor {
   public:
    std::string name() const override { return "Ramp"; }
    Status Fit(const std::vector<double>&, int32_t) override {
      return Status::OK();
    }
    int64_t MinHistory() const override { return 0; }
    Result<std::vector<double>> Forecast(const std::vector<double>&,
                                         int64_t t,
                                         int32_t horizon) const override {
      std::vector<double> out;
      for (int32_t h = 1; h <= horizon; ++h) {
        out.push_back(std::min(380.0, 80.0 + 10.0 * (t + h)));
      }
      return out;
    }
  } ramp;
  PredictiveController controller(&engine, &migrator, &ramp,
                                  controller_config);
  controller.Start();

  SkewManagerConfig skew_config;
  skew_config.monitor_period = 2 * kSecond;
  skew_config.imbalance_threshold = 1.3;
  SkewManager skew(&engine, &migrator, skew_config);
  skew.Start();

  // Offered load: ramp matching the forecast, plus a hammered hot key.
  Rng rng(5);
  for (int64_t i = 0; i < 12000; ++i) {
    const double when = 60.0 * static_cast<double>(i) / 12000.0;
    const double rate_now = std::min(380.0, 80.0 + 10.0 * (when / 2.0));
    (void)rate_now;
    TxnRequest req;
    req.proc = get;
    req.key = rng.NextBernoulli(0.25) ? 7 : rng.NextInt(0, 499);
    sim.ScheduleAt(SecondsToDuration(when),
                   [&engine, req]() { engine.Submit(req); });
  }
  sim.RunUntil(SecondsToDuration(70.0));
  controller.Stop();
  skew.Stop();
  sim.RunAll();

  // Elasticity happened, data survived, and routing is consistent.
  EXPECT_GT(controller.moves_started(), 0);
  EXPECT_GE(engine.active_nodes(), 3);
  EXPECT_GE(engine.TotalRowCount(), 500);
  for (int64_t k = 0; k < 500; ++k) {
    const PartitionId p = engine.partition_map().PartitionOfKey(k);
    EXPECT_TRUE(engine.fragment(p)->Contains(table, k)) << "key " << k;
  }
}

TEST(IntegrationTest, SafetyNetPlusSkewSurviveBlackFridayStyleSurge) {
  // Experiment-level smoke: spike day with the safety net enabled and
  // default P-Store settings; the run completes, nodes reach max, and
  // violations remain bounded.
  ExperimentConfig config;
  config.strategy = ElasticityStrategy::kPStoreSpar;
  config.replay_days = 1;
  config.train_days = 10;
  config.speedup = 60.0;
  config.peak_txn_rate = 600.0;
  config.trace = B2wSpikeDay(10, 606);
  config.trace.spike_boost = 1.2;
  config.engine.max_nodes = 6;
  config.static_nodes = 6;
  config.migration.db_size_mb = 110.0;
  auto result = RunElasticityExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->submitted, 10000);
  // The spike forced extra capacity beyond the diurnal need.
  EXPECT_GT(result->moves.size(), 2u);
}

}  // namespace
}  // namespace pstore
