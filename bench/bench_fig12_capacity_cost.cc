/// Figure 12: "Performance of different allocation strategies and values
/// of Q simulated over 4.5 months of B2W's load." Each point is one full
/// simulation; varying Q (or the reactive/simple buffer) traces a
/// capacity-cost curve per strategy. Costs are normalized to the
/// P-Store-SPAR run with default parameters (Q = 65% of saturation,
/// predictions inflated 15%).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/table_writer.h"
#include "prediction/spar.h"
#include "sim/strategies.h"
#include "workload/b2w_trace.h"

using namespace pstore;

namespace {

constexpr double kSaturation = 438.0;
constexpr double kQHat = 350.0;  // 80% of saturation
constexpr int32_t kSlot = 5;

CapacitySimConfig SimConfig(double q) {
  CapacitySimConfig config;
  config.move_model.q = q;
  config.move_model.partitions_per_node = 6;
  config.move_model.d_minutes = 85.0;  // 77 min + 10% planning buffer
  config.move_model.interval_minutes = kSlot;
  config.q_hat = kQHat;
  config.max_machines = 40;
  return config;
}

std::vector<double> SlotSeries(const std::vector<double>& minute_load) {
  std::vector<double> slots;
  for (size_t i = 0; i + kSlot <= minute_load.size(); i += kSlot) {
    double acc = 0;
    for (int32_t j = 0; j < kSlot; ++j) acc += minute_load[i + j];
    slots.push_back(acc / kSlot);
  }
  return slots;
}

/// Oracle over the full slot series.
class SlotOracle : public LoadPredictor {
 public:
  explicit SlotOracle(std::vector<double> slots) : slots_(std::move(slots)) {}
  std::string name() const override { return "Oracle"; }
  Status Fit(const std::vector<double>&, int32_t) override {
    return Status::OK();
  }
  int64_t MinHistory() const override { return 0; }
  Result<std::vector<double>> Forecast(const std::vector<double>&, int64_t t,
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

struct Point {
  std::string strategy;
  double knob;  // Q or buffer
  double cost;
  double pct_insufficient;
};

}  // namespace

int main() {
  bench::PrintBanner(
      "Figure 12",
      "Capacity-cost curves over 4.5 months (August-December, with Black "
      "Friday)",
      "P-Store Oracle best, SPAR close behind; reactive needs a big "
      "buffer to be safe; Simple and Static break down");

  // 4.5-month trace at ~2800 txn/s peak.
  auto raw = GenerateB2wTrace(B2wAugustToDecember(20160801));
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  double regular_peak = 0;  // peak excluding Black Friday week
  for (size_t i = 0; i < 100u * 1440; ++i) {
    regular_peak = std::max(regular_peak, (*raw)[i]);
  }
  std::vector<double> load(raw->size());
  for (size_t i = 0; i < load.size(); ++i) {
    load[i] = (*raw)[i] / regular_peak * 2800.0;
  }
  const int64_t train_minutes = 28 * 1440;
  const int64_t end_minute = static_cast<int64_t>(load.size());
  const std::vector<double> slots = SlotSeries(load);
  const int64_t sim_minutes = end_minute - train_minutes;

  // Fit SPAR once on the training prefix.
  SparConfig spar_config;
  spar_config.period = 1440 / kSlot;
  spar_config.num_periods = 7;
  spar_config.num_recent = 6;
  const int32_t horizon = 12;
  auto fit_spar = [&]() {
    auto predictor = std::make_unique<SparPredictor>(spar_config);
    std::vector<double> train(slots.begin(),
                              slots.begin() + train_minutes / kSlot);
    Status st = predictor->Fit(train, horizon);
    if (!st.ok()) {
      std::fprintf(stderr, "SPAR fit failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    return predictor;
  };

  std::vector<Point> points;
  double default_pstore_cost = -1;

  // --- P-Store (SPAR and Oracle) across Q values ------------------------
  const std::vector<double> q_fractions = {0.45, 0.55, 0.65, 0.75, 0.85};
  for (bool oracle : {false, true}) {
    for (double fq : q_fractions) {
      const double q = kSaturation * fq;
      PStoreStrategyConfig ps;
      ps.move_model = SimConfig(q).move_model;
      ps.horizon_intervals = horizon;
      ps.prediction_inflation = oracle ? 0.0 : 0.15;
      ps.max_machines = 40;
      std::unique_ptr<LoadPredictor> predictor;
      if (oracle) {
        predictor = std::make_unique<SlotOracle>(slots);
      } else {
        predictor = fit_spar();
      }
      PStoreStrategy strategy(ps, std::move(predictor),
                              oracle ? "P-Store Oracle" : "P-Store SPAR");
      CapacitySimulator sim(SimConfig(q));
      auto result = sim.Run(load, &strategy, train_minutes, end_minute);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      points.push_back(Point{strategy.name(), fq,
                             result->total_machine_minutes,
                             result->pct_time_insufficient});
      if (!oracle && std::fabs(fq - 0.65) < 1e-9) {
        default_pstore_cost = result->total_machine_minutes;
      }
    }
  }

  // --- Reactive across headroom buffers ---------------------------------
  for (double buffer : {0.05, 0.15, 0.30, 0.50, 0.80}) {
    ReactiveStrategyConfig rc;
    rc.q = kSaturation * 0.65;
    rc.q_hat = kQHat;
    rc.headroom = buffer;
    ReactiveStrategy strategy(rc);
    CapacitySimulator sim(SimConfig(rc.q));
    auto result = sim.Run(load, &strategy, train_minutes, end_minute);
    if (!result.ok()) return 1;
    points.push_back(Point{"Reactive", buffer,
                           result->total_machine_minutes,
                           result->pct_time_insufficient});
  }

  // --- Simple (morning/night) across sizing buffers ----------------------
  double train_peak = 0, train_trough = 1e18;
  for (int64_t t = 0; t < train_minutes; ++t) {
    train_peak = std::max(train_peak, load[static_cast<size_t>(t)]);
    train_trough = std::min(train_trough, load[static_cast<size_t>(t)]);
  }
  for (double buffer : {0.0, 0.2, 0.5, 1.0}) {
    const double q = kSaturation * 0.65;
    const int32_t day = static_cast<int32_t>(
        std::ceil(train_peak * (1 + buffer) / q));
    const int32_t night = std::max<int32_t>(
        1, static_cast<int32_t>(std::ceil(train_trough * (1 + buffer) * 3 /
                                          q)));
    SimpleStrategy strategy(day, night, 6.0, 23.0);
    CapacitySimulator sim(SimConfig(q));
    auto result = sim.Run(load, &strategy, train_minutes, end_minute);
    if (!result.ok()) return 1;
    points.push_back(Point{"Simple", buffer, result->total_machine_minutes,
                           result->pct_time_insufficient});
  }

  // --- Static across sizes -----------------------------------------------
  for (int32_t n : {4, 7, 10, 14, 20}) {
    StaticStrategy strategy(n);
    CapacitySimulator sim(SimConfig(kSaturation * 0.65));
    auto result = sim.Run(load, &strategy, train_minutes, end_minute, n);
    if (!result.ok()) return 1;
    points.push_back(Point{"Static", static_cast<double>(n),
                           result->total_machine_minutes,
                           result->pct_time_insufficient});
  }

  // --- Report -------------------------------------------------------------
  if (default_pstore_cost <= 0) default_pstore_cost = points[2].cost;
  TableWriter table({"strategy", "knob (Q frac / buffer / N)",
                     "cost (normalized)", "% time insufficient"});
  std::vector<double> costs, insufficiencies;
  for (const Point& p : points) {
    table.AddRow({p.strategy, TableWriter::Fmt(p.knob, 2),
                  TableWriter::Fmt(p.cost / default_pstore_cost, 3),
                  TableWriter::Fmt(p.pct_insufficient, 3)});
    costs.push_back(p.cost / default_pstore_cost);
    insufficiencies.push_back(p.pct_insufficient);
  }
  table.Print(std::cout);
  bench::WriteCsv("fig12_capacity_cost.csv",
                  {"cost_normalized", "pct_insufficient"},
                  {costs, insufficiencies});
  std::printf("\nSimulated %lld minutes (~%.1f months) per point, %zu "
              "points.\n",
              static_cast<long long>(sim_minutes),
              static_cast<double>(sim_minutes) / 43200.0, points.size());
  std::cout << "Expected shape: at equal cost, P-Store curves sit below "
               "(fewer insufficient minutes than) Reactive; Simple/Static "
               "need far more cost to get safe because they cannot react "
               "to Black Friday.\n";

  // The P-Store points come first: SPAR at each Q, then the Oracle.
  std::cout << "\nKnown gaps (not rows):\n";
  for (size_t i = 0; i < q_fractions.size(); ++i) {
    const Point& spar = points[i];
    const Point& oracle = points[q_fractions.size() + i];
    if (oracle.pct_insufficient > spar.pct_insufficient) {
      std::printf("  - At Q = %.2f P-Store Oracle is less safe than P-Store "
                  "SPAR (%.3f%% vs %.3f%% of time insufficient), so \"Oracle "
                  "best\" does not hold there.\n",
                  q_fractions[i], oracle.pct_insufficient,
                  spar.pct_insufficient);
    }
  }
  std::cout << "    The Oracle forecasts exact 5-minute slot means with no "
               "inflation, SPAR's forecasts are inflated 15%; given the same "
               "15%, the Oracle is the safer of the two at every Q "
               "(EXPERIMENTS.md).\n";
  return 0;
}
