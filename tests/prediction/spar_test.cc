#include "prediction/spar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/b2w_trace.h"

namespace pstore {
namespace {

/// Noiseless periodic signal: SPAR should learn it exactly.
std::vector<double> PurePeriodic(int64_t slots, int32_t period) {
  std::vector<double> y(static_cast<size_t>(slots));
  for (int64_t t = 0; t < slots; ++t) {
    y[static_cast<size_t>(t)] =
        100.0 + 50.0 * std::sin(2 * M_PI * (t % period) / period);
  }
  return y;
}

TEST(SparConfigTest, Validation) {
  SparConfig c;
  EXPECT_TRUE(c.Validate().ok());
  c.period = 1;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = SparConfig{};
  c.num_periods = 0;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c = SparConfig{};
  c.num_recent = -1;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
}

TEST(SparModelTest, FitRejectsBadTau) {
  SparConfig config;
  config.period = 24;
  std::vector<double> train(24 * 20, 1.0);
  EXPECT_FALSE(SparModel::Fit(train, 0, config).ok());
  EXPECT_FALSE(SparModel::Fit(train, 24, config).ok());
}

TEST(SparModelTest, FitRejectsShortTraining) {
  SparConfig config;
  config.period = 24;
  config.num_periods = 7;
  std::vector<double> train(24 * 6, 1.0);  // fewer than n periods
  EXPECT_TRUE(SparModel::Fit(train, 1, config).status().IsInvalidArgument());
}

TEST(SparModelTest, LearnsPurePeriodicSignalExactly) {
  SparConfig config;
  config.period = 24;
  config.num_periods = 3;
  config.num_recent = 4;
  const auto y = PurePeriodic(24 * 30, 24);
  auto model = SparModel::Fit(y, 2, config);
  ASSERT_TRUE(model.ok());
  // Out-of-sample continuation of the same signal.
  const auto test = PurePeriodic(24 * 40, 24);
  for (int64_t t = model->MinHistory(); t < 24 * 40 - 2; t += 7) {
    EXPECT_NEAR(model->Predict(test, t), test[static_cast<size_t>(t + 2)],
                0.5);
  }
}

TEST(SparModelTest, CoefficientLayout) {
  SparConfig config;
  config.period = 24;
  config.num_periods = 3;
  config.num_recent = 5;
  const auto y = PurePeriodic(24 * 20, 24);
  auto model = SparModel::Fit(y, 1, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->periodic_coefficients().size(), 3u);
  EXPECT_EQ(model->recent_coefficients().size(), 5u);
  EXPECT_EQ(model->tau(), 1);
  EXPECT_EQ(model->MinHistory(), 3 * 24 + 5);
}

TEST(SparModelTest, PeriodicCoefficientsDominateForPeriodicSignal) {
  SparConfig config;
  config.period = 24;
  config.num_periods = 3;
  config.num_recent = 2;
  const auto y = PurePeriodic(24 * 30, 24);
  auto model = SparModel::Fit(y, 1, config);
  ASSERT_TRUE(model.ok());
  double periodic_weight = 0;
  for (double a : model->periodic_coefficients()) periodic_weight += a;
  // The periodic part should reconstruct the signal: weights sum to ~1.
  EXPECT_NEAR(periodic_weight, 1.0, 0.05);
}

TEST(SparModelTest, RecentOffsetsCaptureLevelShifts) {
  // Periodic signal plus a persistent level shift in the last hours:
  // the Delta-y terms should push predictions toward the shifted level.
  SparConfig config;
  config.period = 48;
  config.num_periods = 4;
  config.num_recent = 6;
  Rng rng(3);
  const int32_t period = 48;
  std::vector<double> y(static_cast<size_t>(period) * 60);
  double shift = 0;
  for (size_t t = 0; t < y.size(); ++t) {
    if (t % 17 == 0) shift = 0.9 * shift + rng.NextGaussian() * 5;
    y[t] = 100.0 + 30.0 * std::sin(2 * M_PI * (t % period) / period) + shift;
  }
  auto model = SparModel::Fit(y, 1, config);
  ASSERT_TRUE(model.ok());
  double recent_weight = 0;
  for (double b : model->recent_coefficients()) recent_weight += b;
  EXPECT_GT(recent_weight, 0.3);  // persistence is learned
}

TEST(SparPredictorTest, FitThenForecastShapes) {
  SparConfig config;
  config.period = 24;
  config.num_periods = 3;
  config.num_recent = 4;
  SparPredictor predictor(config);
  EXPECT_FALSE(predictor.Forecast({}, 0, 1).ok());  // not fitted

  const auto y = PurePeriodic(24 * 30, 24);
  ASSERT_TRUE(predictor.Fit(y, 6).ok());
  auto forecast = predictor.Forecast(y, 24 * 20, 6);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->size(), 6u);
  EXPECT_FALSE(predictor.Forecast(y, 24 * 20, 7).ok());  // beyond horizon
  EXPECT_FALSE(predictor.Forecast(y, 10, 3).ok());       // thin history
}

TEST(SparPredictorTest, ForecastAtMatchesForecast) {
  SparConfig config;
  config.period = 24;
  config.num_periods = 2;
  config.num_recent = 3;
  SparPredictor predictor(config);
  const auto y = PurePeriodic(24 * 20, 24);
  ASSERT_TRUE(predictor.Fit(y, 4).ok());
  auto all = predictor.Forecast(y, 24 * 15, 4);
  ASSERT_TRUE(all.ok());
  for (int32_t tau = 1; tau <= 4; ++tau) {
    auto one = predictor.ForecastAt(y, 24 * 15, tau);
    ASSERT_TRUE(one.ok());
    EXPECT_DOUBLE_EQ(*one, (*all)[static_cast<size_t>(tau - 1)]);
  }
}

/// Equation 8 written out: build the feature row [y(t+tau-kT) for
/// k=1..n] ++ [Dy(t-j) for j=1..m] and take its dot product with the
/// coefficients in that order — the summation order every SPAR
/// forecast must reproduce bit for bit.
double ReferencePredict(const SparModel& model, const std::vector<double>& y,
                        int64_t t) {
  const SparConfig& cfg = model.config();
  std::vector<double> row;
  for (int32_t k = 1; k <= cfg.num_periods; ++k) {
    row.push_back(y[static_cast<size_t>(t + model.tau() - k * cfg.period)]);
  }
  for (int32_t j = 1; j <= cfg.num_recent; ++j) {
    double mean = 0;
    for (int32_t k = 1; k <= cfg.num_periods; ++k) {
      mean += y[static_cast<size_t>(t - j - k * cfg.period)];
    }
    mean /= cfg.num_periods;
    row.push_back(y[static_cast<size_t>(t - j)] - mean);
  }
  std::vector<double> coeffs = model.periodic_coefficients();
  coeffs.insert(coeffs.end(), model.recent_coefficients().begin(),
                model.recent_coefficients().end());
  double acc = 0;
  for (size_t i = 0; i < row.size(); ++i) acc += coeffs[i] * row[i];
  return acc;
}

/// Forecast shares the recent-deviation features across horizon steps;
/// every entry must still equal ForecastAt, the per-tau model's Predict
/// and the written-out Equation 8 exactly, at every t of a window.
void ExpectForecastsBitIdentical(const SparPredictor& predictor,
                                 const std::vector<double>& y,
                                 int32_t max_horizon) {
  for (int64_t t = predictor.MinHistory();
       t < static_cast<int64_t>(y.size()); ++t) {
    const int32_t horizon = 1 + static_cast<int32_t>(t % max_horizon);
    auto all = predictor.Forecast(y, t, horizon);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), static_cast<size_t>(horizon));
    for (int32_t h = 1; h <= horizon; ++h) {
      const double forecast = (*all)[static_cast<size_t>(h - 1)];
      auto at = predictor.ForecastAt(y, t, h);
      ASSERT_TRUE(at.ok());
      const SparModel& model = predictor.models()[static_cast<size_t>(h - 1)];
      EXPECT_EQ(forecast, *at) << "t " << t << " h " << h;
      EXPECT_EQ(forecast, model.Predict(y, t)) << "t " << t << " h " << h;
      EXPECT_EQ(forecast, ReferencePredict(model, y, t))
          << "t " << t << " h " << h;
    }
  }
}

TEST(SparPredictorTest, ForecastBitIdenticalToPerTauPredict) {
  SparConfig config;
  config.period = 60;
  config.num_periods = 3;
  config.num_recent = 5;
  constexpr int32_t kMaxHorizon = 48;
  for (const uint64_t seed : {5u, 6u}) {
    Rng rng(seed);
    std::vector<double> y(60 * 12);
    for (size_t t = 0; t < y.size(); ++t) {
      y[t] = 200.0 + 80.0 * std::sin(2 * M_PI * (t % 60) / 60.0) +
             15.0 * rng.NextGaussian();
    }
    const std::vector<double> prefix(y.begin(), y.begin() + 60 * 9);

    SparPredictor full(config);
    ASSERT_TRUE(full.Fit(prefix, kMaxHorizon).ok());
    ExpectForecastsBitIdentical(full, y, kMaxHorizon);

    // Incremental refit over the extended series: same identities.
    SparPredictor refit(config);
    ASSERT_TRUE(refit.Fit(prefix, kMaxHorizon).ok());
    ASSERT_TRUE(refit.Refit(y, kMaxHorizon).ok());
    ExpectForecastsBitIdentical(refit, y, kMaxHorizon);
  }
}

/// Periodic base plus seeded noise.
std::vector<double> NoisyPeriodic(int64_t slots, int32_t period,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<double> y(static_cast<size_t>(slots));
  for (int64_t t = 0; t < slots; ++t) {
    y[static_cast<size_t>(t)] =
        200.0 + 80.0 * std::sin(2 * M_PI * (t % period) / period) +
        15.0 * rng.NextGaussian();
  }
  return y;
}

/// Asserts two coefficient vectors agree bit for bit.
void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

// Fit folds each tau's rows into running normal equations, with the
// recent deviations computed once and the taus solved in parallel;
// SparModel::Fit builds the whole design matrix for one tau and solves
// it. With more horizons than hardware threads every worker solves
// several taus, and each tau must still match the reference exactly.
TEST(SparPredictorTest, FitMatchesTheDesignMatrixFitBitForBit) {
  const int32_t hardware = static_cast<int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int32_t max_horizon = 2 * hardware + 3;
  for (const int32_t recent : {0, 6}) {
    SparConfig config;
    config.period = std::max(48, max_horizon + 1);
    config.num_periods = 3;
    config.num_recent = recent;
    const auto y = NoisyPeriodic(int64_t{config.period} * 8, config.period,
                                 40 + static_cast<uint64_t>(recent));
    SparPredictor predictor(config);
    ASSERT_TRUE(predictor.Fit(y, max_horizon).ok());
    ASSERT_EQ(predictor.models().size(), static_cast<size_t>(max_horizon));
    for (int32_t tau = 1; tau <= max_horizon; ++tau) {
      auto reference = SparModel::Fit(y, tau, config);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      const SparModel& fitted =
          predictor.models()[static_cast<size_t>(tau - 1)];
      EXPECT_EQ(fitted.tau(), tau);
      const std::string what =
          "m " + std::to_string(recent) + " tau " + std::to_string(tau);
      ExpectSameBits(fitted.periodic_coefficients(),
                     reference->periodic_coefficients(), what + " a");
      ExpectSameBits(fitted.recent_coefficients(),
                     reference->recent_coefficients(), what + " b");
    }
  }
}

// A series long enough only for tau < 5: Fit must fail with tau 5's
// error (the one a tau-by-tau loop stops at), keep the models of the
// last successful fit, and drop the statistics it had started to fold,
// so a later Refit starts from scratch.
TEST(SparPredictorTest, FailedFitReportsTheFirstUnfittableTauAndKeepsModels) {
  SparConfig config;
  config.period = 48;
  config.num_periods = 3;
  config.num_recent = 6;
  constexpr int32_t kFirstUnfittable = 5;
  constexpr int32_t kMaxHorizon = 12;
  const auto y = NoisyPeriodic(48 * 8, 48, 3);
  // Fitting tau needs more than n*T + m + tau + n + m slots. Another
  // seed, so rows folded from it would change a later Refit.
  const int64_t short_len = int64_t{3} * 48 + 6 + kFirstUnfittable + 3 + 6;
  const std::vector<double> short_y = NoisyPeriodic(short_len, 48, 4);
  ASSERT_TRUE(SparModel::Fit(short_y, kFirstUnfittable - 1, config).ok());
  const auto expected = SparModel::Fit(short_y, kFirstUnfittable, config);
  ASSERT_FALSE(expected.ok());

  SparPredictor predictor(config);
  ASSERT_TRUE(predictor.Fit(y, 3).ok());
  const std::vector<SparModel> before = predictor.models();

  const Status failed = predictor.Fit(short_y, kMaxHorizon);
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(failed.ToString(), expected.status().ToString());
  ASSERT_EQ(predictor.models().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ExpectSameBits(predictor.models()[i].periodic_coefficients(),
                   before[i].periodic_coefficients(), "kept a");
    ExpectSameBits(predictor.models()[i].recent_coefficients(),
                   before[i].recent_coefficients(), "kept b");
  }

  ASSERT_TRUE(predictor.Refit(y, kMaxHorizon).ok());
  SparPredictor fresh(config);
  ASSERT_TRUE(fresh.Fit(y, kMaxHorizon).ok());
  ASSERT_EQ(predictor.models().size(), fresh.models().size());
  for (size_t i = 0; i < fresh.models().size(); ++i) {
    ExpectSameBits(predictor.models()[i].periodic_coefficients(),
                   fresh.models()[i].periodic_coefficients(), "refit a");
    ExpectSameBits(predictor.models()[i].recent_coefficients(),
                   fresh.models()[i].recent_coefficients(), "refit b");
  }
}

TEST(SparPredictorTest, AccurateOnSyntheticB2wTrace) {
  // The headline claim of Section 5: ~10% MRE at tau = 60 minutes on the
  // B2W load. Our synthetic trace should admit comparable accuracy.
  B2wTraceConfig trace_config = B2wRegularTraffic(42, 99);
  auto trace = GenerateB2wTrace(trace_config);
  ASSERT_TRUE(trace.ok());

  SparConfig config;  // paper settings: T=1440, n=7, m=30
  SparPredictor predictor(config);
  std::vector<double> train(trace->begin(), trace->begin() + 28 * 1440);
  ASSERT_TRUE(predictor.Fit(train, 60).ok());

  // Evaluate tau=60 over days 29-34.
  double total = 0;
  int64_t n = 0;
  for (int64_t t = 29 * 1440; t < 34 * 1440; t += 13) {
    auto pred = predictor.ForecastAt(*trace, t, 60);
    ASSERT_TRUE(pred.ok());
    const double actual = (*trace)[static_cast<size_t>(t + 60)];
    total += std::fabs(*pred - actual) / actual;
    ++n;
  }
  const double mre = total / static_cast<double>(n);
  EXPECT_LT(mre, 0.15) << "MRE " << mre;
}

TEST(SparPredictorTest, ErrorGrowsWithTau) {
  // Figure 5b: accuracy decays gracefully with the forecast window.
  B2wTraceConfig trace_config = B2wRegularTraffic(42, 7);
  auto trace = GenerateB2wTrace(trace_config);
  ASSERT_TRUE(trace.ok());
  SparConfig config;
  SparPredictor predictor(config);
  std::vector<double> train(trace->begin(), trace->begin() + 28 * 1440);
  ASSERT_TRUE(predictor.Fit(train, 60).ok());

  auto mre_at = [&](int32_t tau) {
    double total = 0;
    int64_t n = 0;
    for (int64_t t = 29 * 1440; t < 33 * 1440; t += 17) {
      auto pred = predictor.ForecastAt(*trace, t, tau);
      EXPECT_TRUE(pred.ok());
      const double actual = (*trace)[static_cast<size_t>(t + tau)];
      total += std::fabs(*pred - actual) / actual;
      ++n;
    }
    return total / static_cast<double>(n);
  };
  const double short_horizon = mre_at(5);
  const double long_horizon = mre_at(60);
  EXPECT_LT(short_horizon, long_horizon);
  EXPECT_LT(short_horizon, 0.06);
}

}  // namespace
}  // namespace pstore
