#include "prediction/ar.h"

#include <algorithm>
#include <cassert>

#include "common/linalg.h"
#include "common/parallel.h"

namespace pstore {

namespace {

/// Fits target[t] = c + sum coeff_i * features(t, i) by least squares.
/// `fill` writes the (num_features) feature values for row index t.
template <typename FillFn>
Result<std::vector<double>> FitRegression(int64_t t_min, int64_t t_max,
                                          int32_t num_features,
                                          const FillFn& fill,
                                          const std::vector<double>& target_series,
                                          int32_t tau) {
  const int64_t rows = t_max - t_min + 1;
  if (rows < num_features + 2) {
    return Status::InvalidArgument("not enough training data for regression");
  }
  Matrix design(static_cast<size_t>(rows),
                static_cast<size_t>(num_features) + 1);
  std::vector<double> target(static_cast<size_t>(rows));
  std::vector<double> row(static_cast<size_t>(num_features));
  for (int64_t t = t_min; t <= t_max; ++t) {
    const size_t r = static_cast<size_t>(t - t_min);
    design(r, 0) = 1.0;  // intercept
    fill(t, row.data());
    for (int32_t c = 0; c < num_features; ++c) {
      design(r, static_cast<size_t>(c) + 1) = row[static_cast<size_t>(c)];
    }
    target[r] = target_series[static_cast<size_t>(t + tau)];
  }
  return LeastSquares(design, target, kFitRidge);
}

/// Solves fit(tau) for tau = 1..max_horizon, one ParallelFor body per
/// tau writing only its own slot, so the coefficients do not depend on
/// the thread count. On success `coeffs` holds them in tau order; else
/// it is left as it was and the smallest failing tau's status returns,
/// as solving the taus in turn would.
template <typename FitFn>
Status FitHorizons(int32_t max_horizon, const FitFn& fit,
                   std::vector<std::vector<double>>* coeffs) {
  std::vector<Result<std::vector<double>>> fitted(
      static_cast<size_t>(max_horizon), Status::Internal("tau not solved"));
  ParallelFor(max_horizon, [&](int64_t i) {
    fitted[static_cast<size_t>(i)] = fit(static_cast<int32_t>(i + 1));
  });
  std::vector<std::vector<double>> solved;
  solved.reserve(fitted.size());
  for (Result<std::vector<double>>& tau_coeffs : fitted) {
    if (!tau_coeffs.ok()) return tau_coeffs.status();
    solved.push_back(std::move(tau_coeffs).MoveValueUnsafe());
  }
  *coeffs = std::move(solved);
  return Status::OK();
}

}  // namespace

Status ArPredictor::Fit(const std::vector<double>& train,
                        int32_t max_horizon) {
  if (order_ < 1) return Status::InvalidArgument("AR order must be >= 1");
  if (max_horizon < 1) {
    return Status::InvalidArgument("max_horizon must be >= 1");
  }
  const int64_t t_min = order_ - 1;
  auto fill = [&](int64_t t, double* out) {
    for (int32_t j = 0; j < order_; ++j) {
      out[j] = train[static_cast<size_t>(t - j)];
    }
  };
  return FitHorizons(max_horizon, [&](int32_t tau) {
    const int64_t t_max = static_cast<int64_t>(train.size()) - 1 - tau;
    return FitRegression(t_min, t_max, order_, fill, train, tau);
  }, &coeffs_);
}

Result<double> ArPredictor::ForecastAt(const std::vector<double>& series,
                                       int64_t t, int32_t tau) const {
  if (coeffs_.empty()) {
    return Status::FailedPrecondition("ArPredictor: Fit not called");
  }
  if (tau < 1 || tau > static_cast<int32_t>(coeffs_.size())) {
    return Status::InvalidArgument("tau out of fitted range");
  }
  if (t < MinHistory() || t >= static_cast<int64_t>(series.size())) {
    return Status::InvalidArgument("not enough history at t");
  }
  const std::vector<double>& w = coeffs_[static_cast<size_t>(tau - 1)];
  double acc = w[0];
  for (int32_t j = 0; j < order_; ++j) {
    acc += w[static_cast<size_t>(j) + 1] * series[static_cast<size_t>(t - j)];
  }
  return acc;
}

Result<std::vector<double>> ArPredictor::Forecast(
    const std::vector<double>& series, int64_t t, int32_t horizon) const {
  if (horizon < 1 || horizon > static_cast<int32_t>(coeffs_.size())) {
    return Status::InvalidArgument("horizon out of fitted range");
  }
  std::vector<double> out(static_cast<size_t>(horizon));
  for (int32_t h = 1; h <= horizon; ++h) {
    auto v = ForecastAt(series, t, h);
    if (!v.ok()) return v.status();
    out[static_cast<size_t>(h - 1)] = *v;
  }
  return out;
}

double ArmaPredictor::LongArPredict(const std::vector<double>& series,
                                    int64_t t) const {
  // One-step prediction of series[t] from series[t-1 .. t-L].
  double acc = long_ar_[0];
  for (int32_t j = 0; j < long_order_; ++j) {
    acc += long_ar_[static_cast<size_t>(j) + 1] *
           series[static_cast<size_t>(t - 1 - j)];
  }
  return acc;
}

double ArmaPredictor::Innovation(const std::vector<double>& series,
                                 int64_t t) const {
  return series[static_cast<size_t>(t)] - LongArPredict(series, t);
}

Status ArmaPredictor::Fit(const std::vector<double>& train,
                          int32_t max_horizon) {
  if (p_ < 1 || q_ < 1) {
    return Status::InvalidArgument("ARMA orders must be >= 1");
  }
  if (max_horizon < 1) {
    return Status::InvalidArgument("max_horizon must be >= 1");
  }
  long_order_ = p_ + q_ + 10;

  // Stage 1: long one-step AR for innovation estimation.
  {
    const int64_t t_min = long_order_;
    const int64_t t_max = static_cast<int64_t>(train.size()) - 1 - 1;
    auto fill = [&](int64_t t, double* out) {
      for (int32_t j = 0; j < long_order_; ++j) {
        out[j] = train[static_cast<size_t>(t - j)];
      }
    };
    auto fitted = FitRegression(t_min, t_max, long_order_, fill, train, 1);
    if (!fitted.ok()) return fitted.status();
    // Stage-1 fit predicts y(t+1) from y(t-j); re-index so that
    // LongArPredict(series, t) predicts series[t] from t-1-j lags.
    long_ar_ = std::move(fitted).MoveValueUnsafe();
  }

  // Precompute innovations over the training series.
  std::vector<double> innov(train.size(), 0.0);
  for (int64_t t = long_order_ + 1;
       t < static_cast<int64_t>(train.size()); ++t) {
    innov[static_cast<size_t>(t)] = Innovation(train, t);
  }

  // Stage 2: per-tau regression on load lags + innovation lags.
  const int64_t t_min = MinHistory();
  auto fill = [&](int64_t t, double* out) {
    for (int32_t j = 0; j < p_; ++j) {
      out[j] = train[static_cast<size_t>(t - j)];
    }
    for (int32_t k = 0; k < q_; ++k) {
      out[p_ + k] = innov[static_cast<size_t>(t - k)];
    }
  };
  return FitHorizons(max_horizon, [&](int32_t tau) {
    const int64_t t_max = static_cast<int64_t>(train.size()) - 1 - tau;
    return FitRegression(t_min, t_max, p_ + q_, fill, train, tau);
  }, &coeffs_);
}

Result<double> ArmaPredictor::ForecastAt(const std::vector<double>& series,
                                         int64_t t, int32_t tau) const {
  if (coeffs_.empty()) {
    return Status::FailedPrecondition("ArmaPredictor: Fit not called");
  }
  if (tau < 1 || tau > static_cast<int32_t>(coeffs_.size())) {
    return Status::InvalidArgument("tau out of fitted range");
  }
  if (t < MinHistory() || t >= static_cast<int64_t>(series.size())) {
    return Status::InvalidArgument("not enough history at t");
  }
  const std::vector<double>& w = coeffs_[static_cast<size_t>(tau - 1)];
  double acc = w[0];
  for (int32_t j = 0; j < p_; ++j) {
    acc += w[static_cast<size_t>(j) + 1] * series[static_cast<size_t>(t - j)];
  }
  for (int32_t k = 0; k < q_; ++k) {
    acc += w[static_cast<size_t>(p_ + k) + 1] * Innovation(series, t - k);
  }
  return acc;
}

Result<std::vector<double>> ArmaPredictor::Forecast(
    const std::vector<double>& series, int64_t t, int32_t horizon) const {
  if (horizon < 1 || horizon > static_cast<int32_t>(coeffs_.size())) {
    return Status::InvalidArgument("horizon out of fitted range");
  }
  std::vector<double> out(static_cast<size_t>(horizon));
  for (int32_t h = 1; h <= horizon; ++h) {
    auto v = ForecastAt(series, t, h);
    if (!v.ok()) return v.status();
    out[static_cast<size_t>(h - 1)] = *v;
  }
  return out;
}

}  // namespace pstore
