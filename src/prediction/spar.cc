#include "prediction/spar.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/linalg.h"
#include "common/parallel.h"

namespace pstore {

Status SparConfig::Validate() const {
  if (period < 2) return Status::InvalidArgument("period must be >= 2");
  if (num_periods < 1) {
    return Status::InvalidArgument("num_periods must be >= 1");
  }
  if (num_recent < 0) {
    return Status::InvalidArgument("num_recent must be >= 0");
  }
  return Status::OK();
}

SparModel::SparModel(SparConfig config, int32_t tau, std::vector<double> a,
                     std::vector<double> b)
    : config_(config), tau_(tau), a_(std::move(a)), b_(std::move(b)) {}

int64_t SparModel::MinHistory() const {
  return static_cast<int64_t>(config_.num_periods) * config_.period +
         config_.num_recent;
}

namespace {

/// Dy(t - j) = y(t - j) minus the mean of the same slot over the n
/// previous periods.
double RecentDeviation(const std::vector<double>& y, int64_t t, int32_t j,
                       const SparConfig& cfg) {
  const int64_t period = cfg.period;
  const int32_t n = cfg.num_periods;
  double periodic_mean = 0;
  for (int32_t k = 1; k <= n; ++k) {
    periodic_mean += y[static_cast<size_t>(t - j - k * period)];
  }
  periodic_mean /= n;
  return y[static_cast<size_t>(t - j)] - periodic_mean;
}

/// Fills one feature row for predicting y(t + tau) from series[0..t].
/// Layout: [y(t+tau-kT) for k=1..n] ++ [Dy(t-j) for j=1..m].
void FillFeatures(const std::vector<double>& y, int64_t t, int32_t tau,
                  const SparConfig& cfg, double* out) {
  const int64_t period = cfg.period;
  const int32_t n = cfg.num_periods;
  const int32_t m = cfg.num_recent;
  for (int32_t k = 1; k <= n; ++k) {
    out[k - 1] = y[static_cast<size_t>(t + tau - k * period)];
  }
  for (int32_t j = 1; j <= m; ++j) {
    out[n + j - 1] = RecentDeviation(y, t, j, cfg);
  }
}

/// Equation 8 for one tau: the dot product of the model's coefficients
/// with the feature row of (y, t), in feature order. `recent(j)`
/// supplies Dy(t - j - 1); it does not depend on tau, so Forecast
/// computes it once for all horizon steps. Predict and Forecast both
/// sum here, so their outputs are bit-identical.
template <typename Recent>
double Combine(const SparModel& model, const std::vector<double>& y,
               int64_t t, Recent recent) {
  const int64_t period = model.config().period;
  const std::vector<double>& a = model.periodic_coefficients();
  const std::vector<double>& b = model.recent_coefficients();
  double acc = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    const int64_t lag = static_cast<int64_t>(k + 1) * period;
    acc += a[k] * y[static_cast<size_t>(t + model.tau() - lag)];
  }
  for (size_t j = 0; j < b.size(); ++j) acc += b[j] * recent(j);
  return acc;
}

}  // namespace

Result<SparModel> SparModel::Fit(const std::vector<double>& train,
                                 int32_t tau, const SparConfig& config) {
  PSTORE_RETURN_NOT_OK(config.Validate());
  if (tau < 1 || tau >= config.period) {
    return Status::InvalidArgument(
        "tau must be in [1, period); got " + std::to_string(tau));
  }
  const int32_t n = config.num_periods;
  const int32_t m = config.num_recent;
  const int64_t t_min =
      static_cast<int64_t>(n) * config.period + m;  // = MinHistory
  const int64_t t_max = static_cast<int64_t>(train.size()) - 1 - tau;
  const int64_t rows = t_max - t_min + 1;
  if (rows < n + m + 1) {
    return Status::InvalidArgument(
        "not enough training data: need > " +
        std::to_string(t_min + tau + n + m) + " slots, have " +
        std::to_string(train.size()));
  }

  Matrix design(static_cast<size_t>(rows), static_cast<size_t>(n + m));
  std::vector<double> target(static_cast<size_t>(rows));
  std::vector<double> feature_row(static_cast<size_t>(n + m));
  for (int64_t t = t_min; t <= t_max; ++t) {
    FillFeatures(train, t, tau, config, feature_row.data());
    const size_t r = static_cast<size_t>(t - t_min);
    for (size_t c = 0; c < feature_row.size(); ++c) {
      design(r, c) = feature_row[c];
    }
    target[r] = train[static_cast<size_t>(t + tau)];
  }

  auto solved = LeastSquares(design, target, kFitRidge);
  if (!solved.ok()) return solved.status();
  std::vector<double> coeffs = std::move(solved).MoveValueUnsafe();
  std::vector<double> a(coeffs.begin(), coeffs.begin() + n);
  std::vector<double> b(coeffs.begin() + n, coeffs.end());
  return SparModel(config, tau, std::move(a), std::move(b));
}

double SparModel::Predict(const std::vector<double>& series, int64_t t) const {
  assert(t >= MinHistory());
  assert(t < static_cast<int64_t>(series.size()));
  return Combine(*this, series, t, [&](size_t j) {
    return RecentDeviation(series, t, static_cast<int32_t>(j + 1), config_);
  });
}

Status SparPredictor::CheckTau(int64_t len, int32_t tau) const {
  PSTORE_RETURN_NOT_OK(config_.Validate());
  if (tau < 1 || tau >= config_.period) {
    return Status::InvalidArgument(
        "tau must be in [1, period); got " + std::to_string(tau));
  }
  const int32_t n = config_.num_periods;
  const int32_t m = config_.num_recent;
  const int64_t t_min = static_cast<int64_t>(n) * config_.period + m;
  const int64_t rows = len - tau - t_min;
  if (rows < n + m + 1) {
    return Status::InvalidArgument(
        "not enough training data: need > " +
        std::to_string(t_min + tau + n + m) + " slots, have " +
        std::to_string(len));
  }
  return Status::OK();
}

SparPredictor::Deviations SparPredictor::ComputeDeviations(
    const std::vector<double>& train, int64_t first_t) const {
  // Row t reads Dy(t - m) .. Dy(t - 1); the last row, t = len - 2,
  // predicts the last slot one step ahead.
  Deviations dy;
  dy.first = first_t - config_.num_recent;
  const int64_t last = static_cast<int64_t>(train.size()) - 3;
  dy.values.reserve(static_cast<size_t>(std::max<int64_t>(
      0, last - dy.first + 1)));
  for (int64_t s = dy.first; s <= last; ++s) {
    dy.values.push_back(RecentDeviation(train, s, 0, config_));
  }
  return dy;
}

Result<SparModel> SparPredictor::SolveTau(const std::vector<double>& train,
                                          const Deviations& dy, int32_t tau,
                                          std::vector<double>* block) {
  const int64_t period = config_.period;
  const int32_t n = config_.num_periods;
  const int32_t m = config_.num_recent;
  const size_t dim = static_cast<size_t>(n + m);
  const int64_t t_max = static_cast<int64_t>(train.size()) - 1 - tau;

  TauStats& stats = stats_[static_cast<size_t>(tau - 1)];
  // Build the new rows a block at a time and fold each block with
  // FoldGramRows, which sums exactly as Matrix::Gram and LeastSquares
  // do, so the running sums stay bit-identical to a from-scratch build
  // over all rows.
  const size_t block_rows = static_cast<size_t>(std::clamp<int64_t>(
      t_max + 1 - stats.next_t, 0, static_cast<int64_t>(kGramBlockRows)));
  block->resize((dim + 1) * block_rows);
  double* const rows = block->data();  // the block's rows, then its targets
  double* const targets = rows + dim * block_rows;
  for (int64_t t0 = stats.next_t; t0 <= t_max;
       t0 += static_cast<int64_t>(block_rows)) {
    const int64_t t_end =
        std::min(t_max + 1, t0 + static_cast<int64_t>(block_rows));
    double* row = rows;
    for (int64_t t = t0; t < t_end; ++t, row += dim) {
      // Layout: [y(t+tau-kT) for k=1..n] ++ [Dy(t-j) for j=1..m].
      for (int32_t k = 1; k <= n; ++k) {
        row[k - 1] = train[static_cast<size_t>(t + tau - k * period)];
      }
      const double* recent = dy.values.data() + (t - dy.first);  // Dy(t)
      for (int32_t j = 1; j <= m; ++j) row[n + j - 1] = recent[-j];
      targets[static_cast<size_t>(t - t0)] =
          train[static_cast<size_t>(t + tau)];
    }
    FoldGramRows(rows, dim, targets,
                 static_cast<size_t>(t_end - t0), dim, &stats.gram_upper,
                 stats.xty.data());
  }
  stats.next_t = t_max + 1;

  Matrix gram = stats.gram_upper;
  MirrorUpperTriangle(&gram);
  auto solved = SolveNormalEquations(std::move(gram), stats.xty, kFitRidge);
  if (!solved.ok()) return solved.status();
  std::vector<double> coeffs = std::move(solved).MoveValueUnsafe();
  std::vector<double> a(coeffs.begin(), coeffs.begin() + n);
  std::vector<double> b(coeffs.begin() + n, coeffs.end());
  return SparModel(config_, tau, std::move(a), std::move(b));
}

Status SparPredictor::Fit(const std::vector<double>& train,
                          int32_t max_horizon) {
  if (max_horizon < 1) {
    return Status::InvalidArgument("max_horizon must be >= 1");
  }
  // CheckTau fails for every tau from some tau* on. Fit reports what
  // solving tau = 1, 2, ... in turn would stop at: the first failing
  // solve below tau*, else tau*'s check.
  const int64_t len = static_cast<int64_t>(train.size());
  int32_t fittable = 0;
  Status unfittable;
  while (fittable < max_horizon) {
    unfittable = CheckTau(len, fittable + 1);
    if (!unfittable.ok()) break;
    ++fittable;
  }
  if (fittable == 0) {
    stats_.clear();
    return unfittable;
  }

  const int32_t n = config_.num_periods;
  const int32_t m = config_.num_recent;
  const size_t dim = static_cast<size_t>(n + m);
  const int64_t t_min = static_cast<int64_t>(n) * config_.period + m;
  stats_.assign(static_cast<size_t>(max_horizon), TauStats{});
  const Deviations dy = ComputeDeviations(train, t_min);
  // Each tau's sums and block buffer are allocated by the thread that
  // folds into them.
  std::vector<Result<SparModel>> solved(
      static_cast<size_t>(fittable), Status::Internal("tau not solved"));
  ParallelFor(fittable, [&](int64_t i) {
    TauStats& stats = stats_[static_cast<size_t>(i)];
    stats.gram_upper = Matrix(dim, dim, 0.0);
    stats.xty.assign(dim, 0.0);
    stats.next_t = t_min;
    std::vector<double> block;
    solved[static_cast<size_t>(i)] =
        SolveTau(train, dy, static_cast<int32_t>(i + 1), &block);
  });

  std::vector<SparModel> models;
  models.reserve(static_cast<size_t>(max_horizon));
  for (Result<SparModel>& model : solved) {
    if (!model.ok()) {
      stats_.clear();
      return model.status();
    }
    models.push_back(std::move(model).MoveValueUnsafe());
  }
  if (fittable < max_horizon) {
    stats_.clear();
    return unfittable;
  }
  models_ = std::move(models);
  fitted_len_ = len;
  return Status::OK();
}

Status SparPredictor::Refit(const std::vector<double>& train,
                            int32_t max_horizon) {
  // Incremental only when the previous fit exists for the same horizon
  // and `train` extends it; anything else falls back to a full Fit.
  if (stats_.empty() ||
      static_cast<size_t>(max_horizon) != stats_.size() ||
      static_cast<int64_t>(train.size()) < fitted_len_) {
    return Fit(train, max_horizon);
  }
  int64_t first_t = stats_.front().next_t;
  for (const TauStats& stats : stats_) {
    first_t = std::min(first_t, stats.next_t);
  }
  const Deviations dy = ComputeDeviations(train, first_t);
  std::vector<double> block;  // shared by the taus, solved in turn
  std::vector<SparModel> models;
  models.reserve(static_cast<size_t>(max_horizon));
  for (int32_t tau = 1; tau <= max_horizon; ++tau) {
    PSTORE_RETURN_NOT_OK(
        CheckTau(static_cast<int64_t>(train.size()), tau));
    auto model = SolveTau(train, dy, tau, &block);
    if (!model.ok()) return model.status();
    models.push_back(std::move(model).MoveValueUnsafe());
  }
  models_ = std::move(models);
  fitted_len_ = static_cast<int64_t>(train.size());
  return Status::OK();
}

int64_t SparPredictor::MinHistory() const {
  return static_cast<int64_t>(config_.num_periods) * config_.period +
         config_.num_recent;
}

Result<std::vector<double>> SparPredictor::Forecast(
    const std::vector<double>& series, int64_t t, int32_t horizon) const {
  if (models_.empty()) {
    return Status::FailedPrecondition("SparPredictor: Fit not called");
  }
  if (horizon < 1 || horizon > static_cast<int32_t>(models_.size())) {
    return Status::InvalidArgument("horizon out of fitted range");
  }
  if (t < MinHistory() || t >= static_cast<int64_t>(series.size())) {
    return Status::InvalidArgument("not enough history at t");
  }
  std::vector<double> recent(static_cast<size_t>(config_.num_recent));
  for (size_t j = 0; j < recent.size(); ++j) {
    recent[j] =
        RecentDeviation(series, t, static_cast<int32_t>(j + 1), config_);
  }
  std::vector<double> out(static_cast<size_t>(horizon));
  for (int32_t h = 1; h <= horizon; ++h) {
    out[static_cast<size_t>(h - 1)] =
        Combine(models_[static_cast<size_t>(h - 1)], series, t,
                [&recent](size_t j) { return recent[j]; });
  }
  return out;
}

Result<double> SparPredictor::ForecastAt(const std::vector<double>& series,
                                         int64_t t, int32_t tau) const {
  if (models_.empty()) {
    return Status::FailedPrecondition("SparPredictor: Fit not called");
  }
  if (tau < 1 || tau > static_cast<int32_t>(models_.size())) {
    return Status::InvalidArgument("tau out of fitted range");
  }
  if (t < MinHistory() || t >= static_cast<int64_t>(series.size())) {
    return Status::InvalidArgument("not enough history at t");
  }
  return models_[static_cast<size_t>(tau - 1)].Predict(series, t);
}

}  // namespace pstore
