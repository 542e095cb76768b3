#pragma once

#include <cstdint>
#include <vector>

#include "common/linalg.h"
#include "common/status.h"
#include "prediction/predictor.h"

/// \file spar.h
/// Sparse Periodic Auto-Regression (SPAR), the paper's default load
/// model (Section 5, Equation 8):
///
///   y(t+tau) = sum_{k=1..n} a_k * y(t + tau - k*T)
///            + sum_{j=1..m} b_j * Dy(t - j)
///
///   Dy(t-j)  = y(t-j) - (1/n) * sum_{k=1..n} y(t - j - k*T)
///
/// where T is the seasonal period in slots (1440 for per-minute data),
/// n the number of previous periods (7 = the previous week) and m the
/// number of recent measurements (30 minutes). Coefficients a_k, b_j are
/// fit by linear least squares on the training series, one coefficient
/// set per forecast distance tau.

namespace pstore {

/// SPAR hyper-parameters. Defaults are the paper's B2W settings.
struct SparConfig {
  int32_t period = 1440;     ///< T: slots per seasonal period.
  int32_t num_periods = 7;   ///< n: seasonal lags (previous periods).
  int32_t num_recent = 30;   ///< m: recent-offset lags.

  Status Validate() const;
};

/// \brief Coefficients for a single forecast distance tau.
class SparModel {
 public:
  /// Fits a_k, b_j on `train` for forecast distance `tau` slots.
  /// Requires enough history: train.size() > n*T + max(m, tau) + tau.
  static Result<SparModel> Fit(const std::vector<double>& train, int32_t tau,
                               const SparConfig& config);

  /// Predicts y(t + tau) from series[0..t]. Precondition:
  /// t >= MinHistory() and t < series.size().
  double Predict(const std::vector<double>& series, int64_t t) const;

  /// Smallest t usable by Predict: n*T + m.
  int64_t MinHistory() const;

  int32_t tau() const { return tau_; }
  const SparConfig& config() const { return config_; }

  /// a_1..a_n — weights on the same slot in previous periods.
  const std::vector<double>& periodic_coefficients() const { return a_; }
  /// b_1..b_m — weights on recent offsets from the periodic mean.
  const std::vector<double>& recent_coefficients() const { return b_; }

 private:
  friend class SparPredictor;  // builds models from incremental stats

  SparModel(SparConfig config, int32_t tau, std::vector<double> a,
            std::vector<double> b);

  SparConfig config_;
  int32_t tau_ = 1;
  std::vector<double> a_;
  std::vector<double> b_;
};

/// \brief LoadPredictor backed by one SparModel per forecast distance.
///
/// Fit() trains models for tau = 1..max_horizon; Forecast() evaluates
/// each. This is the "Predictor" component of Section 6.
///
/// Fit maintains per-tau normal equations (A^T A and A^T b) as
/// sufficient statistics, so Refit() after new slots were appended
/// only accumulates the new design rows and re-solves the small
/// (n+m)x(n+m) system — the per-tick controller path drops from a full
/// O(len * (n+m)^2) re-fit to O(new_slots * (n+m)^2). Rows are folded
/// with FoldGramRows, as Matrix::Gram() and LeastSquares fold them, so
/// refitted coefficients are bit-identical to a full Fit on the
/// extended series.
///
/// Dy(t - j) depends on t and j only through t - j, so a Fit or Refit
/// computes Dy once for each slot its new rows read, and every tau's
/// rows read that one table. Fit's taus are independent least-squares
/// problems and run under ParallelFor, each folding its rows, in row
/// order, into its own statistics, so no coefficient depends on the
/// thread count. Refit stays serial: its few new rows cost less than
/// starting threads.
class SparPredictor : public LoadPredictor {
 public:
  explicit SparPredictor(SparConfig config = SparConfig{})
      : config_(config) {}

  std::string name() const override { return "SPAR"; }
  Status Fit(const std::vector<double>& train, int32_t max_horizon) override;
  Status Refit(const std::vector<double>& train,
               int32_t max_horizon) override;
  int64_t MinHistory() const override;
  Result<std::vector<double>> Forecast(const std::vector<double>& series,
                                       int64_t t,
                                       int32_t horizon) const override;
  Result<double> ForecastAt(const std::vector<double>& series, int64_t t,
                            int32_t tau) const override;

  /// Fitted per-tau models (models()[i] forecasts tau = i + 1). Exposed
  /// so the equivalence suite can compare Refit against a full Fit
  /// coefficient by coefficient.
  const std::vector<SparModel>& models() const { return models_; }

 private:
  /// Per-tau accumulated normal equations. gram_upper holds only the
  /// upper triangle (as Matrix::Gram accumulates); next_t is the first
  /// design row not yet folded in.
  struct TauStats {
    Matrix gram_upper;
    std::vector<double> xty;
    int64_t next_t = 0;
  };

  /// Dy(s) for the consecutive slots s = first, first + 1, ...
  struct Deviations {
    int64_t first = 0;
    std::vector<double> values;
  };

  /// What fitting `tau` on `len` slots fails with before it reads a row
  /// (bad config, tau out of range, too few rows), or OK.
  Status CheckTau(int64_t len, int32_t tau) const;

  /// Dy(s) for every slot s that design rows first_t..len-2 read.
  Deviations ComputeDeviations(const std::vector<double>& train,
                               int64_t first_t) const;

  /// Extends stats_[tau-1] with rows next_t..t_max of `train`, built
  /// kGramBlockRows at a time in `block` (resized as needed) and folded
  /// with FoldGramRows, and re-solves for the tau's coefficients.
  /// Precondition: CheckTau(train.size(), tau) is OK and `dy` covers
  /// the new rows.
  Result<SparModel> SolveTau(const std::vector<double>& train,
                             const Deviations& dy, int32_t tau,
                             std::vector<double>* block);

  SparConfig config_;
  std::vector<SparModel> models_;  // models_[i] forecasts tau = i + 1
  std::vector<TauStats> stats_;    // parallel to models_
  int64_t fitted_len_ = 0;         // train.size() at the last (re)fit
};

}  // namespace pstore
