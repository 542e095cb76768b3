#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "prediction/predictor.h"

/// \file ar.h
/// Auto-regressive baselines the paper compares SPAR against
/// (Section 5 "Discussion": at tau = 60 min the B2W MRE is 10.4% for
/// SPAR, 12.2% for ARMA and 12.5% for AR):
///
///  - ArPredictor:   y(t+tau) = c + sum_{j=0..p-1} a_j * y(t-j)
///  - ArmaPredictor: adds moving-average terms on the residuals of a
///    long auto-regression (Hannan-Rissanen two-stage estimation):
///    y(t+tau) = c + sum a_j y(t-j) + sum b_k e(t-k).
///
/// One coefficient set is fit per forecast distance tau (direct
/// multi-step estimation, same convention as SparPredictor).

namespace pstore {

/// \brief Plain AR(p) with intercept, direct multi-step fit.
class ArPredictor : public LoadPredictor {
 public:
  explicit ArPredictor(int32_t order = 30) : order_(order) {}

  std::string name() const override { return "AR"; }
  Status Fit(const std::vector<double>& train, int32_t max_horizon) override;
  int64_t MinHistory() const override { return order_ - 1; }
  Result<std::vector<double>> Forecast(const std::vector<double>& series,
                                       int64_t t,
                                       int32_t horizon) const override;
  Result<double> ForecastAt(const std::vector<double>& series, int64_t t,
                            int32_t tau) const override;

 private:
  int32_t order_;
  // coeffs_[tau-1] = [c, a_0..a_{p-1}]
  std::vector<std::vector<double>> coeffs_;
};

/// \brief ARMA(p, q) via Hannan-Rissanen, direct multi-step fit.
///
/// Stage 1 fits a long AR to estimate the innovation sequence e(t);
/// stage 2 regresses y(t+tau) on p load lags and q innovation lags.
/// At prediction time innovations are recomputed from the observed
/// series with the stage-1 model.
class ArmaPredictor : public LoadPredictor {
 public:
  ArmaPredictor(int32_t ar_order = 30, int32_t ma_order = 10)
      : p_(ar_order), q_(ma_order) {}

  std::string name() const override { return "ARMA"; }
  Status Fit(const std::vector<double>& train, int32_t max_horizon) override;
  int64_t MinHistory() const override {
    return long_order_ + std::max(p_, q_);
  }
  Result<std::vector<double>> Forecast(const std::vector<double>& series,
                                       int64_t t,
                                       int32_t horizon) const override;
  Result<double> ForecastAt(const std::vector<double>& series, int64_t t,
                            int32_t tau) const override;

 private:
  /// One-step-ahead stage-1 prediction of series[t] from prior lags.
  double LongArPredict(const std::vector<double>& series, int64_t t) const;
  /// Innovation e(t) = y(t) - stage-1 prediction of y(t).
  double Innovation(const std::vector<double>& series, int64_t t) const;

  int32_t p_;
  int32_t q_;
  int32_t long_order_ = 0;
  std::vector<double> long_ar_;  // [c, a_0..a_{L-1}], one-step
  // coeffs_[tau-1] = [c, a_0..a_{p-1}, b_0..b_{q-1}]
  std::vector<std::vector<double>> coeffs_;
};

}  // namespace pstore
