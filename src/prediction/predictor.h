#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

/// \file predictor.h
/// The load-forecasting interface P-Store's Predictor component exposes
/// to the Predictive Controller (Section 6): given the measured load
/// series up to "now", forecast the next H slots. Implementations: SPAR
/// (the paper's default), AR and ARMA baselines, and an Oracle used for
/// the "P-Store Oracle" upper bound in Figure 12.

namespace pstore {

/// Regularization SPAR, AR and ARMA pass to LeastSquares.
inline constexpr double kFitRidge = 1e-6;

/// \brief Abstract multi-horizon load forecaster.
class LoadPredictor {
 public:
  virtual ~LoadPredictor() = default;

  /// Human-readable model name ("SPAR", "AR", "ARMA", "Oracle").
  virtual std::string name() const = 0;

  /// (Re)fits the model on `train` (one value per slot). Called once
  /// up front and periodically thereafter (the paper refits weekly).
  /// `max_horizon` is the largest forecast distance, in slots, that
  /// Forecast will be asked for.
  virtual Status Fit(const std::vector<double>& train,
                     int32_t max_horizon) = 0;

  /// Refits after new slots were appended to the end of `train` (the
  /// controller's per-tick path). `train` must extend the series from
  /// the previous Fit/Refit with the same prefix. The default performs
  /// a full Fit; models with sufficient statistics override this with
  /// an incremental update that yields the same coefficients.
  virtual Status Refit(const std::vector<double>& train,
                       int32_t max_horizon) {
    return Fit(train, max_horizon);
  }

  /// Smallest index `t` for which Forecast(series, t, ...) is valid.
  virtual int64_t MinHistory() const = 0;

  /// Forecasts the load at slots t+1 .. t+horizon given measurements
  /// series[0..t]. `series` may extend beyond t; entries after t must
  /// not be read (the Oracle intentionally does, which is its point).
  virtual Result<std::vector<double>> Forecast(
      const std::vector<double>& series, int64_t t,
      int32_t horizon) const = 0;

  /// Forecasts only slot t + tau. The default delegates to Forecast;
  /// models with per-tau coefficients override this to skip the
  /// intermediate horizons.
  virtual Result<double> ForecastAt(const std::vector<double>& series,
                                    int64_t t, int32_t tau) const {
    auto res = Forecast(series, t, tau);
    if (!res.ok()) return res.status();
    return res->back();
  }
};

/// \brief Perfect predictor: returns the actual future from the trace.
///
/// Optionally multiplies forecasts by (1 + inflation), matching how the
/// evaluation inflates all predictions by 15% to create headroom.
class OraclePredictor : public LoadPredictor {
 public:
  explicit OraclePredictor(double inflation = 0.0)
      : inflation_(inflation) {}

  std::string name() const override { return "Oracle"; }
  Status Fit(const std::vector<double>&, int32_t) override {
    return Status::OK();
  }
  int64_t MinHistory() const override { return 0; }
  Result<std::vector<double>> Forecast(const std::vector<double>& series,
                                       int64_t t,
                                       int32_t horizon) const override;

 private:
  double inflation_;
};

/// \brief Decorator that inflates another predictor's forecasts by a
/// fixed fraction ("to account for load prediction error, we inflate all
/// predictions by 15%", Section 8.2).
class InflatingPredictor : public LoadPredictor {
 public:
  InflatingPredictor(std::unique_ptr<LoadPredictor> inner, double inflation)
      : inner_(std::move(inner)), inflation_(inflation) {}

  std::string name() const override {
    return inner_->name() + "+" + std::to_string(inflation_);
  }
  Status Fit(const std::vector<double>& train, int32_t max_horizon) override {
    return inner_->Fit(train, max_horizon);
  }
  Status Refit(const std::vector<double>& train,
               int32_t max_horizon) override {
    return inner_->Refit(train, max_horizon);
  }
  int64_t MinHistory() const override { return inner_->MinHistory(); }
  Result<std::vector<double>> Forecast(const std::vector<double>& series,
                                       int64_t t,
                                       int32_t horizon) const override;

 private:
  std::unique_ptr<LoadPredictor> inner_;
  double inflation_;
};

/// \brief Accuracy evaluation for Figures 5b and 6b: mean relative error
/// of tau-slot-ahead predictions over a test range.
///
/// For each t in [begin, end - tau), asks the predictor to forecast slot
/// t + tau and compares with the actual series value.
Result<double> EvaluateMre(const LoadPredictor& predictor,
                           const std::vector<double>& series, int64_t begin,
                           int64_t end, int32_t tau);

}  // namespace pstore
