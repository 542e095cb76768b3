#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "prediction/predictor.h"
#include "sim/capacity_sim.h"
#include "tracer.h"
#include "txn/procedure.h"

/// \file wrappers.h
/// The public boundaries the benchmark owns, wrapped so the traced run
/// can count and time calls into the layers behind them. Each wrapper
/// forwards every call unchanged, so the traced and untraced runs
/// produce identical virtual outputs (the fingerprint check holds them
/// to that).

namespace pstore {
namespace e2e {

/// Copies `registry`, wrapping every body in `tracer`'s `layer` (keyed
/// by txn id). Ids, names, weights and priorities are preserved.
Result<ProcedureRegistry> TraceProcedures(const ProcedureRegistry& registry,
                                          LayerTracer* tracer, int32_t layer);

/// Forwards to a predictor it does not own, timing Forecast/ForecastAt
/// (keyed by slot index) and Fit/Refit when a tracer is set. Refit and
/// ForecastAt are forwarded too: falling back to the base-class
/// defaults would turn SPAR's incremental refit into a full Fit.
class TracedPredictor : public LoadPredictor {
 public:
  struct Layers {
    int32_t fit = -1;
    int32_t forecast = -1;
  };

  TracedPredictor(LoadPredictor* inner, LayerTracer* tracer, Layers layers)
      : inner_(inner), tracer_(tracer), layers_(layers) {}

  std::string name() const override { return inner_->name(); }
  Status Fit(const std::vector<double>& train, int32_t max_horizon) override;
  Status Refit(const std::vector<double>& train,
               int32_t max_horizon) override;
  int64_t MinHistory() const override { return inner_->MinHistory(); }
  Result<std::vector<double>> Forecast(const std::vector<double>& series,
                                       int64_t t,
                                       int32_t horizon) const override;
  Result<double> ForecastAt(const std::vector<double>& series, int64_t t,
                            int32_t tau) const override;

 private:
  LoadPredictor* inner_;
  LayerTracer* tracer_;
  Layers layers_;
};

/// Forwards to an allocation strategy it does not own, timing Decide
/// (keyed by control-tick index) when a tracer is set.
class TracedStrategy : public AllocationStrategy {
 public:
  TracedStrategy(AllocationStrategy* inner, LayerTracer* tracer,
                 int32_t layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  std::string name() const override { return inner_->name(); }
  void Reset() override {
    ticks_ = 0;
    inner_->Reset();
  }
  AllocationDecision Decide(const std::vector<double>& load, int64_t minute,
                            int32_t current_machines) override {
    LayerTracer::Scope scope = EnterIf(tracer_, layer_, ticks_++);
    return inner_->Decide(load, minute, current_machines);
  }

 private:
  AllocationStrategy* inner_;
  LayerTracer* tracer_;
  int32_t layer_;
  int64_t ticks_ = 0;
};

}  // namespace e2e
}  // namespace pstore
