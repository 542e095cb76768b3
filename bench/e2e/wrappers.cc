#include "wrappers.h"

namespace pstore {
namespace e2e {

Result<ProcedureRegistry> TraceProcedures(const ProcedureRegistry& registry,
                                          LayerTracer* tracer,
                                          int32_t layer) {
  ProcedureRegistry out;
  for (size_t i = 0; i < registry.size(); ++i) {
    const ProcedureId id = static_cast<ProcedureId>(i);
    ProcedureDef def = registry.Get(id);
    def.body = [body = def.body, tracer, layer](ExecutionContext& ctx,
                                                const TxnRequest& req) {
      LayerTracer::Scope scope = tracer->Enter(layer, req.txn_id);
      return body(ctx, req);
    };
    auto wrapped = out.Register(std::move(def));
    if (!wrapped.ok()) return wrapped.status();
    if (*wrapped != id) {
      return Status::Internal("procedure id changed while wrapping");
    }
  }
  return out;
}

Status TracedPredictor::Fit(const std::vector<double>& train,
                            int32_t max_horizon) {
  LayerTracer::Scope scope = EnterIf(tracer_, layers_.fit, 0);
  return inner_->Fit(train, max_horizon);
}

Status TracedPredictor::Refit(const std::vector<double>& train,
                              int32_t max_horizon) {
  LayerTracer::Scope scope = EnterIf(tracer_, layers_.fit, 0);
  return inner_->Refit(train, max_horizon);
}

Result<std::vector<double>> TracedPredictor::Forecast(
    const std::vector<double>& series, int64_t t, int32_t horizon) const {
  LayerTracer::Scope scope = EnterIf(tracer_, layers_.forecast, t);
  return inner_->Forecast(series, t, horizon);
}

Result<double> TracedPredictor::ForecastAt(const std::vector<double>& series,
                                           int64_t t, int32_t tau) const {
  LayerTracer::Scope scope = EnterIf(tracer_, layers_.forecast, t);
  return inner_->ForecastAt(series, t, tau);
}

}  // namespace e2e
}  // namespace pstore
