#pragma once

#include "obs/event_stream.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "obs/txn_trace.h"

/// \file telemetry.h
/// The non-owning bundle each subsystem accepts via set_telemetry():
/// metrics registry, span tracer, event stream, and txn-trace recorder.
/// Any pointer may be null. A component binds the counts it keeps
/// anyway into the registry (MetricsRegistry::BindCounter) and guards
/// only the handles and sinks it records through, so un-instrumented
/// runs pay nothing. TelemetryBundle is the owning convenience for
/// harnesses (benches, examples, tests) that want all of them.

namespace pstore {
namespace obs {

/// \brief Borrowed views of a run's telemetry sinks.
struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  SpanTracer* tracer = nullptr;
  EventStream* events = nullptr;
  TxnTraceRecorder* txn_traces = nullptr;

  bool any() const {
    return metrics != nullptr || tracer != nullptr || events != nullptr ||
           txn_traces != nullptr;
  }
};

/// \brief Owns one run's telemetry; view() is what gets handed around.
struct TelemetryBundle {
  MetricsRegistry metrics;
  SpanTracer tracer;
  EventStream events;
  TxnTraceRecorder txn_traces;  ///< Disabled (sample_rate 0) by default.

  Telemetry view() {
    return Telemetry{&metrics, &tracer, &events, &txn_traces};
  }
};

}  // namespace obs
}  // namespace pstore
