#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"

/// \file metrics.h
/// Deterministic, allocation-light metrics for the simulator stack: a
/// registry of named counters, gauges and histograms that every layer
/// (controller, planner, migration, cluster) records into. Metric names
/// follow "subsystem.name" (e.g. "migration.chunk_retries"). Dumps
/// iterate names in sorted order, and all inputs are virtual-time or
/// seeded-Rng derived, so two runs from the same seed produce
/// byte-identical dumps — the same determinism contract as the fault
/// layer's EventTrace.
///
/// Observability is switched off one way: attach no sink. Instrumented
/// code caches metric pointers from an attached registry and skips
/// recording when none was attached.

namespace pstore {
namespace obs {

/// \brief Monotone int64 counter.
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// \brief Last-value-wins double gauge (also supports Add for totals
/// that are naturally fractional, e.g. kB moved).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// \brief Fixed-bucket distribution metric, backed by common/Histogram
/// (log-bucketed, ~2% relative error — fine for latency in us).
class HistogramMetric {
 public:
  void Record(int64_t value) { histogram_.Record(value); }
  void MergeFrom(const HistogramMetric& other) {
    histogram_.Merge(other.histogram_);
  }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
};

/// \brief Owns all metrics of a run, keyed by name.
///
/// Get* registers on first use and returns a stable pointer — callers
/// cache the pointer and record through it with zero lookups on hot
/// paths.
class MetricsRegistry {
 public:
  /// Callback gauges are evaluated lazily at dump/sample time (e.g.
  /// "current total queue depth"); the callback must be deterministic.
  using GaugeFn = std::function<double()>;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  /// Registers (or replaces) a lazily evaluated gauge.
  void RegisterCallbackGauge(const std::string& name, GaugeFn fn);

  /// Evaluates every callback gauge once into a plain gauge of the same
  /// name and drops the callbacks. Call while the objects the callbacks
  /// capture are still alive (e.g. end of RunExperiment, whose engine is
  /// stack-local) so that dumps taken later cannot call into freed state.
  void FreezeCallbackGauges();

  /// Sorted snapshot of every counter/gauge value (callback gauges
  /// included), as (name, value) pairs — the exporter's raw material.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  /// Sorted (name, histogram) views of every registered histogram —
  /// percentile-readout tooling's raw material.
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const;

  /// End-of-run JSON dump: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with every section sorted by name. Stable
  /// formatting, so same-seed runs produce byte-identical dumps.
  std::string DumpJson() const;

  /// Order-sensitive 64-bit digest of DumpJson().
  uint64_t Fingerprint() const;

  void Clear();

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
  std::map<std::string, GaugeFn> callback_gauges_;
};

/// Formats a double deterministically for dumps ("%.10g", integral
/// values render without a decimal point).
std::string FormatMetricValue(double v);

}  // namespace obs
}  // namespace pstore
