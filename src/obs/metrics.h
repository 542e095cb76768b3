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
/// byte-identical dumps — the same determinism contract as the
/// EventStream.
///
/// Observability is switched off one way: attach no sink. A component
/// counts each event once, in an int64_t member, and binds that member
/// to the registry by name (BindCounter); it caches a metric pointer
/// only for a count, gauge or histogram it does not otherwise keep, and
/// skips recording through it when no registry was attached.

namespace pstore {
namespace obs {

/// \brief Monotone int64 counter: owned (recorded through Increment/Add)
/// or bound (reads a component's own count; see BindCounter).
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return source_ != nullptr ? *source_ : value_; }

 private:
  friend class MetricsRegistry;
  int64_t value_ = 0;
  const int64_t* source_ = nullptr;  ///< Bound count; null once frozen.
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
  /// Registers `name` as a counter that reads `*source`, a count its
  /// component already keeps, so the event is counted in one place.
  /// `source` must stay alive until Freeze() or Clear(). Binding a name
  /// that is already registered is a program bug and aborts.
  Counter* BindCounter(const std::string& name, const int64_t* source);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  /// Registers (or replaces) a lazily evaluated gauge.
  void RegisterCallbackGauge(const std::string& name, GaugeFn fn);

  /// Evaluates every callback gauge once into a plain gauge of the same
  /// name and drops the callbacks, and copies every bound counter's
  /// source into the counter and drops the source. Call while the
  /// objects the callbacks and sources belong to are still alive (e.g.
  /// end of RunExperiment, whose engine is stack-local) so that dumps
  /// taken later cannot read freed state.
  void Freeze();

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
