#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file tracer.h
/// Host-time spans recorded by the benchmark around its own calls into
/// each layer of the library (procedure bodies, predictor, allocation
/// strategy, engine submit, migration start). Every call is counted;
/// host time is read for 1 in `sample_every` calls, chosen by a
/// deterministic key (txn id, tick index), so the simulation itself is
/// never perturbed. A layer's total is estimated as
/// sampled time x calls / sampled calls, and its self time is that
/// estimate minus the estimates of the layers nested inside it.

namespace pstore {
namespace e2e {

/// Monotonic host clock in nanoseconds.
int64_t SteadyNowNs();

class LayerTracer {
 public:
  using Clock = int64_t (*)();

  /// One recorded span: a sampled call into a layer.
  struct Span {
    int32_t layer = 0;
    int32_t parent = -1;  ///< Index of the enclosing span; -1 = none.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t request = 0;  ///< The sampling key (txn id, tick index).
  };

  /// RAII handle for one call; times it only when the call is sampled.
  class Scope {
   public:
    Scope() = default;
    Scope(Scope&& other) noexcept
        : tracer_(std::exchange(other.tracer_, nullptr)),
          layer_(other.layer_),
          span_(other.span_),
          start_ns_(other.start_ns_) {}
    Scope& operator=(Scope&&) = delete;
    ~Scope();

   private:
    friend class LayerTracer;
    LayerTracer* tracer_ = nullptr;
    int32_t layer_ = 0;
    int32_t span_ = -1;
    int64_t start_ns_ = 0;
  };

  /// `max_spans` bounds the spans kept for the Chrome trace; layer
  /// aggregates keep counting past it.
  explicit LayerTracer(size_t max_spans = 20000, Clock clock = SteadyNowNs)
      : clock_(clock), max_spans_(max_spans) {}

  /// Registers a layer nested inside `parent` (-1 for a root) and
  /// returns its id. `sample_every` must be a power of two.
  int32_t AddLayer(const std::string& name, int32_t parent,
                   int64_t sample_every);

  /// Counts one call into `layer`; the call is timed when
  /// key % sample_every == 0.
  Scope Enter(int32_t layer, int64_t key);

  int64_t calls(int32_t layer) const { return layers_[layer].calls; }
  int64_t sampled(int32_t layer) const { return layers_[layer].sampled; }
  /// Estimated host ns spent in the layer over all its calls.
  double EstimatedNs(int32_t layer) const;
  /// EstimatedNs(layer) minus EstimatedNs of every layer nested in it.
  double SelfNs(int32_t layer) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// The kept spans as a Chrome trace_event document ("X" events on
  /// pid 0, microsecond timestamps relative to the first span).
  std::string ChromeTraceJson() const;

 private:
  struct Layer {
    std::string name;
    int32_t parent = -1;
    int64_t mask = 0;  ///< sample_every - 1
    int64_t calls = 0;
    int64_t sampled = 0;
    int64_t sampled_ns = 0;
  };

  void Exit(Scope& scope);

  Clock clock_;
  size_t max_spans_;
  std::vector<Layer> layers_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< Span indices of open sampled scopes.
};

/// Enters `layer` when `tracer` is set; a no-op scope otherwise.
inline LayerTracer::Scope EnterIf(LayerTracer* tracer, int32_t layer,
                                  int64_t key) {
  return tracer != nullptr ? tracer->Enter(layer, key) : LayerTracer::Scope();
}

}  // namespace e2e
}  // namespace pstore
