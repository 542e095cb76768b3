#include "tracer.h"

#include <cassert>
#include <chrono>
#include <cstdio>

namespace pstore {
namespace e2e {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerTracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Exit(*this);
}

int32_t LayerTracer::AddLayer(const std::string& name, int32_t parent,
                              int64_t sample_every) {
  assert(sample_every > 0 && (sample_every & (sample_every - 1)) == 0);
  Layer layer;
  layer.name = name;
  layer.parent = parent;
  layer.mask = sample_every - 1;
  layers_.push_back(layer);
  return static_cast<int32_t>(layers_.size() - 1);
}

LayerTracer::Scope LayerTracer::Enter(int32_t layer, int64_t key) {
  Layer& l = layers_[static_cast<size_t>(layer)];
  ++l.calls;
  Scope scope;
  if ((key & l.mask) != 0) return scope;
  scope.tracer_ = this;
  scope.layer_ = layer;
  if (spans_.size() < max_spans_) {
    Span span;
    span.layer = layer;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = key;
    spans_.push_back(span);
    scope.span_ = static_cast<int32_t>(spans_.size() - 1);
  }
  open_.push_back(scope.span_);
  scope.start_ns_ = clock_();
  return scope;
}

void LayerTracer::Exit(Scope& scope) {
  const int64_t end = clock_();
  Layer& l = layers_[static_cast<size_t>(scope.layer_)];
  ++l.sampled;
  l.sampled_ns += end - scope.start_ns_;
  if (scope.span_ >= 0) {
    Span& span = spans_[static_cast<size_t>(scope.span_)];
    span.start_ns = scope.start_ns_;
    span.end_ns = end;
  }
  open_.pop_back();
  scope.tracer_ = nullptr;
}

double LayerTracer::EstimatedNs(int32_t layer) const {
  const Layer& l = layers_[static_cast<size_t>(layer)];
  if (l.sampled == 0) return 0.0;
  return static_cast<double>(l.sampled_ns) * static_cast<double>(l.calls) /
         static_cast<double>(l.sampled);
}

double LayerTracer::SelfNs(int32_t layer) const {
  double self = EstimatedNs(layer);
  for (size_t c = 0; c < layers_.size(); ++c) {
    if (layers_[c].parent == layer) self -= EstimatedNs(static_cast<int32_t>(c));
  }
  return self;
}

std::string LayerTracer::ChromeTraceJson() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",",
                  layers_[static_cast<size_t>(s.layer)].name.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.request), s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace e2e
}  // namespace pstore
