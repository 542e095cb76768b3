#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/murmur.h"

namespace pstore {
namespace obs {

namespace {

template <typename T>
T* GetOrCreate(std::map<std::string, std::unique_ptr<T>>* metrics,
               const std::string& name) {
  auto it = metrics->find(name);
  if (it == metrics->end()) {
    it = metrics->emplace(name, std::make_unique<T>()).first;
  }
  return it->second.get();
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string FormatMetricValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(&counters_, name);
}

Counter* MetricsRegistry::BindCounter(const std::string& name,
                                      const int64_t* source) {
  auto [it, inserted] = counters_.emplace(name, std::make_unique<Counter>());
  if (!inserted) {
    std::fprintf(stderr, "MetricsRegistry: counter %s is already registered\n",
                 name.c_str());
    std::abort();
  }
  it->second->source_ = source;
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(&gauges_, name);
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(&histograms_, name);
}

void MetricsRegistry::RegisterCallbackGauge(const std::string& name,
                                            GaugeFn fn) {
  callback_gauges_[name] = std::move(fn);
}

void MetricsRegistry::Freeze() {
  for (const auto& [name, fn] : callback_gauges_) {
    GetOrCreate(&gauges_, name)->Set(fn());
  }
  callback_gauges_.clear();
  for (auto& [name, counter] : counters_) {
    counter->value_ = counter->value();
    counter->source_ = nullptr;
  }
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Snapshot()
    const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size() + gauges_.size() + callback_gauges_.size());
  // std::map iteration is sorted; counters, then gauges, then callback
  // gauges — names are namespaced, so cross-kind collisions don't arise.
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  for (const auto& [name, fn] : callback_gauges_) {
    out.emplace_back(name, fn());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::Histograms() const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, metric] : histograms_) {
    out.emplace_back(name, &metric->histogram());
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": " + std::to_string(counter->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": " + FormatMetricValue(gauge->value());
  }
  for (const auto& [name, fn] : callback_gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": " + FormatMetricValue(fn());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, metric] : histograms_) {
    const Histogram& h = metric->histogram();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": {\"count\": " + std::to_string(h.count()) +
           ", \"sum\": " + std::to_string(h.sum()) +
           ", \"min\": " + std::to_string(h.min()) +
           ", \"max\": " + std::to_string(h.max()) +
           ", \"p50\": " + std::to_string(h.Percentile(50)) +
           ", \"p95\": " + std::to_string(h.Percentile(95)) +
           ", \"p99\": " + std::to_string(h.Percentile(99)) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

uint64_t MetricsRegistry::Fingerprint() const {
  return MurmurHash64A(DumpJson(), 0);
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  callback_gauges_.clear();
}

}  // namespace obs
}  // namespace pstore
