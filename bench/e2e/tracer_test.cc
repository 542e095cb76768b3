/// Unit test of the benchmark's span aggregation: self time is a span's
/// duration minus its children's, a 1-in-N sampled layer is scaled back
/// up by calls / sampled calls, and spans keep their parents.

#include <cmath>
#include <cstdio>

#include "common/json.h"
#include "tracer.h"

using pstore::e2e::LayerTracer;

namespace {

int64_t g_now = 0;
int64_t FakeClock() { return g_now; }

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void SelfTimeIsDurationMinusChildren() {
  LayerTracer tracer(100, FakeClock);
  const int32_t parent = tracer.AddLayer("parent", -1, 1);
  const int32_t child = tracer.AddLayer("child", parent, 1);
  const int32_t grandchild = tracer.AddLayer("grandchild", child, 1);
  g_now = 1000;
  {
    LayerTracer::Scope p = tracer.Enter(parent, 0);
    g_now += 10;
    {
      LayerTracer::Scope c = tracer.Enter(child, 1);
      g_now += 30;
      {
        LayerTracer::Scope g = tracer.Enter(grandchild, 2);
        g_now += 5;
      }
    }
    {
      LayerTracer::Scope c = tracer.Enter(child, 3);
      g_now += 20;
    }
    g_now += 40;
  }
  Expect(Near(tracer.EstimatedNs(parent), 105), "parent duration");
  Expect(Near(tracer.EstimatedNs(child), 55), "children duration");
  Expect(Near(tracer.SelfNs(parent), 50), "parent self = 105 - 55");
  Expect(Near(tracer.SelfNs(child), 50), "child self = 55 - 5");
  Expect(Near(tracer.SelfNs(grandchild), 5), "leaf self = duration");
  Expect(tracer.spans().size() == 4, "four spans kept");
  Expect(tracer.spans()[1].parent == 0 && tracer.spans()[2].parent == 1 &&
             tracer.spans()[3].parent == 0,
         "span parents follow nesting");
}

void SampledLayerIsScaledByCallsOverSamples() {
  LayerTracer tracer(100, FakeClock);
  const int32_t layer = tracer.AddLayer("sampled", -1, 4);
  for (int64_t key = 0; key < 10; ++key) {
    LayerTracer::Scope s = tracer.Enter(layer, key);
    g_now += 7 + key;  // Only keys 0, 4 and 8 are timed: 7 + 11 + 15.
  }
  Expect(tracer.calls(layer) == 10, "every call counted");
  Expect(tracer.sampled(layer) == 3, "1 in 4 keys sampled");
  Expect(Near(tracer.EstimatedNs(layer), 33.0 * 10 / 3), "estimate");
  Expect(tracer.spans().size() == 3, "only sampled calls make spans");
}

void SpanCapKeepsAggregating() {
  LayerTracer tracer(2, FakeClock);
  const int32_t layer = tracer.AddLayer("capped", -1, 1);
  for (int64_t key = 0; key < 5; ++key) {
    LayerTracer::Scope s = tracer.Enter(layer, key);
    g_now += 2;
  }
  Expect(tracer.spans().size() == 2, "span cap");
  Expect(Near(tracer.EstimatedNs(layer), 10), "aggregate past the cap");
}

void ChromeTraceParses() {
  LayerTracer tracer(100, FakeClock);
  const int32_t layer = tracer.AddLayer("layer", -1, 1);
  {
    LayerTracer::Scope s = tracer.Enter(layer, 42);
    g_now += 1500;
  }
  auto doc = pstore::JsonValue::Parse(tracer.ChromeTraceJson());
  Expect(doc.ok(), "Chrome trace is valid JSON");
  if (!doc.ok()) return;
  const pstore::JsonValue* events = doc->Get("traceEvents");
  Expect(events != nullptr && events->is_array() && events->size() == 1,
         "one trace event");
  if (events == nullptr || events->size() != 1) return;
  Expect(Near(events->at(0).GetNumberOr("dur", 0), 1.5), "duration in us");
}

}  // namespace

int main() {
  SelfTimeIsDurationMinusChildren();
  SampledLayerIsScaledByCallsOverSamples();
  SpanCapKeepsAggregating();
  ChromeTraceParses();
  if (g_failures == 0) std::printf("tracer tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
