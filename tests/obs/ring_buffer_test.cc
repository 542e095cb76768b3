#include <gtest/gtest.h>

#include <string>

#include "obs/event_stream.h"
#include "obs/span_tracer.h"

/// Ring-buffer bounds on the unbounded-by-default observability sinks:
/// EventStream and SpanTracer accept an optional capacity, evict the
/// oldest entries once past it, and count evictions in dropped().
/// SpanTracer additionally guarantees that span ids handed out before
/// an eviction keep resolving (open spans are pinned, closed ones age
/// out), so instrumented code never holds a dangling id.

namespace pstore {
namespace obs {
namespace {

TEST(EventStreamRingTest, UnboundedByDefault) {
  EventStream stream;
  EXPECT_EQ(stream.capacity(), 0u);
  for (int i = 0; i < 100; ++i) stream.Record(i, "line");
  EXPECT_EQ(stream.size(), 100u);
  EXPECT_EQ(stream.dropped(), 0);
}

TEST(EventStreamRingTest, CapacityEvictsOldestAndCounts) {
  EventStream stream;
  stream.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    stream.Record(i, std::string("e").append(std::to_string(i)));
  }
  EXPECT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream.dropped(), 2);
  // The oldest lines are gone, the newest are intact and in order.
  EXPECT_EQ(stream.ToString().find("e0"), std::string::npos);
  EXPECT_NE(stream.ToString().find("e2"), std::string::npos);
  EXPECT_NE(stream.ToString().find("e4"), std::string::npos);
}

TEST(EventStreamRingTest, ShrinkingCapacityTrimsImmediately) {
  EventStream stream;
  for (int i = 0; i < 10; ++i) stream.Record(i, "line");
  stream.set_capacity(4);
  EXPECT_EQ(stream.size(), 4u);
  EXPECT_EQ(stream.dropped(), 6);
  stream.Clear();
  EXPECT_EQ(stream.dropped(), 0);
  EXPECT_EQ(stream.size(), 0u);
}

TEST(SpanTracerRingTest, ClosedSpansAgeOutAndIdsStayValid) {
  SpanTracer tracer;
  tracer.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    const auto id =
        tracer.BeginAt(std::string("s").append(std::to_string(i)), i * 10);
    tracer.EndAt(id, i * 10 + 5);
  }
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3);
  // The survivors are the newest spans, names preserved.
  EXPECT_EQ(tracer.spans()[0].name, "s3");
  EXPECT_EQ(tracer.spans()[1].name, "s4");
  EXPECT_EQ(tracer.mismatches(), 0);
}

TEST(SpanTracerRingTest, OpenSpansArePinned) {
  SpanTracer tracer;
  tracer.set_capacity(1);
  const auto outer = tracer.BeginAt("outer", 0);
  for (int i = 0; i < 4; ++i) {
    const auto inner = tracer.BeginAt("inner" + std::to_string(i), i + 1);
    tracer.EndAt(inner, i + 2);
  }
  // The open root cannot be evicted even though the ring is over
  // capacity: it pins the front, so nothing behind it ages out either.
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.spans().front().name, "outer");
  // Its id still resolves and closes cleanly; only then does the ring
  // trim down to capacity.
  tracer.EndAt(outer, 100);
  EXPECT_EQ(tracer.mismatches(), 0);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.dropped(), 4);
  EXPECT_EQ(tracer.spans().front().name, "inner3");
}

TEST(SpanTracerRingTest, EvictionKeepsFingerprintOfSurvivors) {
  // Two tracers that end up with the same surviving spans must agree.
  SpanTracer a;
  a.set_capacity(2);
  for (int i = 0; i < 6; ++i) {
    const auto id = a.BeginAt(std::string("s").append(std::to_string(i)), i);
    a.EndAt(id, i + 1);
  }
  SpanTracer b;
  for (int i = 4; i < 6; ++i) {
    const auto id = b.BeginAt(std::string("s").append(std::to_string(i)), i);
    b.EndAt(id, i + 1);
  }
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace obs
}  // namespace pstore
