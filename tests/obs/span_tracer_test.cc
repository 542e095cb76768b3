#include "obs/span_tracer.h"

#include <gtest/gtest.h>

#include "common/sim_time.h"

namespace pstore {
namespace obs {
namespace {

TEST(SpanTracerTest, NestingRecordsDepthAndParent) {
  SpanTracer tracer;
  const auto outer = tracer.BeginAt("move", 100);
  const auto inner = tracer.BeginAt("round", 150);
  tracer.EndAt(inner, 200);
  tracer.EndAt(outer, 300);

  ASSERT_EQ(tracer.size(), 2u);
  const auto& spans = tracer.spans();
  EXPECT_EQ(spans[0].name, "move");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, 0);
  EXPECT_EQ(spans[0].start, 100);
  EXPECT_EQ(spans[0].end, 300);
  EXPECT_EQ(spans[1].name, "round");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(tracer.mismatches(), 0);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(SpanTracerTest, EndingOuterForceClosesInner) {
  SpanTracer tracer;
  const auto outer = tracer.BeginAt("outer", 0);
  tracer.BeginAt("leaked", 10);
  tracer.EndAt(outer, 50);
  EXPECT_EQ(tracer.mismatches(), 1);
  EXPECT_EQ(tracer.spans()[1].end, 50);  // force-closed with the outer
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(SpanTracerTest, UnknownOrDoubleEndIsAMismatch) {
  SpanTracer tracer;
  tracer.EndAt(99, 10);
  EXPECT_EQ(tracer.mismatches(), 1);
  const auto id = tracer.BeginAt("s", 0);
  tracer.EndAt(id, 5);
  tracer.EndAt(id, 6);  // already closed
  EXPECT_EQ(tracer.mismatches(), 2);
  EXPECT_EQ(tracer.spans()[0].end, 5);  // first close wins
}

TEST(SpanTracerTest, ToStringGolden) {
  SpanTracer tracer;
  const auto outer = tracer.BeginAt("migration.move", kSecond);
  const auto inner = tracer.BeginAt("migration.round", 2 * kSecond);
  tracer.EndAt(inner, 3 * kSecond);
  tracer.EndAt(outer, 4 * kSecond);
  tracer.BeginAt("controller.tick", 5 * kSecond);  // left open

  EXPECT_EQ(tracer.ToString(),
            "[00:00:01.000 .. 00:00:04.000] migration.move\n"
            "[00:00:02.000 .. 00:00:03.000]   migration.round\n"
            "[00:00:05.000 .. ..] controller.tick\n");
  EXPECT_EQ(tracer.open_spans(), 1u);
}

TEST(SpanTracerTest, FingerprintIsDeterministic) {
  SpanTracer a;
  SpanTracer b;
  for (SpanTracer* t : {&a, &b}) {
    const auto id = t->BeginAt("x", 10);
    t->EndAt(id, 20);
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  const auto extra = b.BeginAt("y", 30);
  b.EndAt(extra, 40);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(SpanTracerTest, ClockDrivesBeginAndEnd) {
  SpanTracer tracer;
  SimTime now = 7 * kSecond;
  tracer.set_clock([&now]() { return now; });
  const auto id = tracer.Begin("tick");
  now = 8 * kSecond;
  tracer.End(id);
  EXPECT_EQ(tracer.spans()[0].start, 7 * kSecond);
  EXPECT_EQ(tracer.spans()[0].end, 8 * kSecond);
}

// A clocked call without a clock aborts in every build type, rather
// than recording the span at t = 0 where assertions are compiled out.
TEST(SpanTracerDeathTest, ClockedCallsWithoutAClockAbort) {
  SpanTracer tracer;
  EXPECT_DEATH(tracer.Begin("tick"), "Begin\\(\\) before set_clock");
  const auto id = tracer.BeginAt("tick", 5);
  EXPECT_DEATH(tracer.End(id), "End\\(\\) before set_clock");
  // Unbinding the clock, as an experiment does before it returns, puts
  // the tracer back in the same state.
  tracer.set_clock([]() { return SimTime{9}; });
  tracer.End(id);
  tracer.set_clock(nullptr);
  EXPECT_DEATH(tracer.Begin("late"), "Begin\\(\\) before set_clock");
  EXPECT_EQ(tracer.spans()[0].end, 9);
}

TEST(ScopedSpanTest, NullTracerIsANoop) {
  { ScopedSpan span(nullptr, "nothing"); }  // must not crash
  SpanTracer tracer;
  tracer.set_clock([]() { return SimTime{42}; });
  { ScopedSpan span(&tracer, "scoped"); }
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.spans()[0].end, 42);
}

}  // namespace
}  // namespace obs
}  // namespace pstore
