#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pstore {
namespace obs {
namespace {

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("cluster.txn_committed");
  Counter* b = registry.GetCounter("cluster.txn_committed");
  EXPECT_EQ(a, b);
  Gauge* g1 = registry.GetGauge("cluster.active_nodes");
  Gauge* g2 = registry.GetGauge("cluster.active_nodes");
  EXPECT_EQ(g1, g2);
  HistogramMetric* h1 = registry.GetHistogram("cluster.txn_latency_us");
  HistogramMetric* h2 = registry.GetHistogram("cluster.txn_latency_us");
  EXPECT_EQ(h1, h2);
  EXPECT_NE(static_cast<void*>(a),
            static_cast<void*>(registry.GetCounter("other")));
}

TEST(MetricsRegistryTest, CounterAndGaugeRecord) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("x.count");
  c->Increment();
  c->Add(4);
  Gauge* g = registry.GetGauge("x.level");
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_EQ(c->value(), 5);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
}

TEST(MetricsRegistryTest, HistogramRecordsAndMerges) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("x.latency_us");
  for (int64_t v = 1; v <= 100; ++v) h->Record(v);
  EXPECT_EQ(h->histogram().count(), 100);

  HistogramMetric other;
  for (int64_t v = 1000; v <= 1004; ++v) other.Record(v);
  h->MergeFrom(other);
  EXPECT_EQ(h->histogram().count(), 105);
  EXPECT_GE(h->histogram().max(), 1000);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndIncludesCallbacks) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Add(2);
  registry.GetGauge("a.level")->Set(7);
  double depth = 11;
  registry.RegisterCallbackGauge("c.depth", [&depth]() { return depth; });

  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  // Counters, then gauges, then callbacks — each group sorted by name.
  EXPECT_EQ(snapshot[0].first, "b.count");
  EXPECT_EQ(snapshot[1].first, "a.level");
  EXPECT_EQ(snapshot[2].first, "c.depth");
  EXPECT_DOUBLE_EQ(snapshot[2].second, 11.0);
  depth = 13;  // callbacks are lazy: re-snapshot sees the new value
  EXPECT_DOUBLE_EQ(registry.Snapshot()[2].second, 13.0);
}

TEST(MetricsRegistryTest, FreezeCallbackGaugesDropsTheClosures) {
  MetricsRegistry registry;
  double depth = 11;
  registry.RegisterCallbackGauge("c.depth", [&depth]() { return depth; });
  registry.Freeze();
  depth = 99;  // must not be read again: the closure is gone
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "c.depth");
  EXPECT_DOUBLE_EQ(snapshot[0].second, 11.0);
  EXPECT_NE(registry.DumpJson().find("\"c.depth\": 11"), std::string::npos);
}

TEST(MetricsRegistryTest, BoundCounterReadsItsSourceLive) {
  MetricsRegistry registry;
  int64_t committed = 4;
  Counter* c = registry.BindCounter("cluster.txn_committed", &committed);
  EXPECT_EQ(c->value(), 4);
  ++committed;
  EXPECT_EQ(c->value(), 5);
  EXPECT_EQ(registry.GetCounter("cluster.txn_committed"), c);
  EXPECT_EQ(registry.GetCounter("cluster.txn_committed")->value(), 5);
}

TEST(MetricsRegistryTest, BoundAndOwnedCountersInterleaveByName) {
  MetricsRegistry registry;
  int64_t b = 2, d = 4;
  registry.GetCounter("c.count")->Add(3);
  registry.BindCounter("d.count", &d);
  registry.GetCounter("a.count")->Add(1);
  registry.BindCounter("b.count", &b);
  const std::vector<std::pair<std::string, double>> expected = {
      {"a.count", 1}, {"b.count", 2}, {"c.count", 3}, {"d.count", 4}};
  EXPECT_EQ(registry.Snapshot(), expected);
  const std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"a.count\": 1,\n    \"b.count\": 2,\n    "
                      "\"c.count\": 3,\n    \"d.count\": 4\n"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, FreezeSnapshotsABoundCounterAndDropsItsSource) {
  MetricsRegistry registry;
  auto source = std::make_unique<int64_t>(7);
  Counter* c = registry.BindCounter("x.count", source.get());
  const std::string live = registry.DumpJson();
  registry.Freeze();
  *source = 99;  // must not be read again: the source is dropped
  EXPECT_EQ(c->value(), 7);
  // Nor may a dump read freed memory: destroy the source and dump again.
  source.reset();
  EXPECT_EQ(registry.DumpJson(), live);
  EXPECT_DOUBLE_EQ(registry.Snapshot()[0].second, 7.0);
}

TEST(MetricsRegistryDeathTest, BindingARegisteredNameAborts) {
  MetricsRegistry registry;
  int64_t count = 0;
  registry.GetCounter("owned.count");
  registry.BindCounter("bound.count", &count);
  EXPECT_DEATH(registry.BindCounter("owned.count", &count),
               "already registered");
  EXPECT_DEATH(registry.BindCounter("bound.count", &count),
               "already registered");
}

TEST(MetricsRegistryTest, DumpJsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("m.count")->Add(3);
  registry.GetGauge("m.level")->Set(1.5);
  registry.GetHistogram("m.lat")->Record(10);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"m.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"m.level\": 1.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"m.lat\": {\"count\": 1, \"sum\": 10, \"min\": 10, \"max\": 10, "
      "\"p50\": 10, \"p95\": 10, \"p99\": 10}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.DumpJson(), expected);
}

TEST(MetricsRegistryTest, FingerprintTracksContent) {
  MetricsRegistry a;
  MetricsRegistry b;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  a.GetCounter("x")->Add(1);
  b.GetCounter("x")->Add(1);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.GetCounter("x")->Add(1);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(FormatMetricValueTest, IntegralAndFractional) {
  EXPECT_EQ(FormatMetricValue(0), "0");
  EXPECT_EQ(FormatMetricValue(42), "42");
  EXPECT_EQ(FormatMetricValue(-7), "-7");
  EXPECT_EQ(FormatMetricValue(1.5), "1.5");
  EXPECT_EQ(FormatMetricValue(0.1), "0.1");
}

}  // namespace
}  // namespace obs
}  // namespace pstore
