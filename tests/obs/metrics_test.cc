#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

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
  registry.FreezeCallbackGauges();
  depth = 99;  // must not be read again: the closure is gone
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "c.depth");
  EXPECT_DOUBLE_EQ(snapshot[0].second, 11.0);
  EXPECT_NE(registry.DumpJson().find("\"c.depth\": 11"), std::string::npos);
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
