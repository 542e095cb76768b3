#include "common/histogram.h"

#include <gtest/gtest.h>

namespace pstore {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(123);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.Percentile(0), 123);
  EXPECT_EQ(h.Percentile(50), 123);
  EXPECT_EQ(h.Percentile(100), 123);
  EXPECT_EQ(h.max(), 123);
  EXPECT_EQ(h.min(), 123);
  EXPECT_DOUBLE_EQ(h.Mean(), 123.0);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below the sub-bucket count (32) have exact buckets.
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.Record(i);
  EXPECT_EQ(h.Percentile(10), 1);
  EXPECT_EQ(h.Percentile(50), 5);
  EXPECT_EQ(h.Percentile(100), 10);
}

TEST(HistogramTest, PercentileWithinRelativeError) {
  Histogram h;
  for (int64_t v = 1; v <= 100000; ++v) h.Record(v);
  // p50 should be ~50000 within the ~3% bucket error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99000.0, 3500.0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-100);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.Percentile(50), 0);
}

TEST(HistogramTest, RecordMany) {
  Histogram h;
  h.RecordMany(7, 100);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 700);
  EXPECT_EQ(h.Percentile(50), 7);
  h.RecordMany(9, 0);   // no-op
  h.RecordMany(9, -5);  // no-op
  EXPECT_EQ(h.count(), 100);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(30);
  b.Record(40);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 40);
  EXPECT_DOUBLE_EQ(a.Mean(), 25.0);
}

TEST(HistogramTest, MergeEmptyIsNoop) {
  Histogram a, b;
  a.Record(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Record(100);
  h.Clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Percentile(99), 0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Record(10);
  EXPECT_NE(h.Summary().find("count=1"), std::string::npos);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(int64_t{1} << 50);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max(), int64_t{1} << 50);
  EXPECT_GT(h.Percentile(50), 0);
}

TEST(HistogramTest, BucketGeometryIsExactBelowSubBuckets) {
  // Values below 32 land in exact unit-wide buckets.
  for (int64_t v = 0; v < 32; ++v) {
    const int index = Histogram::BucketIndexOf(v);
    EXPECT_EQ(Histogram::BucketLowerBound(index), v);
    EXPECT_EQ(Histogram::BucketWidth(index), 1);
  }
}

TEST(HistogramTest, BucketGeometryAtOctaveBoundaries) {
  // Every value falls inside its bucket's [lower, lower + width) range,
  // adjacent buckets tile without gaps, and width/lower stays within
  // the advertised ~2%/32-sub-bucket error (width <= lower / 16 above
  // the exact range).
  for (int64_t v : {31LL, 32LL, 33LL, 63LL, 64LL, 127LL, 128LL, 1000LL,
                    4095LL, 4096LL, (1LL << 20) - 1, 1LL << 20,
                    (1LL << 40) + 123}) {
    const int index = Histogram::BucketIndexOf(v);
    const int64_t lower = Histogram::BucketLowerBound(index);
    const int64_t width = Histogram::BucketWidth(index);
    EXPECT_LE(lower, v) << "v=" << v;
    EXPECT_LT(v, lower + width) << "v=" << v;
    EXPECT_EQ(Histogram::BucketLowerBound(index + 1), lower + width)
        << "v=" << v;
    if (v >= 32) {
      EXPECT_LE(width, lower / 16) << "v=" << v;
    }
  }
}

TEST(HistogramTest, InterpolatedExtremesAreExact) {
  Histogram h;
  h.Record(100);
  h.Record(1000);
  h.Record(100000);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(0), 100.0);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(100), 100000.0);
  // Every quantile is clamped to the observed range.
  for (double p = 0; p <= 100; p += 12.5) {
    EXPECT_GE(h.PercentileInterpolated(p), 100.0);
    EXPECT_LE(h.PercentileInterpolated(p), 100000.0);
  }
}

TEST(HistogramTest, InterpolatedSingleValueIsThatValue) {
  Histogram h;
  h.Record(12345);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(0), 12345.0);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(50), 12345.0);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(99.9), 12345.0);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(100), 12345.0);
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.PercentileInterpolated(50), 0.0);
}

TEST(HistogramTest, InterpolationBeatsBucketMidpoints) {
  // A uniform ramp: interpolated quantiles track the true values more
  // tightly than the ~2% bucket error guarantees.
  Histogram h;
  for (int64_t v = 1; v <= 100000; ++v) h.Record(v);
  EXPECT_NEAR(h.PercentileInterpolated(50), 50000.0, 1600.0);
  EXPECT_NEAR(h.PercentileInterpolated(90), 90000.0, 2900.0);
  EXPECT_NEAR(h.PercentileInterpolated(99), 99000.0, 3200.0);
  EXPECT_NEAR(h.PercentileInterpolated(99.9), 99900.0, 3200.0);
}

TEST(HistogramTest, MergePreservesQuantiles) {
  Histogram a, b, whole;
  for (int64_t v = 1; v <= 1000; ++v) {
    (v % 2 == 0 ? a : b).Record(v);
    whole.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(a.PercentileInterpolated(p),
                     whole.PercentileInterpolated(p))
        << "p=" << p;
  }
}

TEST(WindowedPercentilesTest, SingleWindow) {
  WindowedPercentiles wp(kSecond);
  wp.Record(100 * kMillisecond, 1000);
  wp.Record(200 * kMillisecond, 3000);
  wp.Flush(kSecond);
  ASSERT_EQ(wp.windows().size(), 1u);
  EXPECT_EQ(wp.windows()[0].count, 2);
  EXPECT_EQ(wp.windows()[0].max, 3000);
}

TEST(WindowedPercentilesTest, MultipleWindows) {
  WindowedPercentiles wp(kSecond);
  wp.Record(0, 100);
  wp.Record(1 * kSecond + 1, 200);
  wp.Record(2 * kSecond + 1, 300);
  wp.Flush(3 * kSecond);
  ASSERT_EQ(wp.windows().size(), 3u);
  EXPECT_EQ(wp.windows()[0].p50, 100);
  EXPECT_EQ(wp.windows()[1].p50, 200);
  EXPECT_EQ(wp.windows()[2].p50, 300);
}

TEST(WindowedPercentilesTest, ViolationCounting) {
  WindowedPercentiles wp(kSecond);
  // Window 0: all fast. Window 1: only the p99 tail is slow (2 of 100
  // observations, so the rank-99 value is slow). Window 2: all slow.
  for (int i = 0; i < 100; ++i) wp.Record(i * kMillisecond, 1000);
  for (int i = 0; i < 98; ++i) {
    wp.Record(kSecond + i * kMillisecond, 1000);
  }
  wp.Record(kSecond + 998 * kMillisecond, 600000);
  wp.Record(kSecond + 999 * kMillisecond, 600000);
  for (int i = 0; i < 10; ++i) {
    wp.Record(2 * kSecond + i * kMillisecond, 700000);
  }
  wp.Flush(3 * kSecond);
  ASSERT_EQ(wp.windows().size(), 3u);
  EXPECT_EQ(wp.CountViolations(50, 500000), 1);  // only window 2
  EXPECT_EQ(wp.CountViolations(99, 500000), 2);  // windows 1 and 2
}

TEST(WindowedPercentilesTest, GapsDoNotEmitEmptyWindows) {
  WindowedPercentiles wp(kSecond);
  wp.Record(0, 100);
  wp.Record(100 * kSecond, 200);
  wp.Flush(101 * kSecond);
  // Only windows that held data (plus possibly boundary) are emitted.
  int64_t with_data = 0;
  for (const auto& w : wp.windows()) {
    if (w.count > 0) ++with_data;
  }
  EXPECT_EQ(with_data, 2);
  EXPECT_LT(wp.windows().size(), 10u);
}

TEST(WindowedPercentilesTest, FlushIsIdempotentEnough) {
  WindowedPercentiles wp(kSecond);
  wp.Record(10, 50);
  wp.Flush(2 * kSecond);
  const size_t n = wp.windows().size();
  wp.Flush(2 * kSecond);
  EXPECT_EQ(wp.windows().size(), n);
}

TEST(WindowedPercentilesTest, PercentilesWithinWindow) {
  WindowedPercentiles wp(kSecond);
  for (int i = 1; i <= 100; ++i) {
    wp.Record(i * 5 * kMillisecond, i * 10);
  }
  wp.Flush(kSecond);
  ASSERT_EQ(wp.windows().size(), 1u);
  const auto& w = wp.windows()[0];
  EXPECT_NEAR(static_cast<double>(w.p50), 500.0, 30.0);
  EXPECT_NEAR(static_cast<double>(w.p95), 950.0, 40.0);
  EXPECT_EQ(w.max, 1000);
}

}  // namespace
}  // namespace pstore
