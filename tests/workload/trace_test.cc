#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "workload/b2w_trace.h"
#include "workload/wiki_trace.h"

namespace pstore {
namespace {

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1));
  return v[idx];
}

TEST(B2wTraceTest, ValidationCatchesBadConfigs) {
  B2wTraceConfig c;
  EXPECT_TRUE(c.Validate().ok());
  c.days = 0;
  EXPECT_FALSE(GenerateB2wTrace(c).ok());
  c = B2wTraceConfig{};
  c.black_friday_day = 100;
  c.days = 50;
  EXPECT_FALSE(GenerateB2wTrace(c).ok());
}

TEST(B2wTraceTest, LengthAndPositivity) {
  B2wTraceConfig config = B2wRegularTraffic(14);
  auto trace = GenerateB2wTrace(config);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 14u * 1440u);
  for (double v : *trace) EXPECT_GE(v, 0.0);
}

TEST(B2wTraceTest, Deterministic) {
  auto a = GenerateB2wTrace(B2wRegularTraffic(7, 5));
  auto b = GenerateB2wTrace(B2wRegularTraffic(7, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  auto c = GenerateB2wTrace(B2wRegularTraffic(7, 6));
  EXPECT_NE(*a, *c);
}

/// FNV-1a over the bytes of every value's bit pattern.
uint64_t HashBits(const std::vector<double>& values) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Pins the generators' output bit for bit: the preset traces feed
// SPAR's fits, the e2e fingerprints and every figure, so a refactor of
// either generator must reproduce them exactly.
TEST(B2wTraceTest, PresetTracesArePinnedBitForBit) {
  // Each B2W preset at its default seed and at seed 7, and both
  // Wikipedia editions at their default length and seed; the B2W
  // digests were taken from the generator before its noise was drawn
  // in bulk, the Wikipedia ones before its shape fields became
  // constants.
  struct Pin {
    const char* name;
    Result<std::vector<double>> trace;
    size_t slots;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"august", GenerateB2wTrace(B2wAugustToDecember()), 137u * 1440u,
       0xec9e0e1468df9e66ULL},
      {"august/7", GenerateB2wTrace(B2wAugustToDecember(7)), 137u * 1440u,
       0x37ed6a2f32ae0fb1ULL},
      {"regular", GenerateB2wTrace(B2wRegularTraffic()), 70u * 1440u,
       0xfdb2c403a249069cULL},
      {"regular/7", GenerateB2wTrace(B2wRegularTraffic(70, 7)), 70u * 1440u,
       0xf560ccf91a479772ULL},
      {"spike", GenerateB2wTrace(B2wSpikeDay()), 36u * 1440u,
       0x53daed1174519cecULL},
      {"spike/7", GenerateB2wTrace(B2wSpikeDay(35, 7)), 36u * 1440u,
       0xc1023be247e61cadULL},
      {"wiki-en", GenerateWikiTrace(WikiEnglish(62)), 62u * 24u,
       0x63dddfced1fb8761ULL},
      {"wiki-de", GenerateWikiTrace(WikiGerman(62)), 62u * 24u,
       0x888f50617a7cab20ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    ASSERT_TRUE(pin.trace.ok());
    EXPECT_EQ(pin.trace->size(), pin.slots);
    EXPECT_EQ(HashBits(*pin.trace), pin.digest);
  }
}

TEST(B2wTraceTest, PeakToTroughRatioNearTen) {
  // Figure 1: "the peak load is about 10x the trough".
  auto trace = GenerateB2wTrace(B2wRegularTraffic(28));
  ASSERT_TRUE(trace.ok());
  // Use robust percentiles of the daily maxima/minima.
  std::vector<double> maxima, minima;
  for (int d = 0; d < 28; ++d) {
    auto begin = trace->begin() + d * 1440;
    maxima.push_back(*std::max_element(begin, begin + 1440));
    minima.push_back(*std::min_element(begin, begin + 1440));
  }
  const double ratio = Percentile(maxima, 0.5) / Percentile(minima, 0.5);
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 16.0);
}

TEST(B2wTraceTest, PeakNearConfiguredHour) {
  B2wTraceConfig config = B2wRegularTraffic(7);
  config.noise_sigma = 0.0;
  config.daily_drift_sigma = 0.0;
  config.promo_probability = 0.0;
  auto trace = GenerateB2wTrace(config);
  ASSERT_TRUE(trace.ok());
  auto day = trace->begin() + 2 * 1440;
  const auto peak_it = std::max_element(day, day + 1440);
  const int64_t peak_minute = peak_it - day;
  EXPECT_NEAR(static_cast<double>(peak_minute), kB2wPeakHour * 60, 30);
}

TEST(B2wTraceTest, WeeklyPatternVisible) {
  B2wTraceConfig config = B2wRegularTraffic(28);
  config.noise_sigma = 0.0;
  config.daily_drift_sigma = 0.0;
  config.promo_probability = 0.0;
  auto trace = GenerateB2wTrace(config);
  ASSERT_TRUE(trace.ok());
  auto day_total = [&](int d) {
    return std::accumulate(trace->begin() + d * 1440,
                           trace->begin() + (d + 1) * 1440, 0.0);
  };
  // Day 5 and 6 of each week (Sat, Sun) are configured lighter.
  EXPECT_LT(day_total(5), day_total(4));
  EXPECT_LT(day_total(6), day_total(4));
  EXPECT_LT(day_total(12), day_total(11));
}

TEST(B2wTraceTest, BlackFridaySurges) {
  B2wTraceConfig config = B2wAugustToDecember(3);
  auto trace = GenerateB2wTrace(config);
  ASSERT_TRUE(trace.ok());
  const int bf = config.black_friday_day;
  auto day_max = [&](int d) {
    return *std::max_element(trace->begin() + d * 1440,
                             trace->begin() + (d + 1) * 1440);
  };
  // Black Friday peaks well above the neighbouring weeks.
  EXPECT_GT(day_max(bf), 1.5 * day_max(bf - 7));
  EXPECT_GT(day_max(bf), 1.5 * day_max(bf + 7));
  // And load at 00:30 on Black Friday dwarfs a normal night.
  const double bf_night = (*trace)[static_cast<size_t>(bf) * 1440 + 30];
  const double normal_night =
      (*trace)[static_cast<size_t>(bf - 7) * 1440 + 30];
  EXPECT_GT(bf_night, 3.0 * normal_night);
}

TEST(B2wTraceTest, ForcedSpikeAppears) {
  B2wTraceConfig config = B2wSpikeDay(10, 77);
  auto trace = GenerateB2wTrace(config);
  ASSERT_TRUE(trace.ok());
  const int64_t spike_start = 10 * 1440 + 840;
  const double before = (*trace)[static_cast<size_t>(spike_start - 30)];
  const double during = (*trace)[static_cast<size_t>(spike_start + 20)];
  EXPECT_GT(during, 1.5 * before);
}

TEST(B2wTraceTest, PromotionsBoostDaytime) {
  B2wTraceConfig with = B2wRegularTraffic(60, 12);
  with.promo_probability = 1.0;  // promo every day
  with.noise_sigma = 0;
  with.daily_drift_sigma = 0;
  B2wTraceConfig without = with;
  without.promo_probability = 0.0;
  auto a = GenerateB2wTrace(with);
  auto b = GenerateB2wTrace(without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const double sum_with = std::accumulate(a->begin(), a->end(), 0.0);
  const double sum_without = std::accumulate(b->begin(), b->end(), 0.0);
  EXPECT_GT(sum_with, sum_without * 1.02);
}

TEST(WikiTraceTest, ValidationAndShape) {
  WikiTraceConfig c = WikiEnglish(14);
  EXPECT_TRUE(c.Validate().ok());
  auto trace = GenerateWikiTrace(c);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 14u * 24u);
  for (double v : *trace) EXPECT_GT(v, 0.0);
  c.days = 0;
  EXPECT_FALSE(GenerateWikiTrace(c).ok());
}

TEST(WikiTraceTest, EnglishLargerThanGerman) {
  auto en = GenerateWikiTrace(WikiEnglish(14));
  auto de = GenerateWikiTrace(WikiGerman(14));
  ASSERT_TRUE(en.ok());
  ASSERT_TRUE(de.ok());
  const double en_mean =
      std::accumulate(en->begin(), en->end(), 0.0) / en->size();
  const double de_mean =
      std::accumulate(de->begin(), de->end(), 0.0) / de->size();
  EXPECT_GT(en_mean, 2.5 * de_mean);
}

TEST(WikiTraceTest, GermanIsNoisier) {
  // Coefficient of variation of the *ratio to the daily pattern*: use
  // day-over-day differences at the same hour as a noise proxy.
  auto noise_proxy = [](const std::vector<double>& trace) {
    double acc = 0;
    int64_t n = 0;
    for (size_t t = 24; t < trace.size(); ++t) {
      acc += std::fabs(trace[t] - trace[t - 24]) /
             std::max(1.0, trace[t - 24]);
      ++n;
    }
    return acc / static_cast<double>(n);
  };
  auto en = GenerateWikiTrace(WikiEnglish(28));
  auto de = GenerateWikiTrace(WikiGerman(28));
  ASSERT_TRUE(en.ok());
  ASSERT_TRUE(de.ok());
  EXPECT_GT(noise_proxy(*de), noise_proxy(*en));
}

TEST(WikiTraceTest, DiurnalShallowerThanB2w) {
  auto wiki = GenerateWikiTrace(WikiEnglish(14));
  auto b2w = GenerateB2wTrace(B2wRegularTraffic(14));
  ASSERT_TRUE(wiki.ok());
  ASSERT_TRUE(b2w.ok());
  auto ratio = [](const std::vector<double>& trace, int slots_per_day,
                  int day) {
    auto begin = trace.begin() + day * slots_per_day;
    return *std::max_element(begin, begin + slots_per_day) /
           *std::min_element(begin, begin + slots_per_day);
  };
  EXPECT_LT(ratio(*wiki, 24, 3), ratio(*b2w, 1440, 3));
}

TEST(WikiTraceTest, Deterministic) {
  auto a = GenerateWikiTrace(WikiGerman(7, 1));
  auto b = GenerateWikiTrace(WikiGerman(7, 1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

}  // namespace
}  // namespace pstore
