#include "bench_compare_lib.h"

#include <gtest/gtest.h>

#include <string>

namespace pstore {
namespace bench {
namespace {

/// Builds a single-run bench document with the given (name, ns) cases.
JsonValue MakeRun(const std::vector<std::pair<std::string, double>>& cases) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue(static_cast<int64_t>(1)));
  doc.Set("bench", JsonValue("synthetic"));
  doc.Set("kind", JsonValue("perf"));
  JsonValue arr = JsonValue::Array();
  for (const auto& [name, ns] : cases) {
    JsonValue c = JsonValue::Object();
    c.Set("name", JsonValue(name));
    c.Set("unit", JsonValue("ns/op"));
    c.Set("value", JsonValue(ns));
    arr.Append(std::move(c));
  }
  doc.Set("cases", std::move(arr));
  return doc;
}

const CaseComparison* FindCase(const CompareReport& report,
                               const std::string& name) {
  for (const CaseComparison& c : report.cases) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(BenchCompareTest, IdenticalRunsPass) {
  JsonValue run = MakeRun({{"a", 100.0}, {"b", 200.0}, {"c", 300.0}});
  auto report = CompareBenchDocs(run, run, CompareOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->pass);
  EXPECT_EQ(report->regressed, 0);
  EXPECT_EQ(report->missing, 0);
  EXPECT_DOUBLE_EQ(report->median_ratio, 1.0);
}

TEST(BenchCompareTest, ImprovementPassesAndIsFlagged) {
  JsonValue baseline = MakeRun({{"a", 100.0}, {"b", 200.0}, {"c", 300.0}});
  // "a" got 4x faster; the others are unchanged.
  JsonValue current = MakeRun({{"a", 25.0}, {"b", 200.0}, {"c", 300.0}});
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass);
  EXPECT_EQ(report->improved, 1);
  const CaseComparison* a = FindCase(*report, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->status, CaseStatus::kImproved);
}

TEST(BenchCompareTest, SingleCaseRegressionOverThresholdFails) {
  JsonValue baseline = MakeRun({{"a", 100.0}, {"b", 200.0}, {"c", 300.0}});
  // Injected 2x slowdown on one case. Median ratio stays 1.0 (the other
  // two cases are unchanged), so normalization cannot launder it:
  // 2.0 > 1.5 with the default 0.5 threshold.
  JsonValue current = MakeRun({{"a", 200.0}, {"b", 200.0}, {"c", 300.0}});
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  EXPECT_EQ(report->regressed, 1);
  const CaseComparison* a = FindCase(*report, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->status, CaseStatus::kRegressed);
  EXPECT_NEAR(a->normalized_ratio, 2.0, 1e-12);
}

TEST(BenchCompareTest, UniformSlowdownCancelsUnderNormalization) {
  JsonValue baseline = MakeRun({{"a", 100.0}, {"b", 200.0}, {"c", 300.0}});
  // Everything 3x slower — a slower machine, not a regression.
  JsonValue current = MakeRun({{"a", 300.0}, {"b", 600.0}, {"c", 900.0}});
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass);
  EXPECT_NEAR(report->median_ratio, 3.0, 1e-12);

  // With normalization off the same pair fails everywhere.
  CompareOptions raw;
  raw.normalize = false;
  auto raw_report = CompareBenchDocs(baseline, current, raw);
  ASSERT_TRUE(raw_report.ok());
  EXPECT_FALSE(raw_report->pass);
  EXPECT_EQ(raw_report->regressed, 3);

  // Exact mode does not normalize either.
  CompareOptions exact;
  exact.tolerance = 1e-9;
  auto exact_report = CompareBenchDocs(baseline, current, exact);
  ASSERT_TRUE(exact_report.ok());
  EXPECT_FALSE(exact_report->pass);
  EXPECT_EQ(exact_report->changed, 3);
}

TEST(BenchCompareTest, MissingCaseFails) {
  JsonValue baseline = MakeRun({{"a", 100.0}, {"b", 200.0}});
  JsonValue current = MakeRun({{"a", 100.0}});
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  EXPECT_EQ(report->missing, 1);
  const CaseComparison* b = FindCase(*report, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->status, CaseStatus::kMissing);
}

TEST(BenchCompareTest, NewCaseIsInformationalOnly) {
  JsonValue baseline = MakeRun({{"a", 100.0}});
  JsonValue current = MakeRun({{"a", 100.0}, {"z", 50.0}});
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass);
  EXPECT_EQ(report->added, 1);
  const CaseComparison* z = FindCase(*report, "z");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->status, CaseStatus::kNew);
}

TEST(BenchCompareTest, ZeroBaselineStayingZeroIsUnchanged) {
  // "dark" is a zero-seconds case (an outage that did not happen). The
  // other cases move 3x so normalization would otherwise skew it.
  JsonValue baseline = MakeRun({{"dark", 0.0}, {"a", 100.0}, {"b", 200.0}});
  JsonValue current = MakeRun({{"dark", 0.0}, {"a", 300.0}, {"b", 600.0}});
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass);
  EXPECT_EQ(report->improved, 0);
  const CaseComparison* dark = FindCase(*report, "dark");
  ASSERT_NE(dark, nullptr);
  EXPECT_EQ(dark->status, CaseStatus::kOk);
}

TEST(BenchCompareTest, ZeroBaselineGrowingRegresses) {
  JsonValue baseline = MakeRun({{"dark", 0.0}, {"a", 100.0}});
  JsonValue current = MakeRun({{"dark", 30.0}, {"a", 100.0}});
  for (const bool normalize : {true, false}) {
    CompareOptions options;
    options.normalize = normalize;
    auto report = CompareBenchDocs(baseline, current, options);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->pass);
    EXPECT_EQ(report->regressed, 1);
    const CaseComparison* dark = FindCase(*report, "dark");
    ASSERT_NE(dark, nullptr);
    EXPECT_EQ(dark->status, CaseStatus::kRegressed);
  }
  // Exact mode calls it a change.
  CompareOptions exact;
  exact.tolerance = 1e-9;
  auto report = CompareBenchDocs(baseline, current, exact);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  EXPECT_EQ(report->changed, 1);
  const CaseComparison* dark = FindCase(*report, "dark");
  ASSERT_NE(dark, nullptr);
  EXPECT_EQ(dark->status, CaseStatus::kChanged);
}

// Exact mode gates deterministic virtual-clock grids: a 1e-6 drift, up
// or down, is a behaviour change, while the default threshold mode would
// call it noise. An identical document passes.
TEST(BenchCompareTest, ExactModeTripsOnDriftInEitherDirection) {
  JsonValue baseline = MakeRun({{"mttr", 0.625}, {"dark", 0.0}, {"p99", 42.0}});
  CompareOptions exact;
  exact.tolerance = 1e-9;
  auto same = CompareBenchDocs(baseline, baseline, exact);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->pass);
  EXPECT_EQ(same->changed, 0);
  for (const double drift : {1e-6, -1e-6}) {
    JsonValue current =
        MakeRun({{"mttr", 0.625 * (1 + drift)}, {"dark", 0.0}, {"p99", 42.0}});
    EXPECT_TRUE(CompareBenchDocs(baseline, current, CompareOptions{})->pass);
    auto report = CompareBenchDocs(baseline, current, exact);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->pass) << "drift " << drift;
    EXPECT_EQ(report->changed, 1);
    EXPECT_EQ(report->regressed, 0);
    const CaseComparison* mttr = FindCase(*report, "mttr");
    ASSERT_NE(mttr, nullptr);
    EXPECT_EQ(mttr->status, CaseStatus::kChanged);
    EXPECT_NE(report->ToString().find("CHANGED"), std::string::npos);
  }
}

TEST(BenchCompareTest, MetricsCasesAreNotGated) {
  JsonValue baseline = MakeRun({{"a", 100.0}});
  JsonValue current = MakeRun({{"a", 100.0}});
  // Add a non-ns/op metrics case to the baseline only; it must not
  // register as missing.
  JsonValue metrics = JsonValue::Object();
  metrics.Set("name", JsonValue("commit_rate"));
  metrics.Set("unit", JsonValue("txn/s"));
  metrics.Set("value", JsonValue(12345.0));
  JsonValue cases = *baseline.Get("cases");
  cases.Append(std::move(metrics));
  baseline.Set("cases", std::move(cases));
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass);
  EXPECT_EQ(report->missing, 0);
}

TEST(BenchCompareTest, TrajectoryBaselineUsesLastRun) {
  // runs[0] is the slow "before" snapshot; runs[1] is the accepted
  // optimized baseline. The gate must compare against runs[1].
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue(static_cast<int64_t>(1)));
  doc.Set("bench", JsonValue("synthetic"));
  doc.Set("kind", JsonValue("perf"));
  JsonValue runs = JsonValue::Array();
  JsonValue before = JsonValue::Object();
  before.Set("label", JsonValue("before"));
  before.Set("cases", *MakeRun({{"a", 1000.0}, {"b", 50.0}}).Get("cases"));
  runs.Append(std::move(before));
  JsonValue after = JsonValue::Object();
  after.Set("label", JsonValue("after"));
  after.Set("cases", *MakeRun({{"a", 100.0}, {"b", 50.0}}).Get("cases"));
  runs.Append(std::move(after));
  doc.Set("runs", std::move(runs));

  // Current matches the old "before" numbers: a 10x regression against
  // the accepted baseline ("b" anchors the median at 1.0), so the gate
  // fails.
  JsonValue current = MakeRun({{"a", 1000.0}, {"b", 50.0}});
  auto report = CompareBenchDocs(doc, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  EXPECT_EQ(report->regressed, 1);
}

TEST(BenchCompareTest, AppendRunConvertsAndExtends) {
  JsonValue baseline = MakeRun({{"a", 100.0}});
  JsonValue current = MakeRun({{"a", 80.0}});
  ASSERT_TRUE(AppendRunToBaseline(&baseline, current, "opt-1").ok());
  const JsonValue* runs = baseline.Get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 2u);
  EXPECT_EQ(runs->at(0).GetStringOr("label", ""), "baseline");
  EXPECT_EQ(runs->at(1).GetStringOr("label", ""), "opt-1");

  // The gate now compares against the appended run.
  auto latest = ExtractLatestCases(baseline);
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(latest->at(0).GetNumberOr("value", 0.0), 80.0);

  // Appending again extends the trajectory without re-converting.
  ASSERT_TRUE(AppendRunToBaseline(&baseline, current, "opt-2").ok());
  EXPECT_EQ(baseline.Get("runs")->size(), 3u);
}

TEST(BenchCompareTest, MalformedInputIsAStatusErrorNotAFailVerdict) {
  JsonValue bad = JsonValue::Object();  // no schema_version
  JsonValue good = MakeRun({{"a", 100.0}});
  auto report = CompareBenchDocs(bad, good, CompareOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

TEST(BenchCompareTest, ToStringNamesTheVerdict) {
  JsonValue baseline = MakeRun({{"a", 100.0}, {"b", 200.0}});
  JsonValue current = MakeRun({{"a", 400.0}, {"b", 200.0}});
  auto report = CompareBenchDocs(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.ok());
  const std::string text = report->ToString();
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace bench
}  // namespace pstore
