#include "bench_compare_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace pstore {
namespace bench {

namespace {

constexpr int kSchemaVersion = 1;

const char* StatusLabel(CaseStatus s) {
  switch (s) {
    case CaseStatus::kOk:
      return "ok";
    case CaseStatus::kImproved:
      return "IMPROVED";
    case CaseStatus::kRegressed:
      return "REGRESSED";
    case CaseStatus::kMissing:
      return "MISSING";
    case CaseStatus::kNew:
      return "new";
    case CaseStatus::kChanged:
      return "CHANGED";
  }
  return "?";
}

/// Pulls {name, value} pairs for cases of the gated unit out of a
/// "cases" array; other units are untracked metrics.
Status CollectCases(const JsonValue& cases, const std::string& unit,
                    std::vector<std::pair<std::string, double>>* out) {
  if (!cases.is_array()) {
    return Status::InvalidArgument("\"cases\" is not an array");
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    const JsonValue& c = cases.at(i);
    if (!c.is_object()) {
      return Status::InvalidArgument("case entry is not an object");
    }
    const std::string name = c.GetStringOr("name", "");
    if (name.empty()) {
      return Status::InvalidArgument("case entry has no name");
    }
    if (c.GetStringOr("unit", "") != unit) continue;
    out->emplace_back(name, c.GetNumberOr("value", 0.0));
  }
  return Status::OK();
}

}  // namespace

std::string CompareReport::ToString() const {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-36s %14s %14s %9s %9s  %s\n", "case",
                "baseline ns/op", "current ns/op", "ratio", "norm", "status");
  os << buf;
  for (const CaseComparison& c : cases) {
    if (c.status == CaseStatus::kMissing) {
      std::snprintf(buf, sizeof(buf), "%-36s %14.1f %14s %9s %9s  %s\n",
                    c.name.c_str(), c.baseline_ns, "-", "-", "-",
                    StatusLabel(c.status));
    } else if (c.status == CaseStatus::kNew) {
      std::snprintf(buf, sizeof(buf), "%-36s %14s %14.1f %9s %9s  %s\n",
                    c.name.c_str(), "-", c.current_ns, "-", "-",
                    StatusLabel(c.status));
    } else {
      std::snprintf(buf, sizeof(buf), "%-36s %14.1f %14.1f %9.3f %9.3f  %s\n",
                    c.name.c_str(), c.baseline_ns, c.current_ns, c.raw_ratio,
                    c.normalized_ratio, StatusLabel(c.status));
    }
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "median ratio %.3f | %d regressed, %d changed, %d missing, "
                "%d improved, %d new -> %s\n",
                median_ratio, regressed, changed, missing, improved, added,
                pass ? "PASS" : "FAIL");
  os << buf;
  return os.str();
}

Result<JsonValue> ExtractLatestCases(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("bench JSON: top level is not an object");
  }
  const double version = doc.GetNumberOr("schema_version", -1);
  if (static_cast<int>(version) != kSchemaVersion) {
    return Status::InvalidArgument(
        "bench JSON: unsupported schema_version " + std::to_string(version));
  }
  const JsonValue* runs = doc.Get("runs");
  if (runs != nullptr) {
    if (!runs->is_array() || runs->size() == 0) {
      return Status::InvalidArgument("bench JSON: empty \"runs\"");
    }
    const JsonValue& last = runs->at(runs->size() - 1);
    const JsonValue* cases = last.is_object() ? last.Get("cases") : nullptr;
    if (cases == nullptr) {
      return Status::InvalidArgument("bench JSON: run without \"cases\"");
    }
    return *cases;
  }
  const JsonValue* cases = doc.Get("cases");
  if (cases == nullptr) {
    return Status::InvalidArgument("bench JSON: no \"cases\"");
  }
  return *cases;
}

Result<CompareReport> CompareBenchDocs(const JsonValue& baseline,
                                       const JsonValue& current,
                                       const CompareOptions& options) {
  auto baseline_cases = ExtractLatestCases(baseline);
  if (!baseline_cases.ok()) {
    return Status::InvalidArgument("baseline: " +
                                   baseline_cases.status().message());
  }
  auto current_cases = ExtractLatestCases(current);
  if (!current_cases.ok()) {
    return Status::InvalidArgument("current: " +
                                   current_cases.status().message());
  }
  std::vector<std::pair<std::string, double>> base, cur;
  PSTORE_RETURN_NOT_OK(
      CollectCases(baseline_cases.ValueOrDie(), options.unit, &base));
  PSTORE_RETURN_NOT_OK(
      CollectCases(current_cases.ValueOrDie(), options.unit, &cur));
  if (base.empty()) {
    return Status::InvalidArgument("baseline tracks no " + options.unit +
                                   " cases");
  }

  auto find = [](const std::vector<std::pair<std::string, double>>& v,
                 const std::string& name) -> const double* {
    for (const auto& [n, value] : v) {
      if (n == name) return &value;
    }
    return nullptr;
  };

  CompareReport report;
  std::vector<double> ratios;
  for (const auto& [name, base_ns] : base) {
    const double* cur_ns = find(cur, name);
    if (cur_ns != nullptr && base_ns > 0.0) {
      ratios.push_back(*cur_ns / base_ns);
    }
  }
  const bool exact = options.tolerance >= 0.0;
  if (options.normalize && !exact && !ratios.empty()) {
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    report.median_ratio = (n % 2 == 1)
                              ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    if (report.median_ratio <= 0.0) report.median_ratio = 1.0;
  }

  const double fail_above = 1.0 + options.threshold;
  for (const auto& [name, base_ns] : base) {
    CaseComparison c;
    c.name = name;
    c.baseline_ns = base_ns;
    const double* cur_ns = find(cur, name);
    if (cur_ns == nullptr) {
      c.status = CaseStatus::kMissing;
      ++report.missing;
      report.cases.push_back(std::move(c));
      continue;
    }
    c.current_ns = *cur_ns;
    if (base_ns > 0.0) {
      c.raw_ratio = *cur_ns / base_ns;
      c.normalized_ratio = c.raw_ratio / report.median_ratio;
    } else {
      // No ratio exists against a zero baseline, and normalization does
      // not apply: staying at zero is unchanged, anything above zero
      // regressed (0 s dark becoming 30 s dark must trip the gate).
      c.raw_ratio = *cur_ns > 0.0 ? std::numeric_limits<double>::infinity()
                                  : 1.0;
      c.normalized_ratio = c.raw_ratio;
    }
    if (exact) {
      if (std::abs(*cur_ns - base_ns) > options.tolerance * std::abs(base_ns)) {
        c.status = CaseStatus::kChanged;
        ++report.changed;
      }
    } else if (c.normalized_ratio > fail_above) {
      c.status = CaseStatus::kRegressed;
      ++report.regressed;
    } else if (c.normalized_ratio < 1.0 / fail_above) {
      c.status = CaseStatus::kImproved;
      ++report.improved;
    }
    report.cases.push_back(std::move(c));
  }
  for (const auto& [name, cur_ns] : cur) {
    if (find(base, name) != nullptr) continue;
    CaseComparison c;
    c.name = name;
    c.current_ns = cur_ns;
    c.status = CaseStatus::kNew;
    ++report.added;
    report.cases.push_back(std::move(c));
  }
  report.pass =
      report.regressed == 0 && report.changed == 0 && report.missing == 0;
  return report;
}

Status AppendRunToBaseline(JsonValue* baseline, const JsonValue& current,
                           const std::string& label) {
  if (baseline == nullptr || !baseline->is_object()) {
    return Status::InvalidArgument("baseline is not an object");
  }
  const JsonValue* cases = current.Get("cases");
  const JsonValue* run_meta = current.Get("run");
  if (cases == nullptr) {
    return Status::InvalidArgument("current run has no \"cases\"");
  }
  if (baseline->Get("runs") == nullptr) {
    // Convert single-run format in place: its own cases become run 0.
    JsonValue runs = JsonValue::Array();
    const JsonValue* own_cases = baseline->Get("cases");
    if (own_cases != nullptr) {
      JsonValue first = JsonValue::Object();
      first.Set("label", JsonValue("baseline"));
      if (const JsonValue* own_run = baseline->Get("run")) {
        first.Set("run", *own_run);
      }
      first.Set("cases", *own_cases);
      runs.Append(std::move(first));
    }
    baseline->Set("runs", std::move(runs));
  }
  JsonValue entry = JsonValue::Object();
  entry.Set("label", JsonValue(label));
  if (run_meta != nullptr) entry.Set("run", *run_meta);
  entry.Set("cases", *cases);
  // Get() returns const; rebuild the runs array with the new entry.
  JsonValue runs = *baseline->Get("runs");
  runs.Append(std::move(entry));
  baseline->Set("runs", std::move(runs));
  return Status::OK();
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace bench
}  // namespace pstore
