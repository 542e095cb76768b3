#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

/// \file bench_compare_lib.h
/// The regression-gate logic behind tools/bench_compare: diff a current
/// BENCH_*.json run (written by bench_util) against the committed
/// baseline trajectory in bench/baselines/ and fail on any tracked case
/// that slowed down by more than the threshold.
///
/// Machine-speed robustness: absolute ns/op differs across hosts, so by
/// default every per-case ratio (current / baseline) is divided by the
/// median ratio across all cases before gating. A uniform slowdown
/// (slower CI host, debug build) cancels out; a single hot path
/// regressing 2x still trips the gate.

namespace pstore {
namespace bench {

struct CompareOptions {
  /// Max tolerated per-case slowdown after normalization: a case fails
  /// when normalized current/baseline > 1 + threshold.
  double threshold = 0.5;
  /// Divide per-case ratios by the median ratio (see file comment).
  bool normalize = true;
  /// Which case unit the gate tracks. The default gates wall-clock
  /// microbenchmark cases; "s" gates deterministic virtual-clock grids
  /// (e.g. bench_recovery_mttr's MTTR cells), where exact mode is the
  /// right companion since there is no machine-speed factor to cancel.
  std::string unit = "ns/op";
  /// Exact mode when >= 0: no normalization and no threshold; a case
  /// fails when |current - baseline| > tolerance * |baseline|, in either
  /// direction. For deterministic virtual-clock grids, where any drift
  /// is a behaviour change.
  double tolerance = -1.0;
};

enum class CaseStatus {
  kOk,        ///< Within threshold.
  kImproved,  ///< Faster than 1 / (1 + threshold) — informational.
  kRegressed, ///< Slower than 1 + threshold — fails the gate.
  kMissing,   ///< In baseline but absent from current — fails the gate.
  kNew,       ///< In current but absent from baseline — informational.
  kChanged,   ///< Exact mode: moved past the tolerance — fails the gate.
};

/// One tracked case's verdict.
struct CaseComparison {
  std::string name;
  double baseline_ns = 0.0;
  double current_ns = 0.0;
  double raw_ratio = 0.0;         ///< current / baseline, unnormalized.
  double normalized_ratio = 0.0;  ///< raw / median (== raw if !normalize or exact).
  CaseStatus status = CaseStatus::kOk;
};

/// Full gate verdict over one baseline/current pair.
struct CompareReport {
  std::vector<CaseComparison> cases;
  double median_ratio = 1.0;  ///< Normalization factor applied.
  bool pass = false;
  int32_t regressed = 0;
  int32_t missing = 0;
  int32_t improved = 0;
  int32_t added = 0;
  int32_t changed = 0;

  /// Human-readable table plus verdict line.
  std::string ToString() const;
};

/// Extracts the gated case list (every case whose unit matches the
/// CompareOptions unit; {name -> value}) from a result document: either
/// a single-run file (top-level "cases") or a trajectory baseline
/// ("runs" array — the LAST run is the baseline). Fails on
/// schema_version mismatch or missing fields.
Result<JsonValue> ExtractLatestCases(const JsonValue& doc);

/// Diffs `current` (single-run document) against `baseline` (single-run
/// or trajectory document). Never fails on regressions — that verdict
/// is CompareReport::pass; a Status error means malformed input.
Result<CompareReport> CompareBenchDocs(const JsonValue& baseline,
                                       const JsonValue& current,
                                       const CompareOptions& options);

/// Appends `current`'s run (with `label`) to trajectory-format
/// `baseline` in place, converting a single-run baseline to trajectory
/// format first. Used by bench_compare --update to advance the
/// committed trajectory after an accepted optimization.
Status AppendRunToBaseline(JsonValue* baseline, const JsonValue& current,
                           const std::string& label);

/// Reads and parses a JSON document from `path`.
Result<JsonValue> ReadJsonFile(const std::string& path);

}  // namespace bench
}  // namespace pstore
