#include "obs/exporter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace pstore {
namespace obs {

namespace {

/// Creates `path`'s parent directory if it has one; returns false on
/// failure (logged by the caller with context).
bool EnsureParentDir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  return !ec;
}

}  // namespace

void TimeseriesExporter::Sample(SimTime now) {
  if (registry_ == nullptr) return;
  Sample_ sample;
  sample.at = now;
  sample.values = registry_->Snapshot();
  // Snapshot() returns counters/gauges/callbacks each sorted; merge to
  // one globally sorted list so CSV assembly can binary-search.
  std::sort(sample.values.begin(), sample.values.end());
  samples_.push_back(std::move(sample));
}

std::string TimeseriesExporter::ToCsv() const {
  // Union of metric names across all samples (metrics register lazily,
  // so late samples can carry more columns).
  std::vector<std::string> names;
  for (const Sample_& s : samples_) {
    for (const auto& [name, value] : s.values) {
      (void)value;
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());

  std::string out = "time_s";
  for (const std::string& name : names) {
    out += ',';
    out += name;
  }
  out += '\n';
  for (const Sample_& s : samples_) {
    out += FormatMetricValue(DurationToSeconds(s.at));
    for (const std::string& name : names) {
      const auto it = std::lower_bound(
          s.values.begin(), s.values.end(), name,
          [](const auto& kv, const std::string& n) { return kv.first < n; });
      const double v =
          (it != s.values.end() && it->first == name) ? it->second : 0.0;
      out += ',';
      out += FormatMetricValue(v);
    }
    out += '\n';
  }
  return out;
}

bool TimeseriesExporter::WriteCsv(const std::string& path) const {
  return WriteStringToFile(path, ToCsv());
}

bool WriteColumnsCsv(const std::string& path,
                     const std::vector<std::string>& names,
                     const std::vector<std::vector<double>>& columns) {
  // Default ostream double formatting, matching CsvSeriesWriter so CSVs
  // written through either path are byte-identical.
  std::ostringstream out;
  const size_t cols = std::min(names.size(), columns.size());
  size_t rows = 0;
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) out << ',';
    out << names[c];
    rows = std::max(rows, columns[c].size());
  }
  out << '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out << ',';
      if (r < columns[c].size()) out << columns[c][r];
    }
    out << '\n';
  }
  return WriteStringToFile(path, out.str());
}

bool WriteStringToFile(const std::string& path, const std::string& contents) {
  if (!EnsureParentDir(path)) {
    PSTORE_LOG(Warn) << "cannot create directory for " << path;
    return false;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    PSTORE_LOG(Warn) << "cannot open " << path << " for writing";
    return false;
  }
  file << contents;
  file.close();
  if (!file) {
    PSTORE_LOG(Warn) << "write to " << path << " failed";
    return false;
  }
  return true;
}

std::string ToChromeTraceJson(const SpanTracer* spans,
                              const TxnTraceRecorder* txns) {
  // Build (ts, event) pairs; the final *stable* sort by ts yields
  // monotone timestamps while preserving causal order at equal instants
  // (a txn's E precedes the next interval's B at the boundary).
  struct Entry {
    SimTime ts = 0;
    JsonValue event;
  };
  std::vector<Entry> entries;

  if (spans != nullptr) {
    for (const SpanTracer::Span& span : spans->spans()) {
      if (span.end < 0) continue;  // open spans have no duration yet
      JsonValue e = JsonValue::Object();
      e.Set("name", JsonValue(span.name));
      e.Set("ph", JsonValue("X"));
      e.Set("ts", JsonValue(span.start));
      e.Set("dur", JsonValue(span.end - span.start));
      e.Set("pid", JsonValue(static_cast<int64_t>(0)));
      e.Set("tid", JsonValue(static_cast<int64_t>(span.depth)));
      entries.push_back(Entry{span.start, std::move(e)});
    }
  }

  if (txns != nullptr) {
    for (const TxnTraceRecord& record : txns->records()) {
      const int64_t tid = record.txn_id;
      for (const TxnPhaseInterval& interval : PhaseIntervals(record)) {
        JsonValue b = JsonValue::Object();
        b.Set("name", JsonValue(interval.phase));
        b.Set("ph", JsonValue("B"));
        b.Set("ts", JsonValue(interval.start));
        b.Set("pid", JsonValue(static_cast<int64_t>(1)));
        b.Set("tid", JsonValue(tid));
        JsonValue args = JsonValue::Object();
        args.Set("proc", JsonValue(record.proc));
        args.Set("detail", JsonValue(static_cast<int64_t>(interval.detail)));
        b.Set("args", std::move(args));
        entries.push_back(Entry{interval.start, std::move(b)});

        JsonValue e = JsonValue::Object();
        e.Set("name", JsonValue(interval.phase));
        e.Set("ph", JsonValue("E"));
        e.Set("ts", JsonValue(interval.end));
        e.Set("pid", JsonValue(static_cast<int64_t>(1)));
        e.Set("tid", JsonValue(tid));
        entries.push_back(Entry{interval.end, std::move(e)});
      }
      if (!record.events.empty() && record.done) {
        const TxnTraceEvent& last = record.events.back();
        JsonValue i = JsonValue::Object();
        i.Set("name", JsonValue(TxnPhaseName(last.phase)));
        i.Set("ph", JsonValue("i"));
        i.Set("ts", JsonValue(last.at));
        i.Set("pid", JsonValue(static_cast<int64_t>(1)));
        i.Set("tid", JsonValue(tid));
        i.Set("s", JsonValue("t"));  // thread-scoped instant
        entries.push_back(Entry{last.at, std::move(i)});
      }
    }
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });

  JsonValue events = JsonValue::Array();
  for (Entry& entry : entries) events.Append(std::move(entry.event));
  JsonValue doc = JsonValue::Object();
  doc.Set("displayTimeUnit", JsonValue("ms"));
  doc.Set("traceEvents", std::move(events));
  return doc.Dump();
}

}  // namespace obs
}  // namespace pstore
