#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sim_time.h"

/// \file event_stream.h
/// Append-only, deterministic log of structured events. Every line is
/// stamped with virtual time, so two runs from the same seed must
/// produce byte-identical streams; golden determinism tests compare
/// Fingerprint() across runs. Fault events, controller decisions and
/// migration milestones all share one clock and one determinism
/// contract.

namespace pstore {
namespace obs {

/// \brief Ordered record of "what happened when" during a run.
class EventStream {
 public:
  /// Appends one line, stamped "[<virtual time>] <what>".
  void Record(SimTime at, const std::string& what);

  /// Appends one categorized line, "[<virtual time>] <category>: <what>"
  /// — categories follow the metric naming scheme ("migration",
  /// "controller", ...).
  void Record(SimTime at, const std::string& category,
              const std::string& what);

  const std::deque<std::string>& lines() const { return lines_; }
  size_t size() const { return lines_.size(); }
  bool empty() const { return lines_.empty(); }

  /// All lines joined with '\n' (trailing newline included when
  /// non-empty) — what the golden tests and chaos example print.
  std::string ToString() const;

  /// Order-sensitive 64-bit digest of the whole stream.
  uint64_t Fingerprint() const;

  void Clear() { lines_.clear(); }

 private:
  std::deque<std::string> lines_;
};

}  // namespace obs
}  // namespace pstore
