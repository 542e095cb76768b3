#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"

/// \file span_tracer.h
/// Nested begin/end span tracing stamped on the simulator's virtual
/// clock. A span is "the migration of move 3" or "one controller tick";
/// spans nest, and the tracer records begin order, depth and parentage,
/// so a run's time structure can be reconstructed exactly. All
/// timestamps are SimTime, so two runs from one seed produce identical
/// traces (Fingerprint() equality is the determinism contract, shared
/// with EventStream and MetricsRegistry).

namespace pstore {
namespace obs {

/// \brief Records well-nested (and detects badly nested) spans.
class SpanTracer {
 public:
  /// Opaque span handle; 0 is never a valid id.
  using SpanId = int64_t;

  /// One recorded span.
  struct Span {
    std::string name;
    SimTime start = 0;
    SimTime end = -1;     ///< -1 while open.
    int32_t depth = 0;    ///< 0 = root.
    SpanId parent = 0;    ///< 0 = no parent.
  };

  /// Installs the virtual-clock source used by Begin()/End(). Must be
  /// set before the first clocked call (one without a clock aborts, in
  /// every build); BeginAt/EndAt need no clock.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  /// Opens a span nested under the innermost open span. Returns its id.
  SpanId Begin(const std::string& name);
  SpanId BeginAt(const std::string& name, SimTime at);

  /// Closes a span. If `id` is not the innermost open span, every span
  /// opened after it is force-closed at the same instant and counted as
  /// a mismatch; an unknown or already-closed id is also a mismatch.
  void End(SpanId id);
  void EndAt(SpanId id, SimTime at);

  const std::deque<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Spans currently open.
  size_t open_spans() const { return stack_.size(); }

  /// Begin/end pairing violations observed so far.
  int64_t mismatches() const { return mismatches_; }

  /// One line per span in begin order:
  /// "[<start> .. <end>] <indent><name>" (open spans print "..").
  std::string ToString() const;

  /// Order-sensitive 64-bit digest of ToString().
  uint64_t Fingerprint() const;

  void Clear();

 private:
  Span* Find(SpanId id);

  std::deque<Span> spans_;     ///< Every span; id = index + 1.
  std::vector<SpanId> stack_;  ///< Open spans, innermost last.
  int64_t mismatches_ = 0;
  std::function<SimTime()> clock_;
};

/// \brief RAII helper: opens a span on construction, closes on scope
/// exit. Tracer may be null (no-op), so call sites stay branch-free.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr && id_ != 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
  SpanTracer::SpanId id_;
};

}  // namespace obs
}  // namespace pstore
