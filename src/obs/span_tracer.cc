#include "obs/span_tracer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/murmur.h"

namespace pstore {
namespace obs {

namespace {

/// A clocked Begin()/End() without a clock is a program bug: it aborts
/// in every build rather than recording a made-up time.
void RequireClock(const std::function<SimTime()>& clock, const char* call) {
  if (!clock) {
    std::fprintf(stderr, "SpanTracer: %s before set_clock\n", call);
    std::abort();
  }
}

}  // namespace

SpanTracer::SpanId SpanTracer::Begin(const std::string& name) {
  RequireClock(clock_, "Begin()");
  return BeginAt(name, clock_());
}

SpanTracer::SpanId SpanTracer::BeginAt(const std::string& name, SimTime at) {
  Span span;
  span.name = name;
  span.start = at;
  span.depth = static_cast<int32_t>(stack_.size());
  span.parent = stack_.empty() ? 0 : stack_.back();
  spans_.push_back(std::move(span));
  const SpanId id = static_cast<SpanId>(spans_.size());
  stack_.push_back(id);
  return id;
}

void SpanTracer::End(SpanId id) {
  RequireClock(clock_, "End()");
  EndAt(id, clock_());
}

void SpanTracer::EndAt(SpanId id, SimTime at) {
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it == stack_.end()) {
    // Unknown, already closed, or never opened: record the violation.
    ++mismatches_;
    return;
  }
  // Force-close everything opened after `id` (each one a mismatch),
  // then close `id` itself.
  while (stack_.back() != id) {
    Span* inner = Find(stack_.back());
    inner->end = at;
    stack_.pop_back();
    ++mismatches_;
  }
  Find(id)->end = at;
  stack_.pop_back();
}

SpanTracer::Span* SpanTracer::Find(SpanId id) {
  return &spans_[static_cast<size_t>(id - 1)];
}

std::string SpanTracer::ToString() const {
  std::string out;
  for (const Span& span : spans_) {
    out += '[';
    out += FormatSimTime(span.start);
    out += " .. ";
    out += span.end >= 0 ? FormatSimTime(span.end) : std::string("..");
    out += "] ";
    out.append(static_cast<size_t>(span.depth) * 2, ' ');
    out += span.name;
    out += '\n';
  }
  return out;
}

uint64_t SpanTracer::Fingerprint() const {
  return MurmurHash64A(ToString(), 0);
}

void SpanTracer::Clear() {
  spans_.clear();
  stack_.clear();
  mismatches_ = 0;
}

}  // namespace obs
}  // namespace pstore
