#pragma once

#include <cstdint>
#include <functional>

/// \file parallel.h
/// Deterministic fan-out over independent work items: SPAR's per-horizon
/// fits, a bench's independent runs.

namespace pstore {

/// Runs body(i) exactly once for each i in [0, n) and returns after
/// every call has finished. The calling thread works alongside
/// min(n, hardware threads) - 1 std::threads, which claim indices from
/// a shared counter and are joined before the return. With n <= 1 or
/// one hardware thread it is a plain loop and starts no thread.
///
/// There is no pool, no global state and no thread-count knob, so a
/// body may itself call ParallelFor without deadlocking.
///
/// Contract: body(i) writes only what index i owns (slot i of a
/// preallocated output, an engine, predictor or planner made for i)
/// and reads nothing that another index writes. Under that contract no
/// result depends on the thread count or on which thread ran which
/// index, so a fanned-out computation is bit-identical to the serial
/// loop over the same body.
void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

}  // namespace pstore
