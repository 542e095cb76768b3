#pragma once

#include <cstdint>

#include "common/status.h"

/// \file durability_config.h
/// Knobs for the content-modeled durable store (checksummed checkpoint
/// and command-log records, CRC/length validation on restart replay,
/// and the background scrubber). Strictly opt-in: with
/// `enabled = false` (the default) the replication layer keeps its
/// historical opaque byte-count bookkeeping — no records, no extra Rng
/// draws, no scheduled scrub work — so pre-existing traces stay
/// byte-identical. See DESIGN.md §14.

namespace pstore {
namespace durability {

/// Durable-storage knobs (embedded in ReplicationConfig; only
/// meaningful while replication itself is enabled).
struct DurabilityConfig {
  /// Master switch. Everything below is inert while false.
  bool enabled = false;

  /// Background scrub rate: virtual kB of durable records verified per
  /// second of virtual time, at 1 kB per record. 0 (the default)
  /// disables the scrubber — damage is then only found at restart
  /// replay. The scrubber walks each node's checkpoint + log
  /// round-robin, re-deriving every CRC, and repairs mismatches in place
  /// from a healthy replica.
  double scrub_rate_kbps = 0.0;

  /// Rejects a negative or non-finite scrub rate.
  Status Validate() const;
};

}  // namespace durability
}  // namespace pstore
