#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "common/status.h"
#include "durability/durability_config.h"

/// \file replication_config.h
/// Configuration for the k-safety subsystem: per-bucket primary/backup
/// placement, synchronous apply of committed writes to backups, crash
/// failover by *promotion* (the backup becomes the primary — no bulk
/// data teleport), chunked re-replication to restore k after a failure,
/// and restart recovery via deterministic checkpoint + command-log
/// replay on the simulator clock. Strictly opt-in: with
/// `enabled = false` (the default) the engine behaves exactly as the
/// historical build — no extra Rng draws, metrics, events, or scheduled
/// work — so pre-existing traces stay byte-identical.
///
/// Sizing mirrors the migration executor: a *virtual* database size
/// determines per-bucket kB, and rebuild/checkpoint work takes virtual
/// time derived from configured rates, so recovery consumes effective
/// capacity (Eq. 7's spirit applied to failures instead of moves) even
/// though test databases hold few physical rows. See DESIGN.md §10.

namespace pstore {
namespace replication {

/// Replication/recovery knobs (engine-wide; placement is per bucket).
struct ReplicationConfig {
  /// Master switch. Everything below is inert while false.
  bool enabled = false;

  /// k: backups maintained per bucket (k-safety). With k = 1 every
  /// committed row survives any single node failure. A backup's apply
  /// costs half the primary's drawn service time on its partition's
  /// executor.
  int32_t k = 1;

  /// Virtual database size used to size rebuild and checkpoint work
  /// (matches MigrationOptions::db_size_mb semantics; 1106 MB in §8.1).
  double db_size_mb = 1106.0;

  /// Upper bound on one re-replication chunk.
  double rebuild_chunk_kb = 1000.0;

  /// Sustained per-bucket rebuild rate (R-like pacing; rebuilds are
  /// throttled exactly like Squall streams so they do not saturate the
  /// donor partition).
  double rebuild_rate_kbps = 244.0;

  /// Burst rate while a rebuild chunk is in flight; the chunk occupies
  /// both the donor and the target executor for chunk_kb / wire_kbps.
  double wire_kbps = 10240.0;

  /// Period of the cluster-wide fuzzy checkpoint. Each checkpoint
  /// snapshots every live node's hosted data size and truncates its
  /// command log; restart recovery loads the checkpoint at 100 MB/s and
  /// replays the log at 100 us per command.
  SimDuration checkpoint_period = 60 * kSecond;

  /// Content-modeled durable storage (checksummed checkpoint/log
  /// records, corruption detection, scrubbing). Disabled by default;
  /// with `durability.enabled == false` the opaque-size bookkeeping is
  /// arithmetically unchanged and pre-existing traces stay
  /// byte-identical.
  durability::DurabilityConfig durability;

  /// Rejects non-positive or non-finite sizes/rates/periods and k < 1
  /// (the engine additionally bounds k against its node ceiling), and
  /// validates the embedded durability config when enabled.
  Status Validate() const;
};

}  // namespace replication
}  // namespace pstore
