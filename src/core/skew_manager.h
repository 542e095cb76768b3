#pragma once

#include <cstdint>
#include <vector>

#include "cluster/chunk_transfer.h"
#include "cluster/engine.h"
#include "common/status.h"
#include "migration/migration_executor.h"

/// \file skew_manager.h
/// E-Store-style skew management, the combination the paper's conclusion
/// calls for ("Future work should investigate combining these ideas to
/// build a system which uses predictive modeling for proactive
/// reconfiguration, but also manages skew").
///
/// P-Store assumes the workload is (approximately) uniform across
/// partitions (Section 4.2); when a hash-bucket becomes hot (a flash
/// sale on one cart/SKU cluster), that assumption breaks and one
/// partition saturates while the cluster as a whole has headroom. The
/// SkewManager runs E-Store's loop at bucket granularity: monitor
/// per-partition load, and when an imbalance exceeds a threshold,
/// relocate the hottest buckets of the hottest partitions onto the
/// coldest partitions. Relocations are small (a bucket at a time) and
/// charge executor time on both sides, like any Squall transfer.

namespace pstore {

/// Skew-manager knobs. Windows under 200 accesses never act, and a
/// relocation's burst lasts the migrator's kb_per_bucket() / wire_kbps.
struct SkewManagerConfig {
  /// Monitoring period (E-Store detects imbalance within seconds).
  SimDuration monitor_period = 10 * kSecond;

  /// Trigger: hottest partition load > threshold * mean partition load.
  double imbalance_threshold = 1.4;

  /// Buckets relocated per balancing cycle (keep moves cheap).
  int32_t max_buckets_per_cycle = 4;

  Status Validate() const;
};

/// \brief Hot-bucket detector and relocator.
class SkewManager {
 public:
  /// \param engine engine to balance (not owned)
  /// \param migrator the elastic reconfiguration's executor (not owned):
  ///        the manager defers while it moves data, and sizes each
  ///        relocation burst from its bucket size and wire rate
  SkewManager(ClusterEngine* engine, MigrationExecutor* migrator,
              SkewManagerConfig config);

  void Start();
  /// Stops monitoring. Relocations in flight still land; a refusal or
  /// eviction of one of them is no longer logged.
  void Stop() {
    running_ = false;
    ++epoch_;
  }

  /// Balancing cycles that actually moved buckets.
  int64_t rebalances() const { return rebalances_; }
  /// Total hot buckets relocated.
  int64_t buckets_moved() const { return buckets_moved_; }

  const SkewManagerConfig& config() const { return config_; }

 private:
  void Tick();
  /// Detects imbalance; fills the moves to perform. Returns true if the
  /// threshold was exceeded.
  bool PlanRelocations(std::vector<BucketMove>* moves) const;
  void ExecuteRelocation(const BucketMove& move);

  ClusterEngine* engine_;
  MigrationExecutor* migrator_;
  SkewManagerConfig config_;
  /// Charges each relocation's burst to both executors (bounded, at
  /// background priority, when overload control is on).
  ChunkTransfer transfer_;
  /// Guards relocation refusal callbacks; bumped by Stop().
  int64_t epoch_ = 0;
  bool running_ = false;
  int64_t rebalances_ = 0;
  int64_t buckets_moved_ = 0;
};

}  // namespace pstore
