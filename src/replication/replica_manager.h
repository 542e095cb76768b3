#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "durability/content_store.h"
#include "durability/durable_store.h"
#include "replication/replication_config.h"
#include "storage/fragment.h"
#include "storage/partition_map.h"
#include "storage/schema.h"
#include "topology/topology.h"

/// \file replica_manager.h
/// Replica placement and recovery bookkeeping for k-safety. The manager
/// owns one *backup* StorageFragment per partition — physically separate
/// from the engine's primary fragments, so primary row counts, orphan
/// checks and migration accounting never see replica rows — plus the
/// per-bucket replica lists, rebuild state, and per-node checkpoint /
/// command-log counters that restart recovery replays.
///
/// The manager is pure state: it never touches the simulator or the
/// partition executors. The ClusterEngine drives all timing (apply work
/// items, rebuild chunk pacing, recovery timers) and calls down into
/// these deterministic state transitions, mirroring how the overload
/// layer splits policy (AdmissionController) from mechanism (engine).

namespace pstore {
namespace replication {

using NodeId = int32_t;

/// \brief Placement, rebuild, and recovery state for k-safety.
class ReplicaManager {
 public:
  /// \param catalog shared table registry (not owned; must outlive this)
  /// \param config validated replication knobs
  /// \param num_buckets bucket universe (matches the PartitionMap)
  /// \param total_partitions max_nodes * partitions_per_node
  /// \param partitions_per_node node width, for partition -> node math
  ReplicaManager(const Catalog* catalog, ReplicationConfig config,
                 int32_t num_buckets, int32_t total_partitions,
                 int32_t partitions_per_node);

  const ReplicationConfig& config() const { return config_; }
  int32_t num_buckets() const { return num_buckets_; }
  NodeId node_of(PartitionId p) const { return p / partitions_per_node_; }

  // --- Placement -------------------------------------------------------

  /// Healthy replica partitions of a bucket, ascending (deterministic).
  const std::vector<PartitionId>& replicas(BucketId b) const {
    return replicas_[static_cast<size_t>(b)];
  }
  int32_t healthy_replicas(BucketId b) const {
    return static_cast<int32_t>(replicas_[static_cast<size_t>(b)].size());
  }
  bool IsDegraded(BucketId b) const {
    return healthy_replicas(b) < config_.k;
  }
  /// Buckets currently below their replication factor.
  int64_t degraded_buckets() const;
  /// Buckets with a replica hosted on partition `q`.
  int64_t backup_buckets_on_partition(PartitionId q) const {
    return backup_count_[static_cast<size_t>(q)];
  }
  /// Buckets with a replica hosted on any partition of node `n`.
  int64_t BackupBucketsOnNode(NodeId n) const;
  bool HasReplicaOn(BucketId b, PartitionId q) const;

  /// Records a new healthy replica (bookkeeping only; the caller has
  /// already populated the backup fragment).
  void AddReplica(BucketId b, PartitionId q);

  /// Copies the primary's current rows for `b` into `target`'s backup
  /// fragment and records the replica (initial placement; failure
  /// repairs go through BeginRebuild/FinishRebuild instead).
  Status InstallReplica(BucketId b, PartitionId target,
                        const StorageFragment& primary);

  /// Drops one replica: removes the bookkeeping and discards the backup
  /// fragment's rows for the bucket. False if `q` held no replica.
  bool RemoveReplica(BucketId b, PartitionId q);

  /// Picks the promotion survivor for a bucket whose primary died: the
  /// lowest-id healthy replica, removed from the replica list. The
  /// caller moves the backup fragment's rows into its engine fragment.
  /// Returns -1 if no healthy replica exists (the bucket's data is
  /// honestly lost).
  PartitionId Promote(BucketId b);

  /// As Promote(b), but considers only replicas `eligible` accepts (the
  /// lowest-id eligible replica wins). Epoch-fenced failover uses this
  /// to promote only replicas the controller can currently reach;
  /// ineligible replicas are left in place. Returns -1 if no eligible
  /// replica exists (the caller defers the bucket instead).
  PartitionId Promote(BucketId b,
                      const std::function<bool(PartitionId)>& eligible);

  /// Relocates a replica's rows and bookkeeping between partitions
  /// (used when a migrated primary lands on its backup's node).
  Status MoveReplica(BucketId b, PartitionId from, PartitionId to);

  /// Drops every replica hosted on node `n` (crash or release). Returns
  /// the number of replicas dropped.
  int64_t DropReplicasOnNode(NodeId n);

  /// Attaches the cluster's placement policy (not owned; must outlive
  /// this). Null — the default — means topology is off and placement
  /// stays domain-blind.
  void set_placement_policy(const topology::PlacementPolicy* policy) {
    policy_ = policy;
  }
  const topology::PlacementPolicy* placement_policy() const {
    return policy_;
  }

  /// True when bucket `b`'s replica set spans beyond the primary's
  /// failure domain — some backup lives in a different domain than
  /// `primary_node`, so one domain outage cannot take out every copy.
  /// Vacuously true with no policy attached (topology off) or with no
  /// replicas (diversity is the degraded-bucket audit's concern, not
  /// this one's). The engine's diversity-repair sweep and the
  /// invariant checker's domain-diversity audit both consult this.
  bool IsDomainDiverse(BucketId b, NodeId primary_node) const;

  StorageFragment* backup_fragment(PartitionId q) {
    return backups_[static_cast<size_t>(q)].get();
  }
  const StorageFragment* backup_fragment(PartitionId q) const {
    return backups_[static_cast<size_t>(q)].get();
  }

  /// Total rows across all backup fragments (replica accounting).
  int64_t TotalBackupRowCount() const;

  // --- Re-replication bookkeeping --------------------------------------
  //
  // The engine ships each rebuild as a pipelined chunk stream
  // (cluster/chunk_transfer.h); the manager holds the per-bucket
  // in-flight target and the generation counter that stream's guard
  // reads by reference (the vector is sized once, at construction).
  // One rebuild per bucket runs at a time; k > 1 deficits are filled
  // sequentially by the engine's next KickRebuilds pass.

  /// Virtual kB per bucket (db_size_mb spread over the universe).
  double kb_per_bucket() const;
  /// Chunks one bucket rebuild ships (>= 1).
  int32_t chunks_per_rebuild() const;

  PartitionId rebuild_target(BucketId b) const {
    return rebuild_target_[static_cast<size_t>(b)];
  }
  bool rebuild_in_flight(BucketId b) const {
    return rebuild_target_[static_cast<size_t>(b)] >= 0;
  }
  const int64_t& rebuild_gen(BucketId b) const {
    return rebuild_gen_[static_cast<size_t>(b)];
  }
  int64_t rebuilds_in_flight() const { return rebuilds_in_flight_; }

  /// Starts a rebuild of `b` toward `target`; returns the generation
  /// that chunk events must carry. Precondition: none in flight for `b`.
  int64_t BeginRebuild(BucketId b, PartitionId target);

  /// Invalidates the in-flight rebuild of `b`, if any (pending chunk
  /// events see a stale generation and become no-ops).
  void CancelRebuild(BucketId b);

  /// Cancels every in-flight rebuild targeting node `n`; returns count.
  int64_t CancelRebuildsTargeting(NodeId n);

  /// Completes a rebuild: snapshots the primary fragment's rows for the
  /// bucket into the target's backup fragment and records the replica.
  Status FinishRebuild(BucketId b, const StorageFragment& primary);

  /// One rebuild chunk landed (metrics pull this counter).
  void OnRebuildChunk() { ++rebuild_chunks_landed_; }

  // --- Synchronous apply bookkeeping -----------------------------------

  void OnApplyStarted() { ++applies_; ++outstanding_applies_; }
  void OnApplyFinished() { --outstanding_applies_; }
  const int64_t& applies() const { return applies_; }
  /// Backup apply work items enqueued but not yet executed — the
  /// replication-lag gauge.
  int64_t outstanding_applies() const { return outstanding_applies_; }

  /// Opens a replica-lag window (the kReplicaLag fault): before `until`
  /// every backup apply carries `lag` of extra network delay. A new
  /// window replaces the open one.
  void OpenLag(SimDuration lag, SimTime until) {
    lag_ = lag;
    lag_until_ = until;
  }
  /// Extra apply delay in force at `now` (0 outside a lag window).
  SimDuration lag(SimTime now) const { return now < lag_until_ ? lag_ : 0; }

  // --- Checkpoint + command log (restart recovery) ---------------------
  //
  // Both are written through the DurableStore interface. The default
  // CountingDurableStore reproduces the historical opaque-size
  // bookkeeping exactly; with config.durability.enabled a
  // ContentDurableStore models every checkpoint/log entry as a
  // checksummed record, so restart replay *validates* before it
  // replays and damage degrades recovery instead of corrupting it.

  /// Logs one committed write on the primary's node. `bucket`/`key`
  /// identify the write for the content-modeled store (the counting
  /// store ignores them).
  void RecordWrite(NodeId n, BucketId bucket = 0, int64_t key = 0) {
    durable_->AppendLog(n, bucket, key);
  }

  /// Fuzzy checkpoint of node `n`: snapshots its hosted kB (plus the
  /// per-bucket `records` when the content store is active) and
  /// truncates its command log.
  void TakeCheckpoint(NodeId n, double hosted_kb,
                      std::vector<durability::CheckpointRecord> records = {});

  /// Clears node `n`'s recovery state (a recovered or newly provisioned
  /// node rejoins empty, with nothing to replay).
  void ResetNode(NodeId n);

  /// Validates node `n`'s durable state and derives the replay
  /// obligation. The counting store is fault-free by construction, so
  /// its plan is always kNormal with the raw counters; the content
  /// store CRC/length-checks every record and may degrade to fallback
  /// or re-replication (bumping its detection counters).
  durability::RecoveryPlan PlanRecovery(NodeId n);

  /// Virtual time a recovery plan costs: checkpoint load at the
  /// configured rate plus per-entry log replay. Always >= 1 us: even
  /// an empty node pays a floor cost, so recovery is never
  /// instantaneous.
  SimDuration PlanDuration(const durability::RecoveryPlan& plan) const;

  /// Virtual time node `n` needs to load its last checkpoint and replay
  /// its command log, damage ignored (the fault-free cost; equals
  /// PlanDuration(PlanRecovery(n)) for an undamaged store).
  SimDuration RecoveryDuration(NodeId n) const;

  int64_t checkpoints() const { return durable_->checkpoints(); }
  int64_t log_entries(NodeId n) const { return durable_->log_entries(n); }
  double checkpoint_kb(NodeId n) const {
    return durable_->checkpoint_kb(n);
  }

  /// The durable store restart recovery replays (never null).
  durability::DurableStore* durable() { return durable_.get(); }

  /// The content-modeled store, or nullptr when durability is disabled
  /// (the fault surface and scrubber only exist with content).
  durability::ContentDurableStore* content() { return content_; }
  const durability::ContentDurableStore* content() const {
    return content_;
  }

  // --- Counters --------------------------------------------------------
  //
  // The counts the engine binds into the metrics registry are returned
  // by reference: the registry reads them live.

  const int64_t& promotions() const { return promotions_; }
  int64_t replicas_dropped() const { return replicas_dropped_; }
  int64_t replica_relocations() const { return replica_relocations_; }
  int64_t rebuilds_started() const { return rebuilds_started_; }
  const int64_t& rebuilds_completed() const { return rebuilds_completed_; }
  const int64_t& rebuild_chunks_landed() const {
    return rebuild_chunks_landed_;
  }

 private:
  const Catalog* catalog_;
  ReplicationConfig config_;
  int32_t num_buckets_;
  int32_t partitions_per_node_;
  const topology::PlacementPolicy* policy_ = nullptr;  ///< Not owned.

  std::vector<std::unique_ptr<StorageFragment>> backups_;  ///< Per partition.
  std::vector<std::vector<PartitionId>> replicas_;  ///< Per bucket, sorted.
  std::vector<int64_t> backup_count_;               ///< Per partition.
  std::vector<PartitionId> rebuild_target_;  ///< Per bucket; -1 = none.
  std::vector<int64_t> rebuild_gen_;         ///< Per bucket.
  int64_t rebuilds_in_flight_ = 0;

  /// Checkpoint + command-log storage; counting or content-modeled
  /// per config_.durability.enabled.
  std::unique_ptr<durability::DurableStore> durable_;
  durability::ContentDurableStore* content_ = nullptr;  ///< Owned above.

  SimDuration lag_ = 0;
  SimTime lag_until_ = -1;  ///< End of the open lag window; -1 = none.

  int64_t applies_ = 0;
  int64_t outstanding_applies_ = 0;
  int64_t promotions_ = 0;
  int64_t replicas_dropped_ = 0;
  int64_t replica_relocations_ = 0;
  int64_t rebuilds_started_ = 0;
  int64_t rebuilds_completed_ = 0;
  int64_t rebuild_chunks_landed_ = 0;
};

}  // namespace replication
}  // namespace pstore
