#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/chunk_transfer.h"
#include "cluster/partition_executor.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/net_config.h"
#include "net/network_model.h"
#include "obs/telemetry.h"
#include "overload/admission_controller.h"
#include "overload/overload_config.h"
#include "replication/replica_manager.h"
#include "replication/replication_config.h"
#include "sim/simulator.h"
#include "storage/fragment.h"
#include "storage/partition_map.h"
#include "storage/schema.h"
#include "topology/topology.h"
#include "txn/procedure.h"

/// \file engine.h
/// The multi-node, shared-nothing, main-memory OLTP engine — our H-Store
/// stand-in. Nodes hold `partitions_per_node` partitions; each partition
/// has its own storage fragment and single-threaded executor. Requests
/// are routed by partitioning key to the owning partition (hash buckets
/// via MurmurHash 2.0) and executed there to completion.
///
/// Timing is virtual: per-transaction service cost is drawn around a
/// configured mean, calibrated so a node saturates near the paper's
/// 438 txn/s (Figure 7). Real tuples really move during migration; only
/// the clock is simulated. See DESIGN.md for why this substitution
/// preserves the paper's measured behaviour.

namespace pstore {

using NodeId = int32_t;

/// Engine-wide configuration.
struct EngineConfig {
  int32_t num_buckets = 1024;       ///< Hash-bucket universe.
  int32_t partitions_per_node = 6;  ///< P (6 in the paper's evaluation).
  int32_t max_nodes = 10;           ///< Hardware ceiling (10-node cluster).
  int32_t initial_nodes = 1;        ///< Nodes active at t = 0.

  /// Mean per-transaction service time (at procedure weight 1.0). With
  /// the B2W mix's average weight of ~0.96, 14.2 ms/partition gives a
  /// 6-partition node a saturation throughput of ~438 txn/s, matching
  /// Section 8.1 (the paper adds artificial delays for the same reason).
  double txn_service_us_mean = 14200.0;

  /// Coefficient of variation of service time (lognormal-ish jitter).
  double txn_service_cv = 0.25;

  /// Latency percentile window (the paper reports per-second).
  SimDuration latency_window = kSecond;

  /// Window for throughput accounting in charts (10 s in Figure 9).
  SimDuration throughput_window = 10 * kSecond;

  uint64_t seed = 42;

  /// Overload control (bounded queues, admission, breakers). Disabled
  /// by default; with `overload.enabled == false` the engine's event
  /// sequence is byte-identical to the historical unbounded build.
  overload::OverloadConfig overload;

  /// k-safety (backup replicas, promotion failover, checkpoint+replay
  /// recovery). Disabled by default; with `replication.enabled == false`
  /// the engine keeps the legacy instant round-robin failover and its
  /// event sequence stays byte-identical to the historical build.
  replication::ReplicationConfig replication;

  /// Simulated network substrate (per-link latency, partitions, message
  /// faults) plus heartbeat/lease fencing. Disabled by default; with
  /// `net.enabled == false` no NetworkModel exists, no extra Rng stream
  /// is created, and the engine's event sequence stays byte-identical to
  /// the historical build. Requires `replication.enabled` (fenced
  /// failover promotes backups).
  net::NetConfig net;

  /// Cluster topology (failure domains, node classes, domain-diverse
  /// replica placement, spot-revocation drains). Disabled by default;
  /// with `topology.enabled == false` no PlacementPolicy exists, no
  /// extra Rng stream is created, placement and failover are untouched,
  /// and the engine's event sequence stays byte-identical to the
  /// historical build. Requires `replication.enabled` (diversity
  /// constrains backup replica placement).
  topology::TopologyConfig topology;

  Status Validate() const;
};

/// A step in the machine-allocation timeline (for Equation 1's cost).
struct AllocationEvent {
  SimTime at;
  int32_t nodes;
};

/// \brief The engine: storage, routing, execution, and node lifecycle.
class ClusterEngine {
 public:
  /// \param sim the virtual clock (not owned; must outlive the engine)
  /// \param catalog table registry (copied)
  /// \param registry stored procedures (copied)
  ClusterEngine(Simulator* sim, Catalog catalog, ProcedureRegistry registry,
                EngineConfig config);
  // Scheduled events and `transfer_` hold the engine's address.
  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  // --- Topology --------------------------------------------------------

  int32_t active_nodes() const { return active_nodes_; }
  int32_t max_nodes() const { return config_.max_nodes; }
  /// Smallest active-node count that can still satisfy the configured
  /// replication factor (each bucket's primary plus k backups live on
  /// distinct nodes); 1 when replication is off. Controllers must not
  /// scale in below this — doing so silently strands every bucket at
  /// degraded k with no eligible rebuild target.
  int32_t min_active_nodes() const {
    return replication_ != nullptr ? config_.replication.k + 1 : 1;
  }
  int32_t partitions_per_node() const { return config_.partitions_per_node; }
  int32_t total_partitions() const {
    return config_.max_nodes * config_.partitions_per_node;
  }
  int32_t active_partitions() const {
    return active_nodes_ * config_.partitions_per_node;
  }

  /// Node owning a partition.
  NodeId NodeOfPartition(PartitionId p) const {
    return p / config_.partitions_per_node;
  }

  /// Raises the active-node count to `n` (new nodes join empty); the
  /// migration system then populates them. No-op if n <= active.
  Status ActivateNodes(int32_t n);

  /// Lowers the active-node count to `n`. All partitions of the released
  /// nodes must be empty (drained by migration first).
  Status DeactivateNodes(int32_t n);

  // --- Fault model -----------------------------------------------------
  //
  // A node can *crash* (fail-stop) and later *restart*. Two recovery
  // models exist:
  //
  // Legacy (replication.enabled == false): failover is instantaneous and
  // abstract — the dead node's buckets, rows included, redistribute
  // round-robin over the surviving live partitions, and a restarted node
  // rejoins empty for free. Committed data is never lost by fiat.
  //
  // k-safety (replication.enabled == true): every bucket has k backup
  // replicas kept in sync by applying each write's write-set (the
  // primary's row bodies, shared, never a re-run of the body). A crash
  // *promotes* each dead bucket's lowest-id healthy backup to primary
  // (no bulk teleport; a bucket with no surviving replica honestly
  // loses its rows — see rows_lost()), drops the dead node's replicas,
  // and schedules chunked re-replication to restore k. A restarted node
  // replays checkpoint + command log on the virtual clock before it is
  // marked up (IsNodeRecovering), so recovery takes simulated time and
  // consumes capacity.

  /// True if `n` is an active node that has not crashed.
  bool IsNodeUp(NodeId n) const { return IsActive(n) && state(n).up; }

  /// Active nodes currently serving (active minus crashed).
  int32_t live_nodes() const {
    return CountActive([](const NodeState& s) { return s.up; });
  }

  /// Bumped on every crash and restart. Controllers watch this to reset
  /// fault-sensitive state (e.g. the scale-in confirmation streak).
  int64_t fault_epoch() const { return fault_epoch_; }

  /// Buckets reassigned by crash failovers so far.
  int64_t failover_moves() const { return failover_moves_; }

  /// Crashes an active node: marks it down and fails its buckets over to
  /// the surviving live partitions. Fails with FailedPrecondition if `n`
  /// is not an up, active node or is the last live node.
  Status CrashNode(NodeId n);

  /// Restarts a crashed node; it rejoins empty. Fails with
  /// FailedPrecondition if `n` is not a crashed, active node (or, with
  /// replication on, if it is already recovering). With replication on
  /// the node stays down (IsNodeUp false, IsNodeRecovering true) until
  /// checkpoint load + command-log replay completes on the virtual
  /// clock; the fault epoch bumps at completion, not at this call.
  Status RestartNode(NodeId n);

  // --- Replication / recovery ------------------------------------------

  /// The replica manager, or nullptr when replication is disabled.
  replication::ReplicaManager* replication() { return replication_.get(); }
  const replication::ReplicaManager* replication() const {
    return replication_.get();
  }

  /// True while node `n` is replaying checkpoint + log after a restart.
  bool IsNodeRecovering(NodeId n) const {
    return IsActive(n) && state(n).recovering;
  }

  /// Active nodes currently replaying recovery.
  int32_t nodes_recovering() const {
    return CountActive([](const NodeState& s) { return s.recovering; });
  }

  /// Rows of committed data lost to crashes that found no surviving
  /// replica (always 0 with replication disabled, where failover
  /// teleports rows, and 0 with k >= 1 under single failures).
  int64_t rows_lost() const { return rows_lost_; }

  /// Net rows created by executed procedures since construction: upserts
  /// that inserted (e.g. re-creating a key lost in a crash) minus
  /// deletes. Row conservation holds as loaded - lost + this.
  int64_t rows_net_created() const { return rows_net_created_; }

  /// Completed restart recoveries.
  int64_t recoveries() const { return recoveries_; }

  /// Virtual time spent in completed restart recoveries.
  SimDuration total_recovery_time() const { return total_recovery_time_; }

  /// True while the cluster is below full strength: a node is replaying
  /// recovery or any bucket is below its replication factor. Controllers
  /// treat this as overload evidence and defer scale-ins. Always false
  /// when replication is disabled.
  bool RecoveryInProgress() const;

  /// Least-loaded eligible partition to host a new replica of `b`
  /// (skips the primary's node, nodes already holding a replica, down
  /// or recovering nodes, and the node of an in-flight rebuild target).
  /// Returns -1 if no candidate exists. Exposed for the invariant
  /// checker's rebuild-liveness check.
  PartitionId ChooseBackupPartition(BucketId b) const;

  // --- Network substrate / lease fencing --------------------------------
  //
  // With net.enabled, all cross-node traffic (heartbeats, replication
  // applies, rebuild chunks, migration chunk DATA/ACKs) flows through
  // the NetworkModel, and liveness becomes a *protocol* instead of an
  // oracle: nodes heartbeat the controller, the controller grants
  // leases, and a node whose lease expires self-fences (rejects every
  // transaction pre-execution) strictly before the controller's
  // failover timer fires. Fenced failover bumps the fault epoch and
  // promotes each bucket to a *reachable* backup; a bucket with no
  // reachable replica is deferred — it stays with the fenced node,
  // unavailable but intact, and serves again after the partition heals.
  // Controllers treat suspected (silent but not yet fenced) nodes as
  // alive for capacity purposes and must defer scale-ins.

  /// The network substrate, or nullptr when net is disabled.
  net::NetworkModel* net() { return net_.get(); }
  const net::NetworkModel* net() const { return net_.get(); }

  /// True when node `n`'s heartbeats have been silent longer than the
  /// suspicion timeout but the failover timer has not yet fired (the
  /// controller treats it as suspected, not dead). Always false when
  /// net is disabled.
  bool IsNodeSuspected(NodeId n) const {
    return IsActive(n) && state(n).suspected;
  }

  /// Active nodes currently suspected or fenced. Controllers defer
  /// scale-ins while this is non-zero.
  int32_t nodes_suspected() const {
    return CountActive(
        [](const NodeState& s) { return s.suspected || s.fenced; });
  }

  /// True when node `n` holds an unexpired lease (always true when net
  /// is disabled). A node without a lease self-fences: it rejects every
  /// transaction before execution, so it can never commit a write that
  /// a concurrently promoted backup misses.
  bool NodeHasLease(NodeId n) const {
    return net_ == nullptr || (n >= 0 && n < config_.max_nodes &&
                               sim_->Now() < state(n).lease_until);
  }

  /// True when node `n` has been fenced by the controller (failover ran
  /// against it while unreachable) and has not yet resumed heartbeats.
  bool IsNodeFenced(NodeId n) const { return IsActive(n) && state(n).fenced; }

  /// Transactions rejected pre-execution because the executing node had
  /// no valid lease or could not reach its replicas or the controller.
  int64_t fenced_rejections() const { return fenced_rejections_; }

  /// Tripwire: commits executed on a node without a valid lease. The
  /// pre-execution gate makes this impossible; the invariant checker
  /// audits it stays 0 (a non-zero value is a dual-commit bug).
  int64_t fenced_commits() const { return fenced_commits_; }

  /// Suspicion transitions (node went silent past the suspicion
  /// timeout) so far.
  int64_t suspicions() const { return suspicions_; }

  /// Fenced failovers run (lease-expired nodes whose buckets were
  /// promoted away or deferred).
  int64_t fenced_failovers() const { return fenced_failovers_; }

  /// Buckets deferred by fenced failovers (no reachable replica; left
  /// with the fenced node, unavailable until heal).
  int64_t buckets_deferred() const { return buckets_deferred_; }

  /// Backup replicas evicted by the commit gate because they were
  /// unreachable from the primary while the controller was reachable.
  int64_t replicas_evicted_unreachable() const {
    return replicas_evicted_unreachable_;
  }

  // --- Topology layer / graceful drain ----------------------------------
  //
  // With topology.enabled, every node maps to a failure domain and a
  // node class (spot vs on-demand), backup placement prefers domains
  // different from the primary's (so no bucket keeps its primary and
  // all backups in one domain while a diverse target exists), and
  // nodes can be *drained*: a spot-revocation notice marks the node
  // draining — no new backup replicas target it and controllers treat
  // it as impending capacity loss — until the deadline, when it is
  // hard-killed like a crash. The engine does not move data itself:
  // whoever starts the drain starts the evacuation right after it
  // (MigrationExecutor::StartEvacuation with drain_deadline(n));
  // whatever misses the deadline falls back to replica promotion in the
  // kill's failover.

  /// The placement policy, or nullptr when topology is disabled.
  const topology::PlacementPolicy* placement_policy() const {
    return policy_.get();
  }

  /// True while node `n` is draining toward a revocation deadline.
  bool IsNodeDraining(NodeId n) const {
    return IsActive(n) && state(n).draining;
  }

  /// Active nodes currently draining. Controllers treat these as
  /// impending capacity loss: scale out ahead of the kill and defer
  /// scale-ins. Always 0 when topology is disabled.
  int32_t nodes_draining() const {
    return CountActive([](const NodeState& s) { return s.draining; });
  }

  /// Absolute hard-kill deadline of a draining node (meaningful only
  /// while IsNodeDraining(n)).
  SimTime drain_deadline(NodeId n) const {
    return IsActive(n) ? state(n).drain_deadline : 0;
  }

  /// Puts node `n` into the draining state with `notice` of advance
  /// warning; at the deadline the node is hard-killed (CrashNode).
  /// Fails with FailedPrecondition when topology is disabled, `n` is
  /// not an up active node, `n` is already draining, or `n` is the
  /// last live node; InvalidArgument when `notice` <= 0.
  Status StartDrain(NodeId n, SimDuration notice);

  /// Drains started (spot-revocation notices accepted).
  int64_t drains_started() const { return drains_started_; }

  /// Draining nodes hard-killed at their deadline.
  int64_t drain_kills() const { return drain_kills_; }

  /// Deadline kills that found some hosted bucket with no live replica
  /// left to promote — revocations infeasible to survive (rows were
  /// honestly lost). Stays 0 whenever a live replica existed off the
  /// doomed node at the deadline.
  int64_t drain_kills_infeasible() const { return drain_kills_infeasible_; }

  // --- Data ------------------------------------------------------------

  const Catalog& catalog() const { return catalog_; }
  const ProcedureRegistry& procedures() const { return registry_; }
  const PartitionMap& partition_map() const { return map_; }

  /// Direct bulk load (bypasses executors; used to populate the DB).
  Status LoadRow(TableId table, const Row& row);

  /// Moves one bucket's rows between fragments and updates the map.
  /// Called by the migration executor when a bucket finishes shipping.
  Status ApplyBucketMove(const BucketMove& move);

  /// Replaces the routing map wholesale (initial placement only).
  void SetPartitionMap(PartitionMap map);

  StorageFragment* fragment(PartitionId p) {
    return fragments_[static_cast<size_t>(p)].get();
  }
  const StorageFragment* fragment(PartitionId p) const {
    return fragments_[static_cast<size_t>(p)].get();
  }
  PartitionExecutor* executor(PartitionId p) {
    return executors_[static_cast<size_t>(p)].get();
  }
  const PartitionExecutor* executor(PartitionId p) const {
    return executors_[static_cast<size_t>(p)].get();
  }

  /// Total rows across all fragments (for conservation checks).
  int64_t TotalRowCount() const;

  // --- Execution -------------------------------------------------------

  /// Submits a transaction at the current virtual time. It is routed by
  /// `req.key`, queued on the owning partition, and executed after
  /// queueing delay + service time. Routing consults the partition map
  /// at execution-queue time; bucket moves apply atomically between
  /// transactions, so a transaction always runs where its key lives.
  /// `on_done` (optional) fires at completion with the result.
  void Submit(TxnRequest req,
              std::function<void(const TxnResult&)> on_done = nullptr);

  // --- Metrics ---------------------------------------------------------

  /// Attaches observability sinks ("cluster.*" metrics: per-node txn
  /// counts, latency/queue-delay histograms, abort counts, node
  /// lifecycle gauges). Counts the engine keeps anyway are bound into
  /// the registry; the other handles are cached here, so the hot path
  /// performs no name lookups. Call once, before submitting load.
  void set_telemetry(const obs::Telemetry& telemetry);

  const WindowedPercentiles& latencies() const { return latencies_; }
  WindowedPercentiles& mutable_latencies() { return latencies_; }
  const Histogram& latency_histogram() const { return latency_histogram_; }

  int64_t txns_committed() const { return txns_committed_; }
  int64_t txns_aborted() const { return txns_aborted_; }

  /// Transactions shed by overload control (queue-full rejections,
  /// breaker rejections, evictions, and deadline expiries). Always 0
  /// when overload control is disabled.
  int64_t txns_shed() const { return txns_shed_; }

  /// Transactions submitted but not yet committed, aborted, or shed.
  /// Conservation invariant: submitted == committed + aborted + shed +
  /// in_flight at every quiescent point.
  int64_t txns_in_flight() const { return txns_in_flight_; }

  /// The admission controller, or nullptr when overload control is
  /// disabled. Controllers use it to read breaker state.
  overload::AdmissionController* admission() { return admission_.get(); }

  /// Transactions submitted so far (the controller's load signal).
  int64_t txns_submitted() const { return next_txn_seq_; }

  /// Completed txns per throughput window (index = window number).
  const std::vector<int64_t>& throughput_windows() const {
    return throughput_;
  }

  /// Per-partition completed-transaction counts (uniformity analysis,
  /// Section 8.1).
  const std::vector<int64_t>& partition_access_counts() const {
    return partition_access_counts_;
  }

  /// Per-bucket access counts since the last ResetBucketAccessCounts()
  /// — the detailed monitoring an E-Store-style skew manager turns on
  /// to find hot data.
  const std::vector<int64_t>& bucket_access_counts() const {
    return bucket_access_counts_;
  }
  void ResetBucketAccessCounts() {
    std::fill(bucket_access_counts_.begin(), bucket_access_counts_.end(), 0);
  }

  /// Machine-allocation step function since t = 0.
  const std::vector<AllocationEvent>& allocation_timeline() const {
    return allocation_timeline_;
  }

  /// Time-weighted average of allocated nodes over [0, now].
  double AverageNodesAllocated() const;

  Simulator* simulator() { return sim_; }
  const EngineConfig& config() const { return config_; }

 private:
  /// One node's lifecycle state, indexed by NodeId in `nodes_` (always
  /// sized to max_nodes). A flag of a disabled subsystem never leaves its
  /// reset value, so accessors need no per-subsystem null checks.
  struct NodeState {
    bool up = true;           ///< Not crashed (meaningful while active).
    bool recovering = false;  ///< Replaying checkpoint + log (replication).
    bool suspected = false;   ///< Controller suspicion flag (net).
    bool fenced = false;      ///< Fenced failover ran against it (net).
    bool draining = false;    ///< Toward a revocation deadline (topology).
    int64_t recovery_gen = 0;    ///< Stale-recovery guard.
    int64_t drain_gen = 0;       ///< Stale-deadline guard.
    SimTime recovery_start = 0;  ///< For the recovery span.
    SimTime last_hb_from = 0;    ///< Controller: last beat seen.
    SimTime lease_until = 0;     ///< Node: lease expiry.
    SimTime drain_deadline = 0;  ///< Hard-kill deadline.
  };

  bool IsActive(NodeId n) const { return n >= 0 && n < active_nodes_; }
  NodeState& state(NodeId n) { return nodes_[static_cast<size_t>(n)]; }
  const NodeState& state(NodeId n) const {
    return nodes_[static_cast<size_t>(n)];
  }
  /// Active nodes whose state satisfies `pred`.
  template <typename Pred>
  int32_t CountActive(Pred pred) const {
    return static_cast<int32_t>(
        std::count_if(nodes_.begin(), nodes_.begin() + active_nodes_, pred));
  }
  /// Node `n` starts a fresh life (provisioned, released, or recovered):
  /// up, not recovering, suspected, fenced or draining, a fresh lease,
  /// its durable state reset, and any pending recovery or deadline kill
  /// of its previous life voided.
  void ResetNodeState(NodeId n);
  /// Appends `what` to the event stream at the current virtual time
  /// (no-op when no stream is attached).
  void RecordEvent(const char* category, const std::string& what);
  /// Shared tail of ActivateNodes/DeactivateNodes: records the new count
  /// on the allocation timeline, gauges and event stream, then re-kicks
  /// rebuilds (capacity changed).
  void SetActiveNodes(int32_t n);

  /// One submitted transaction, from Submit until it commits, aborts or
  /// is shed. The engine owns every PendingTxn it ever made and recycles
  /// finished ones (AcquireTxn / ReleaseTxn), so the closures that carry
  /// a txn through the executor and the simulator hold only `this` and
  /// the txn pointer and fit std::function's inline buffer.
  struct PendingTxn {
    TxnRequest req;
    SimTime arrival = 0;
    std::function<void(const TxnResult&)> on_done;
    int8_t priority = kPriorityNormal;  ///< Resolved at Submit.
    SimTime deadline = -1;  ///< Absolute service-start deadline; -1 = none.
    BucketId bucket = 0;    ///< KeyToBucket(req.key), hashed once.
    int64_t trace = -1;     ///< TxnTraceRecorder handle; -1 = unsampled.
    PartitionId partition = 0;  ///< Where RouteAndRun last queued it.
    SimDuration service = 0;    ///< Its service time there.
  };

  /// A PendingTxn for `req` arriving now: recycled from the free list
  /// (allocated only while the list is empty), with the txn id, resolved
  /// priority, cached bucket, deadline and trace handle stamped (ids
  /// follow call order).
  PendingTxn* AcquireTxn(TxnRequest req,
                         std::function<void(const TxnResult&)> on_done);
  /// Returns a finished txn to the free list, dropping its callback and
  /// arguments.
  void ReleaseTxn(PendingTxn* txn);

  /// Lognormal service time of one call of `proc` (parameters computed
  /// once per procedure in the constructor).
  SimDuration DrawServiceTime(ProcedureId proc);
  void RecordCompletion(SimTime arrival, SimTime finished);
  /// Draws the service time and queues `txn` on the partition owning its
  /// bucket (through admission control when it is on).
  void RouteAndRun(PendingTxn* txn);
  /// `txn`'s service on its partition ended: forwards it if its bucket
  /// moved meanwhile, else runs the body (or rejects it when fenced),
  /// replicates the write, records the completion and releases it.
  void Execute(PendingTxn* txn, SimTime started, SimTime finished);
  /// The executor shed `txn` from its queue.
  void OnShed(PendingTxn* txn, SimTime at, PartitionExecutor::ShedCause cause);
  /// Completes `txn` as shed at `at` (trace detail `detail`): counts the
  /// shed, feeds the node's breaker (unless the shed was *caused by* the
  /// breaker being open, which must not re-trigger it), and ends it with
  /// a retryable kUnavailable result.
  void FinishShed(PendingTxn* txn, NodeId node, bool feed_breaker, SimTime at,
                  int32_t detail);
  /// The one way a transaction ends (committed, aborted, shed or fenced
  /// in `phase` at `at`): leaves the in-flight count, records and
  /// finalizes its trace, fires on_done with `result` (or, when null,
  /// with the kUnavailable result of a shed or fenced txn, built only if
  /// there is an on_done) and releases it.
  void EndTxn(PendingTxn* txn, obs::TxnPhase phase, SimTime at, int32_t detail,
              const TxnResult* result);

  // Replication internals (all no-ops when replication_ is null).
  /// Seeds k replicas per bucket over the initial topology.
  void InitialReplicaPlacement();
  /// Logs the write to the primary node's command log, synchronously
  /// applies its write-set (`writes`, the primary execution's successful
  /// inserts, upserts and deletes) to every healthy replica's backup
  /// fragment, and charges the modelled apply work to their executors.
  /// Backups never run the procedure body.
  void ReplicateWrite(PartitionId primary, const PendingTxn& pending,
                      const WriteSet& writes);
  /// Reconciles replica placement after `bucket` became owned by `to`
  /// (replica colliding with the new primary's node relocates or drops).
  void OnBucketReassigned(BucketId bucket, PartitionId to);
  /// Cancels `bucket`'s in-flight rebuild if it targets the node of the
  /// bucket's current primary (the replica would co-locate with it).
  /// Returns true if it cancelled one.
  bool CancelCollidingRebuild(BucketId bucket);
  /// Fails every bucket of node `n` over to a backup replica (lowest-id
  /// eligible first), preferring replicas the controller can reach. A
  /// bucket with no reachable replica is, for a crash, promoted to any
  /// replica or else loses its rows and parks on the first live
  /// partition; for a fence it is deferred (stays with `n`, intact).
  /// Returns the number of buckets promoted.
  int64_t PromoteBucketsOf(NodeId n, bool crashed);
  /// Starts rebuilds for every degraded bucket with an eligible target:
  /// each is a pipelined chunk stream from the bucket's primary.
  void KickRebuilds();
  /// Last chunk of the bucket's current rebuild landed: snapshot rows,
  /// record the replica, continue.
  void FinishRebuild(BucketId bucket);
  /// Recovery replay done: node rejoins, fault epoch bumps.
  void FinishRecovery(NodeId n, int64_t gen);
  /// Revocation deadline reached: clears the draining state, snapshots
  /// survivability (any hosted bucket without a live off-node replica
  /// marks the kill infeasible), and hard-kills the node. `gen` guards
  /// against deadlines voided by an earlier crash or release.
  void FinishDrainDeadline(NodeId n, int64_t gen);
  /// Recurring cluster-wide fuzzy checkpoint.
  void ScheduleCheckpoint();
  /// Recurring background scrub tick (content-modeled durability only):
  /// verifies durable records at the configured kB/s, repairing damage
  /// from a healthy replica while one survives.
  void ScheduleScrub();

  // Network substrate internals (all no-ops when net_ is null).
  /// Recurring per-node heartbeat send loop (runs on the virtual clock
  /// forever; crashed/recovering nodes simply skip their beat).
  void HeartbeatLoop(NodeId n);
  /// Controller side: heartbeat from `n` arrived; renew suspicion state
  /// and send the lease grant back.
  void OnHeartbeatReceived(NodeId n);
  /// Recurring controller monitor: ages heartbeats into suspicion and,
  /// past the failover timeout, fenced failover.
  void MonitorLoop();
  /// Epoch-fenced failover of an unreachable node: promote each of its
  /// buckets to a reachable backup; defer buckets with none.
  void FenceAndFailover(NodeId n);
  /// Pre-execution gate: true when the transaction may run on `p`'s
  /// node (valid lease, and every replica of `bucket` reachable — or
  /// the controller reachable, in which case unreachable replicas are
  /// evicted and the write proceeds).
  bool NetAdmit(PartitionId p, BucketId bucket);

  Simulator* sim_;
  Catalog catalog_;
  ProcedureRegistry registry_;
  EngineConfig config_;

  std::vector<std::unique_ptr<StorageFragment>> fragments_;
  std::vector<std::unique_ptr<PartitionExecutor>> executors_;
  /// Write-set buffer every primary execution records into (reused, so
  /// replicating a write allocates nothing once it has grown).
  WriteSet write_set_;
  PartitionMap map_;
  int32_t active_nodes_;
  std::vector<NodeState> nodes_;
  int64_t fault_epoch_ = 0;
  int64_t failover_moves_ = 0;

  std::unique_ptr<replication::ReplicaManager> replication_;
  /// Paces and gates rebuild chunks.
  ChunkTransfer transfer_{this};
  int64_t rows_lost_ = 0;
  int64_t rows_net_created_ = 0;
  int64_t recoveries_ = 0;
  SimDuration total_recovery_time_ = 0;

  std::unique_ptr<net::NetworkModel> net_;
  int64_t fenced_rejections_ = 0;
  int64_t fenced_commits_ = 0;
  int64_t suspicions_ = 0;
  int64_t fenced_failovers_ = 0;
  int64_t buckets_deferred_ = 0;
  int64_t replicas_evicted_unreachable_ = 0;

  std::unique_ptr<topology::PlacementPolicy> policy_;
  int64_t drains_started_ = 0;
  int64_t drain_kills_ = 0;
  int64_t drain_kills_infeasible_ = 0;

  obs::Telemetry telemetry_;
  // Handles of the metrics the engine keeps no count of itself (null
  // until set_telemetry).
  obs::Counter* m_forwarded_ = nullptr;
  obs::Counter* m_shed_deadline_ = nullptr;
  obs::Counter* m_shed_evicted_ = nullptr;
  obs::Counter* m_rejected_queue_full_ = nullptr;
  obs::Counter* m_rejected_breaker_ = nullptr;
  obs::Counter* m_breaker_trips_ = nullptr;
  obs::Gauge* m_active_nodes_ = nullptr;
  obs::Gauge* m_live_nodes_ = nullptr;
  obs::HistogramMetric* m_latency_us_ = nullptr;
  obs::HistogramMetric* m_queue_delay_us_ = nullptr;
  std::vector<obs::Counter*> m_node_txns_;  ///< Indexed by NodeId.
  /// Lifecycle tracing (null unless an *enabled* recorder was attached;
  /// caching the enabled check keeps the disabled path branch-free).
  obs::TxnTraceRecorder* traces_ = nullptr;
  /// Per-procedure / per-partition latency histograms, registered only
  /// when tracing is on so pre-existing metric dumps stay byte-identical.
  std::vector<obs::HistogramMetric*> m_proc_latency_;   ///< By ProcedureId.
  std::vector<obs::HistogramMetric*> m_part_latency_;   ///< By PartitionId.

  /// Every PendingTxn the engine made, and the finished ones to reuse.
  std::vector<std::unique_ptr<PendingTxn>> txn_pool_;
  std::vector<PendingTxn*> free_txns_;

  /// The last admission's row fetch, awaiting its second prefetch stage
  /// (a copy: the PendingTxn itself may be recycled by then).
  struct PrefetchStage {
    PartitionId partition = -1;  ///< -1 = none yet.
    BucketId bucket = 0;
    int64_t key = 0;
  };
  PrefetchStage prefetch_prev_;

  /// Service-time distribution of each procedure (by ProcedureId).
  struct ServiceDist {
    double mean = 0;   ///< txn_service_us_mean x service_weight.
    double mu = 0;     ///< Lognormal location for that mean and cv.
    double sigma = 0;  ///< Lognormal scale: sqrt(log1p(cv^2)).
  };
  std::vector<ServiceDist> service_dists_;

  Rng rng_;
  WindowedPercentiles latencies_;
  Histogram latency_histogram_;
  std::vector<int64_t> throughput_;
  std::vector<int64_t> partition_access_counts_;
  std::vector<int64_t> bucket_access_counts_;
  std::vector<AllocationEvent> allocation_timeline_;
  int64_t txns_committed_ = 0;
  int64_t txns_aborted_ = 0;
  int64_t txns_shed_ = 0;
  int64_t txns_in_flight_ = 0;
  int64_t next_txn_seq_ = 0;
  std::unique_ptr<overload::AdmissionController> admission_;
};

}  // namespace pstore
