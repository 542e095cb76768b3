#include "cluster/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace pstore {

namespace {
/// Backup apply cost as a fraction of the primary's drawn service time.
/// Applying a deterministic command on a replica skips client handling
/// and result marshalling, so it is cheaper than the original execution
/// — but not free: apply work occupies the backup partition's executor
/// (the write amplification Eq. 5/7 must model).
constexpr double kBackupApplyWeight = 0.5;
/// Virtual size of one durable record, which converts the scrub rate
/// into records verified per scrub tick.
constexpr double kDurableRecordKb = 1.0;
}  // namespace

Status EngineConfig::Validate() const {
  if (num_buckets < 1) return Status::InvalidArgument("num_buckets < 1");
  if (partitions_per_node < 1) {
    return Status::InvalidArgument("partitions_per_node < 1");
  }
  if (max_nodes < 1) return Status::InvalidArgument("max_nodes < 1");
  if (initial_nodes < 1 || initial_nodes > max_nodes) {
    return Status::InvalidArgument("initial_nodes out of [1, max_nodes]");
  }
  if (txn_service_us_mean <= 0) {
    return Status::InvalidArgument("txn_service_us_mean <= 0");
  }
  if (txn_service_cv < 0) return Status::InvalidArgument("txn_service_cv < 0");
  // Completions divide the virtual clock by both windows.
  if (latency_window <= 0) {
    return Status::InvalidArgument("latency_window <= 0");
  }
  if (throughput_window <= 0) {
    return Status::InvalidArgument("throughput_window <= 0");
  }
  if (num_buckets < max_nodes * partitions_per_node) {
    return Status::InvalidArgument(
        "need at least one bucket per partition at max scale");
  }
  if (overload.enabled) PSTORE_RETURN_NOT_OK(overload.Validate());
  if (replication.enabled) {
    PSTORE_RETURN_NOT_OK(replication.Validate());
    if (replication.k + 1 > max_nodes) {
      return Status::InvalidArgument(
          "replication.k + 1 exceeds max_nodes (a bucket's primary plus "
          "its k replicas need k + 1 distinct nodes)");
    }
  }
  if (net.enabled) {
    PSTORE_RETURN_NOT_OK(net.Validate());
    if (!replication.enabled) {
      return Status::InvalidArgument(
          "net.enabled requires replication.enabled (fenced failover "
          "promotes backup replicas)");
    }
  }
  if (topology.enabled) {
    PSTORE_RETURN_NOT_OK(topology.Validate());
    if (!replication.enabled) {
      return Status::InvalidArgument(
          "topology.enabled requires replication.enabled (domain-diverse "
          "placement and drain failover act on backup replicas)");
    }
  }
  return Status::OK();
}

ClusterEngine::ClusterEngine(Simulator* sim, Catalog catalog,
                             ProcedureRegistry registry, EngineConfig config)
    : sim_(sim),
      catalog_(std::move(catalog)),
      registry_(std::move(registry)),
      config_(config),
      map_(config.num_buckets,
           config.initial_nodes * config.partitions_per_node),
      active_nodes_(config.initial_nodes),
      rng_(config.seed),
      latencies_(config.latency_window) {
  assert(config_.Validate().ok());
  const int32_t total = total_partitions();
  fragments_.reserve(static_cast<size_t>(total));
  executors_.reserve(static_cast<size_t>(total));
  for (int32_t p = 0; p < total; ++p) {
    fragments_.push_back(
        std::make_unique<StorageFragment>(&catalog_, config_.num_buckets));
    executors_.push_back(std::make_unique<PartitionExecutor>(sim_));
  }
  partition_access_counts_.assign(static_cast<size_t>(total), 0);
  bucket_access_counts_.assign(static_cast<size_t>(config_.num_buckets), 0);
  // Every node starts with a grace lease; with net on, the first
  // heartbeat round renews it before it can expire (kHeartbeatPeriod <
  // lease_timeout).
  nodes_.assign(static_cast<size_t>(config_.max_nodes),
                NodeState{.lease_until = config_.net.lease_timeout});
  allocation_timeline_.push_back(AllocationEvent{0, active_nodes_});
  // Lognormal with each procedure's mean and the configured coefficient
  // of variation; the same doubles a per-call computation would give.
  const double cv2 = config_.txn_service_cv * config_.txn_service_cv;
  const double sigma2 = std::log1p(cv2);
  for (size_t id = 0; id < registry_.size(); ++id) {
    ServiceDist dist;
    dist.mean = config_.txn_service_us_mean *
                registry_.Get(static_cast<ProcedureId>(id)).service_weight;
    dist.mu = std::log(dist.mean) - sigma2 / 2.0;
    dist.sigma = std::sqrt(sigma2);
    service_dists_.push_back(dist);
  }
  if (config_.overload.enabled) {
    for (auto& ex : executors_) {
      ex->set_queue_limit(
          static_cast<size_t>(config_.overload.max_queue_depth));
    }
    admission_ = std::make_unique<overload::AdmissionController>(
        config_.overload, config_.max_nodes);
  }
  if (config_.topology.enabled) {
    // No extra Rng stream: the topology layer is fully deterministic
    // (domain and class derive from the node index), so toggling it
    // cannot perturb any other subsystem's draw sequence.
    policy_ = std::make_unique<topology::PlacementPolicy>(config_.topology);
  }
  if (config_.replication.enabled) {
    replication_ = std::make_unique<replication::ReplicaManager>(
        &catalog_, config_.replication, config_.num_buckets, total,
        config_.partitions_per_node);
    if (policy_ != nullptr) {
      replication_->set_placement_policy(policy_.get());
    }
    InitialReplicaPlacement();
    ScheduleCheckpoint();
    if (replication_->content() != nullptr &&
        config_.replication.durability.scrub_rate_kbps > 0) {
      ScheduleScrub();
    }
  }
  if (config_.net.enabled) {
    // A dedicated Rng stream: the substrate's draws (latency, loss)
    // never perturb the engine's service-time stream, so toggling net
    // off keeps every other subsystem's sequence byte-identical.
    net_ = std::make_unique<net::NetworkModel>(
        sim_, config_.net, config_.seed ^ 0xd1b54a32d192ed03ULL);
    for (NodeId n = 0; n < config_.max_nodes; ++n) HeartbeatLoop(n);
    MonitorLoop();
  }
}

void ClusterEngine::set_telemetry(const obs::Telemetry& telemetry) {
  telemetry_ = telemetry;
  // Cache the recorder only when it can actually record, so the
  // disabled path (the default) stays a null-pointer check.
  traces_ = (telemetry_.txn_traces != nullptr &&
             telemetry_.txn_traces->enabled())
                ? telemetry_.txn_traces
                : nullptr;
  obs::MetricsRegistry* metrics = telemetry_.metrics;
  if (metrics == nullptr) return;
  metrics->BindCounter("cluster.txn_committed", &txns_committed_);
  metrics->BindCounter("cluster.txn_aborted", &txns_aborted_);
  m_forwarded_ = metrics->GetCounter("cluster.txn_forwarded");
  metrics->BindCounter("cluster.failover_moves", &failover_moves_);
  m_active_nodes_ = metrics->GetGauge("cluster.active_nodes");
  m_live_nodes_ = metrics->GetGauge("cluster.live_nodes");
  m_active_nodes_->Set(active_nodes_);
  m_live_nodes_->Set(live_nodes());
  m_latency_us_ = metrics->GetHistogram("cluster.txn_latency_us");
  m_queue_delay_us_ = metrics->GetHistogram("cluster.queue_delay_us");
  m_node_txns_.assign(static_cast<size_t>(config_.max_nodes), nullptr);
  for (int32_t n = 0; n < config_.max_nodes; ++n) {
    m_node_txns_[static_cast<size_t>(n)] =
        metrics->GetCounter("cluster.node" + std::to_string(n) + ".txns");
  }
  // Queue depths are cheap to read but change constantly; expose them as
  // callback gauges the exporter evaluates at sample time.
  metrics->RegisterCallbackGauge("cluster.queue_depth_total", [this]() {
    int64_t total = 0;
    for (int32_t p = 0; p < active_partitions(); ++p) {
      total += static_cast<int64_t>(
          executors_[static_cast<size_t>(p)]->queue_length());
    }
    return static_cast<double>(total);
  });
  metrics->RegisterCallbackGauge("cluster.queue_depth_max", [this]() {
    size_t deepest = 0;
    for (int32_t p = 0; p < active_partitions(); ++p) {
      deepest = std::max(deepest,
                         executors_[static_cast<size_t>(p)]->queue_length());
    }
    return static_cast<double>(deepest);
  });
  // Overload metrics are registered only when overload control is on, so
  // pre-existing metric dumps stay byte-identical in the default build.
  if (admission_ != nullptr) {
    metrics->BindCounter("cluster.txn_shed", &txns_shed_);
    m_shed_deadline_ = metrics->GetCounter("cluster.txn_shed_deadline");
    m_shed_evicted_ = metrics->GetCounter("cluster.txn_shed_evicted");
    m_rejected_queue_full_ =
        metrics->GetCounter("cluster.txn_rejected_queue_full");
    m_rejected_breaker_ =
        metrics->GetCounter("cluster.txn_rejected_breaker_open");
    m_breaker_trips_ = metrics->GetCounter("cluster.breaker_trips");
    metrics->RegisterCallbackGauge("cluster.shed_rate", [this]() {
      return next_txn_seq_ == 0
                 ? 0.0
                 : static_cast<double>(txns_shed_) /
                       static_cast<double>(next_txn_seq_);
    });
    metrics->RegisterCallbackGauge("cluster.breakers_open", [this]() {
      return static_cast<double>(
          admission_->OpenBreakerCount(sim_->Now()));
    });
    for (int32_t n = 0; n < config_.max_nodes; ++n) {
      admission_->breaker(n)->set_on_state_change(
          [this, n](SimTime at, overload::BreakerState from,
                    overload::BreakerState to) {
            if (to == overload::BreakerState::kOpen) {
              m_breaker_trips_->Increment();
            }
            if (telemetry_.events != nullptr) {
              telemetry_.events->Record(
                  at, "overload",
                  "node " + std::to_string(n) + " breaker " +
                      overload::BreakerStateName(from) + " -> " +
                      overload::BreakerStateName(to));
            }
          });
    }
  }
  // Replication metrics exist only when k-safety is on, keeping the
  // default build's metric dumps byte-identical.
  if (replication_ != nullptr) {
    metrics->BindCounter("replication.promotions",
                         &replication_->promotions());
    metrics->BindCounter("replication.applies", &replication_->applies());
    metrics->BindCounter("replication.rebuild_chunks",
                         &replication_->rebuild_chunks_landed());
    metrics->BindCounter("replication.rebuilds_completed",
                         &replication_->rebuilds_completed());
    metrics->BindCounter("replication.recoveries", &recoveries_);
    metrics->BindCounter("replication.rows_lost", &rows_lost_);
    metrics->RegisterCallbackGauge("replication.lag", [this]() {
      return static_cast<double>(replication_->outstanding_applies());
    });
    metrics->RegisterCallbackGauge("replication.degraded_buckets", [this]() {
      return static_cast<double>(replication_->degraded_buckets());
    });
    metrics->RegisterCallbackGauge("replication.backup_rows", [this]() {
      return static_cast<double>(replication_->TotalBackupRowCount());
    });
    // Durability metrics exist only with the content-modeled store, so
    // metric dumps with durability.enabled=false stay byte-identical.
    durability::ContentDurableStore* content = replication_->content();
    if (content != nullptr) {
      metrics->RegisterCallbackGauge("durability.crc_failures", [content]() {
        return static_cast<double>(content->crc_failures_detected());
      });
      metrics->RegisterCallbackGauge("durability.torn_segments", [content]() {
        return static_cast<double>(content->torn_segments_detected());
      });
      metrics->RegisterCallbackGauge(
          "durability.checkpoint_fallbacks", [content]() {
            return static_cast<double>(content->checkpoint_fallbacks());
          });
      metrics->RegisterCallbackGauge(
          "durability.replays_unrecoverable", [content]() {
            return static_cast<double>(content->replays_unrecoverable());
          });
      metrics->RegisterCallbackGauge("durability.scrub_verified", [content]() {
        return static_cast<double>(content->scrub_records_verified());
      });
      metrics->RegisterCallbackGauge("durability.scrub_found", [content]() {
        return static_cast<double>(content->scrub_corruptions_found());
      });
      metrics->RegisterCallbackGauge("durability.scrub_repairs", [content]() {
        return static_cast<double>(content->scrub_repairs());
      });
      metrics->RegisterCallbackGauge(
          "durability.corrupt_records_served", [content]() {
            return static_cast<double>(content->corrupt_records_served());
          });
    }
  }
  // Net metrics exist only when the simulated substrate is on, keeping
  // the default build's metric dumps byte-identical.
  if (net_ != nullptr) {
    metrics->BindCounter("net.suspicions", &suspicions_);
    metrics->BindCounter("net.fenced_failovers", &fenced_failovers_);
    metrics->BindCounter("net.fenced_rejections", &fenced_rejections_);
    metrics->RegisterCallbackGauge("net.messages_sent", [this]() {
      return static_cast<double>(net_->messages_sent());
    });
    metrics->RegisterCallbackGauge("net.messages_delivered", [this]() {
      return static_cast<double>(net_->messages_delivered());
    });
    metrics->RegisterCallbackGauge("net.dropped_partition", [this]() {
      return static_cast<double>(net_->messages_dropped_partition());
    });
    metrics->RegisterCallbackGauge("net.dropped_loss", [this]() {
      return static_cast<double>(net_->messages_dropped_loss());
    });
    metrics->RegisterCallbackGauge("net.duplicated", [this]() {
      return static_cast<double>(net_->messages_duplicated());
    });
    metrics->RegisterCallbackGauge("net.nodes_suspected", [this]() {
      return static_cast<double>(nodes_suspected());
    });
  }
  // Topology metrics exist only when the topology layer is on, keeping
  // the default build's metric dumps byte-identical.
  if (policy_ != nullptr) {
    metrics->BindCounter("topology.drains_started", &drains_started_);
    metrics->BindCounter("topology.drain_kills", &drain_kills_);
    metrics->RegisterCallbackGauge("topology.nodes_draining", [this]() {
      return static_cast<double>(nodes_draining());
    });
  }
  // Per-procedure / per-partition latency histograms exist only when
  // lifecycle tracing is on, keeping the default build's metric dumps
  // byte-identical.
  if (traces_ != nullptr) {
    m_proc_latency_.assign(registry_.size(), nullptr);
    for (size_t id = 0; id < registry_.size(); ++id) {
      m_proc_latency_[id] = metrics->GetHistogram(
          "cluster.proc." + registry_.Get(static_cast<ProcedureId>(id)).name +
          ".latency_us");
    }
    m_part_latency_.assign(static_cast<size_t>(total_partitions()), nullptr);
    for (int32_t p = 0; p < total_partitions(); ++p) {
      char label[16];
      std::snprintf(label, sizeof(label), "p%03d", p);
      m_part_latency_[static_cast<size_t>(p)] =
          metrics->GetHistogram("cluster.partition." + std::string(label) +
                                ".latency_us");
    }
  }
}

Status ClusterEngine::ActivateNodes(int32_t n) {
  if (n > config_.max_nodes) {
    return Status::InvalidArgument("cannot activate beyond max_nodes");
  }
  if (n <= active_nodes_) return Status::OK();
  // Newly provisioned machines always come up healthy, even if a node of
  // the same index crashed, recovered or drained before its release.
  for (int32_t i = active_nodes_; i < n; ++i) ResetNodeState(i);
  SetActiveNodes(n);
  return Status::OK();
}

Status ClusterEngine::DeactivateNodes(int32_t n) {
  if (n < 1) return Status::InvalidArgument("must keep at least one node");
  if (n >= active_nodes_) return Status::OK();
  // Every partition on the nodes being released must be empty.
  for (int32_t p = n * config_.partitions_per_node;
       p < active_nodes_ * config_.partitions_per_node; ++p) {
    if (fragments_[static_cast<size_t>(p)]->TotalRowCount() != 0) {
      return Status::FailedPrecondition(
          "partition " + std::to_string(p) + " still holds data");
    }
  }
  for (NodeId m = n; m < active_nodes_; ++m) {
    // Released nodes take their backup replicas with them; degraded
    // buckets re-replicate onto the surviving topology.
    if (replication_ != nullptr) {
      replication_->DropReplicasOnNode(m);
      replication_->CancelRebuildsTargeting(m);
    }
    ResetNodeState(m);
  }
  SetActiveNodes(n);
  return Status::OK();
}

void ClusterEngine::RecordEvent(const char* category,
                                const std::string& what) {
  if (telemetry_.events != nullptr) {
    telemetry_.events->Record(sim_->Now(), category, what);
  }
}

void ClusterEngine::ResetNodeState(NodeId n) {
  NodeState& s = state(n);
  s.up = true;
  s.recovering = false;
  s.suspected = false;
  s.fenced = false;
  s.draining = false;
  ++s.recovery_gen;
  ++s.drain_gen;
  s.last_hb_from = sim_->Now();
  s.lease_until = sim_->Now() + config_.net.lease_timeout;
  if (replication_ != nullptr) replication_->ResetNode(n);
}

void ClusterEngine::SetActiveNodes(int32_t n) {
  active_nodes_ = n;
  allocation_timeline_.push_back(AllocationEvent{sim_->Now(), active_nodes_});
  if (m_active_nodes_ != nullptr) {
    m_active_nodes_->Set(active_nodes_);
    m_live_nodes_->Set(live_nodes());
  }
  RecordEvent("cluster", "scaled to " + std::to_string(n) + " nodes");
  // New capacity may unblock re-replication of degraded buckets.
  KickRebuilds();
}

Status ClusterEngine::CrashNode(NodeId n) {
  if (!IsNodeUp(n)) {
    return Status::FailedPrecondition(
        "node " + std::to_string(n) + " is not an up, active node");
  }
  if (live_nodes() <= 1) {
    return Status::FailedPrecondition("cannot crash the last live node");
  }
  NodeState& s = state(n);
  s.up = false;
  ++fault_epoch_;
  // Fail-stop is authoritative: it supersedes a pending drain (the
  // generation bump voids its deadline kill), and the node is dead, not
  // suspected; any fence against it is moot.
  s.draining = false;
  ++s.drain_gen;
  s.suspected = false;
  s.fenced = false;
  if (replication_ != nullptr) {
    // k-safety failover: promote each dead bucket's backup. The dead
    // node's primary rows are discarded (fail-stop); the promoted
    // backup already holds every committed write, so no bulk data
    // moves. Iteration is ascending everywhere for determinism.
    // Drop the dead node's own replicas first so promotion can never
    // pick a backup hosted on the node that just died.
    const int64_t dropped = replication_->DropReplicasOnNode(n);
    replication_->CancelRebuildsTargeting(n);
    const int64_t lost_before = rows_lost_;
    const int64_t promoted = PromoteBucketsOf(n, /*crashed=*/true);
    if (m_live_nodes_ != nullptr) m_live_nodes_->Set(live_nodes());
    std::string msg = "node " + std::to_string(n) + " crashed: " +
                      std::to_string(promoted) + " buckets promoted, " +
                      std::to_string(dropped) + " replicas dropped";
    if (rows_lost_ > lost_before) {
      msg += ", " + std::to_string(rows_lost_ - lost_before) + " rows lost";
    }
    RecordEvent("replication", msg);
    return Status::OK();
  }
  const int64_t failovers_before = failover_moves_;

  // Failover: redistribute the dead node's buckets (rows included —
  // replica recovery) round-robin over the surviving live partitions.
  // Everything iterates in ascending order so failover is deterministic.
  std::vector<PartitionId> live_partitions;
  for (int32_t m = 0; m < active_nodes_; ++m) {
    if (!state(m).up) continue;
    for (int32_t k = 0; k < config_.partitions_per_node; ++k) {
      live_partitions.push_back(m * config_.partitions_per_node + k);
    }
  }
  size_t rr = 0;
  for (int32_t k = 0; k < config_.partitions_per_node; ++k) {
    const PartitionId dead = n * config_.partitions_per_node + k;
    for (BucketId bucket : map_.BucketsOfPartition(dead)) {
      const PartitionId target = live_partitions[rr++ % live_partitions.size()];
      Status st = ApplyBucketMove(BucketMove{bucket, dead, target});
      if (!st.ok()) {
        PSTORE_LOG(Warn) << "failover of bucket " << bucket
                         << " failed: " << st.ToString();
        continue;
      }
      ++failover_moves_;
    }
  }
  if (m_live_nodes_ != nullptr) m_live_nodes_->Set(live_nodes());
  RecordEvent("cluster", "node " + std::to_string(n) + " crashed, " +
                             std::to_string(failover_moves_ -
                                            failovers_before) +
                             " buckets failed over");
  return Status::OK();
}

Status ClusterEngine::RestartNode(NodeId n) {
  if (!IsActive(n) || state(n).up) {
    return Status::FailedPrecondition(
        "node " + std::to_string(n) + " is not a crashed, active node");
  }
  if (replication_ != nullptr) {
    if (state(n).recovering) {
      return Status::FailedPrecondition(
          "node " + std::to_string(n) + " is already recovering");
    }
    // Recovery replays checkpoint + command log on the virtual clock;
    // the node stays down until FinishRecovery. The fault epoch bumps
    // there, when the topology actually changes. The plan is validated
    // first: a damaged latest checkpoint degrades to the previous image
    // with a longer replay, and a disk with nothing trustworthy left
    // restores over the wire at the (slower) rebuild rate instead.
    state(n).recovering = true;
    state(n).recovery_start = sim_->Now();
    const durability::RecoveryPlan plan = replication_->PlanRecovery(n);
    SimDuration replay;
    if (plan.mode == durability::RecoveryMode::kRereplicate) {
      replay = std::max<SimDuration>(
          1, static_cast<SimDuration>(
                 replication_->checkpoint_kb(n) /
                 config_.replication.rebuild_rate_kbps * 1e6));
    } else {
      replay = replication_->PlanDuration(plan);
    }
    const durability::ContentDurableStore* content = replication_->content();
    const double stall =
        content != nullptr ? content->stall_factor(sim_->Now()) : 1.0;
    if (stall != 1.0) {
      replay = std::max<SimDuration>(
          1, static_cast<SimDuration>(static_cast<double>(replay) * stall));
    }
    const int64_t gen = ++state(n).recovery_gen;
    sim_->Schedule(replay, [this, n, gen]() { FinishRecovery(n, gen); });
    const bool normal = plan.mode == durability::RecoveryMode::kNormal;
    const bool fallback = plan.mode == durability::RecoveryMode::kFallback;
    std::string msg = "node " + std::to_string(n) + " restarting: ";
    if (normal) {
      msg += "checkpoint+log replay scheduled";
    } else {
      msg += std::string(fallback ? "latest checkpoint damaged"
                                  : "durable state unrecoverable") +
             " (" + std::to_string(plan.crc_failures) + " crc, " +
             std::to_string(plan.torn_segments) + " torn) -- " +
             (fallback ? "fallback replay from previous image"
                       : "re-replicating over the wire");
    }
    RecordEvent(normal ? "replication" : "durability",
                msg + " (" + std::to_string(replay) + " us)");
    return Status::OK();
  }
  state(n).up = true;
  ++fault_epoch_;
  if (m_live_nodes_ != nullptr) m_live_nodes_->Set(live_nodes());
  RecordEvent("cluster", "node " + std::to_string(n) + " restarted");
  return Status::OK();
}

Status ClusterEngine::LoadRow(TableId table, const Row& row) {
  const Schema& schema = catalog_.GetSchema(table);
  PSTORE_RETURN_NOT_OK(schema.Validate(row));
  const int64_t key = schema.PartitionKey(row);
  const PartitionId p = map_.PartitionOfKey(key);
  PSTORE_RETURN_NOT_OK(fragments_[static_cast<size_t>(p)]->Insert(table, row));
  if (replication_ != nullptr) {
    const BucketId b = KeyToBucket(key, config_.num_buckets);
    for (PartitionId q : replication_->replicas(b)) {
      PSTORE_RETURN_NOT_OK(
          replication_->backup_fragment(q)->Insert(table, row));
    }
  }
  return Status::OK();
}

Status ClusterEngine::ApplyBucketMove(const BucketMove& move) {
  if (map_.PartitionOfBucket(move.bucket) != move.from) {
    return Status::FailedPrecondition(
        "bucket " + std::to_string(move.bucket) + " not owned by partition " +
        std::to_string(move.from));
  }
  auto data = fragments_[static_cast<size_t>(move.from)]->ExtractBucket(
      move.bucket);
  PSTORE_RETURN_NOT_OK(fragments_[static_cast<size_t>(move.to)]->InstallBucket(
      move.bucket, std::move(data)));
  map_.Assign(move.bucket, move.to);
  map_.set_version(map_.version() + 1);
  if (replication_ != nullptr) OnBucketReassigned(move.bucket, move.to);
  return Status::OK();
}

void ClusterEngine::SetPartitionMap(PartitionMap map) {
  assert(map.num_buckets() == config_.num_buckets);
  map_ = std::move(map);
  if (replication_ != nullptr) {
    // Re-seed placement against the new ownership: replicas colliding
    // with their bucket's new primary node relocate (rows preserved) or
    // drop, and any resulting deficit re-replicates.
    for (BucketId b = 0; b < config_.num_buckets; ++b) {
      OnBucketReassigned(b, map_.PartitionOfBucket(b));
    }
    KickRebuilds();
  }
}

int64_t ClusterEngine::TotalRowCount() const {
  int64_t total = 0;
  for (const auto& f : fragments_) total += f->TotalRowCount();
  return total;
}

SimDuration ClusterEngine::DrawServiceTime(ProcedureId proc) {
  const ServiceDist& dist = service_dists_[static_cast<size_t>(proc)];
  if (config_.txn_service_cv <= 0) {
    return static_cast<SimDuration>(dist.mean);
  }
  const double sample = std::exp(dist.mu + dist.sigma * rng_.NextGaussian());
  return std::max<SimDuration>(1, static_cast<SimDuration>(sample));
}

void ClusterEngine::RecordCompletion(SimTime arrival, SimTime finished) {
  const int64_t latency_us = finished - arrival;
  latencies_.Record(finished, latency_us);
  latency_histogram_.Record(latency_us);
  if (m_latency_us_ != nullptr) m_latency_us_->Record(latency_us);
  const size_t window =
      static_cast<size_t>(finished / config_.throughput_window);
  if (throughput_.size() <= window) throughput_.resize(window + 1, 0);
  ++throughput_[window];
}

ClusterEngine::PendingTxn* ClusterEngine::AcquireTxn(
    TxnRequest req, std::function<void(const TxnResult&)> on_done) {
  if (free_txns_.empty()) {
    txn_pool_.push_back(std::make_unique<PendingTxn>());
    free_txns_.push_back(txn_pool_.back().get());
  }
  PendingTxn* txn = free_txns_.back();
  free_txns_.pop_back();
  txn->req = std::move(req);
  txn->arrival = sim_->Now();
  txn->on_done = std::move(on_done);
  txn->req.txn_id = ++next_txn_seq_;
  // Negative request priority inherits the procedure's default.
  txn->priority = txn->req.priority >= 0
                      ? txn->req.priority
                      : registry_.Get(txn->req.proc).priority;
  txn->bucket = KeyToBucket(txn->req.key, config_.num_buckets);
  txn->deadline = -1;
  if (config_.overload.enabled && config_.overload.queue_deadline > 0) {
    txn->deadline = txn->arrival + config_.overload.queue_deadline;
  }
  txn->trace = -1;
  if (traces_ != nullptr) {
    txn->trace =
        traces_->Sample(txn->req.txn_id, registry_.Get(txn->req.proc).name,
                        txn->bucket, txn->arrival);
  }
  return txn;
}

void ClusterEngine::ReleaseTxn(PendingTxn* txn) {
  txn->on_done = nullptr;
  txn->req.args.clear();
  free_txns_.push_back(txn);
}

void ClusterEngine::Submit(TxnRequest req,
                           std::function<void(const TxnResult&)> on_done) {
  PendingTxn* txn = AcquireTxn(std::move(req), std::move(on_done));
  ++txns_in_flight_;
  RouteAndRun(txn);
}

void ClusterEngine::EndTxn(PendingTxn* txn, obs::TxnPhase phase, SimTime at,
                           int32_t detail, const TxnResult* result) {
  --txns_in_flight_;
  if (traces_ != nullptr) {
    traces_->Record(txn->trace, phase, at, detail);
    traces_->Finalize(txn->trace, at);
  }
  if (txn->on_done) {
    if (result != nullptr) {
      txn->on_done(*result);
    } else {
      TxnResult rejected;
      rejected.shed = phase == obs::TxnPhase::kShed;
      rejected.status = Status::Unavailable(
          rejected.shed ? "transaction shed by overload control"
                        : "rejected: node fenced or replicas unreachable");
      txn->on_done(rejected);
    }
  }
  ReleaseTxn(txn);
}

void ClusterEngine::FinishShed(PendingTxn* txn, NodeId node,
                               bool feed_breaker, SimTime at,
                               int32_t detail) {
  ++txns_shed_;
  if (feed_breaker && admission_ != nullptr) {
    admission_->RecordShed(node, sim_->Now());
  }
  EndTxn(txn, obs::TxnPhase::kShed, at, detail, nullptr);
}

void ClusterEngine::RouteAndRun(PendingTxn* txn) {
  // Route (and re-route after mid-queue bucket moves, like Squall's
  // transaction forwarding) until the executing partition owns the key.
  // The bucket was hashed once at Submit; routing is an array lookup.
  const PartitionId p = map_.PartitionOfBucket(txn->bucket);
  txn->partition = p;
  txn->service = DrawServiceTime(txn->req.proc);
  // Start the body's row fetch now, as a two-stage pipeline: this key's
  // home slots, then the previous admission's row bodies (whose slots
  // have landed by now). Hints only: no output may depend on them.
  fragments_[static_cast<size_t>(p)]->PrefetchSlots(txn->bucket,
                                                    txn->req.key);
  if (prefetch_prev_.partition >= 0) {
    fragments_[static_cast<size_t>(prefetch_prev_.partition)]->PrefetchRows(
        prefetch_prev_.bucket, prefetch_prev_.key);
  }
  prefetch_prev_ = {p, txn->bucket, txn->req.key};
  PartitionExecutor* ex = executors_[static_cast<size_t>(p)].get();
  auto completion = [this, txn](SimTime started, SimTime finished) {
    Execute(txn, started, finished);
  };
  if (admission_ == nullptr) {
    if (traces_ != nullptr) {
      traces_->Record(txn->trace, obs::TxnPhase::kAdmitted, sim_->Now(), p);
    }
    ex->Enqueue(txn->service, completion);
    return;
  }
  const NodeId node = NodeOfPartition(p);
  const SimTime now = sim_->Now();
  overload::QueueOps ops;
  ops.queue_length = [ex]() { return ex->queue_length(); };
  ops.evict_lowest_below = [ex](int8_t pr) {
    return ex->EvictLowestBelow(pr);
  };
  const overload::AdmissionDecision decision =
      admission_->Admit(ops, node, txn->priority, now);
  if (decision != overload::AdmissionDecision::kAdmit) {
    const bool breaker =
        decision == overload::AdmissionDecision::kRejectBreakerOpen;
    if (m_rejected_breaker_ != nullptr) {
      (breaker ? m_rejected_breaker_ : m_rejected_queue_full_)->Increment();
    }
    // Breaker-open rejections must not feed the breaker, or it would
    // count its own rejections as sheds and never close again.
    FinishShed(txn, node, /*feed_breaker=*/!breaker, now, breaker ? 1 : 0);
    return;
  }
  PartitionExecutor::WorkItem item;
  item.service = txn->service;
  item.done = completion;
  item.deadline = txn->deadline;
  item.priority = txn->priority;
  item.on_shed = [this, txn](SimTime at, PartitionExecutor::ShedCause cause) {
    OnShed(txn, at, cause);
  };
  if (traces_ != nullptr) {
    traces_->Record(txn->trace, obs::TxnPhase::kAdmitted, now, p);
  }
  const bool enqueued = ex->TryEnqueue(std::move(item));
  assert(enqueued);  // Admit() made room or rejected.
  (void)enqueued;
  admission_->RecordAdmitted(node, now);
}

void ClusterEngine::OnShed(PendingTxn* txn, SimTime at,
                           PartitionExecutor::ShedCause cause) {
  const bool deadline = cause == PartitionExecutor::ShedCause::kDeadline;
  if (m_shed_deadline_ != nullptr) {
    (deadline ? m_shed_deadline_ : m_shed_evicted_)->Increment();
  }
  FinishShed(txn, NodeOfPartition(txn->partition), /*feed_breaker=*/true, at,
             deadline ? 2 : 3);
}

void ClusterEngine::Execute(PendingTxn* txn, SimTime started,
                            SimTime finished) {
  const PartitionId p = txn->partition;
  if (traces_ != nullptr) {
    traces_->Record(txn->trace, obs::TxnPhase::kExecuting, started, p);
  }
  // If the bucket moved while we were queued, forward (the txn stays
  // in flight through the hop).
  const PartitionId owner = map_.PartitionOfBucket(txn->bucket);
  if (owner != p) {
    if (m_forwarded_ != nullptr) m_forwarded_->Increment();
    if (traces_ != nullptr) {
      traces_->Record(txn->trace, obs::TxnPhase::kForwarded, finished,
                      owner);
    }
    RouteAndRun(txn);
    return;
  }
  if (net_ != nullptr && !NetAdmit(p, txn->bucket)) {
    // Fenced: the node has no valid lease (or cannot guarantee its
    // backups will see the write). Rejecting *before* execution is
    // what makes a concurrent promotion safe.
    ++fenced_rejections_;
    ++txns_aborted_;
    RecordCompletion(txn->arrival, finished);
    EndTxn(txn, obs::TxnPhase::kFenced, finished, 0, nullptr);
    return;
  }
  StorageFragment* frag = fragments_[static_cast<size_t>(p)].get();
  ExecutionContext ctx(frag, &write_set_);
  const ProcedureDef& proc = registry_.Get(txn->req.proc);
  // Procedures can create rows (an upsert of a key lost in a crash)
  // or delete them; the conservation invariant needs the net delta.
  const int64_t frag_rows_before = frag->TotalRowCount();
  TxnResult result = proc.body(ctx, txn->req);
  rows_net_created_ += frag->TotalRowCount() - frag_rows_before;
  ++partition_access_counts_[static_cast<size_t>(p)];
  ++bucket_access_counts_[static_cast<size_t>(txn->bucket)];
  if (result.status.ok()) {
    ++txns_committed_;
    // Tripwire (audited by the invariant checker): the gate above
    // ran at this same virtual instant, so this can never fire.
    if (net_ != nullptr && !NodeHasLease(NodeOfPartition(p))) {
      ++fenced_commits_;
    }
  } else {
    ++txns_aborted_;
  }
  // Any execution that mutated the primary is mirrored on the backups
  // (the engine has no rollback, so aborted-but-mutating procedures
  // replicate too — backups must match the primary exactly).
  if (replication_ != nullptr && ctx.mutations() > 0) {
    ReplicateWrite(p, *txn, ctx.writes());
  }
  if (m_queue_delay_us_ != nullptr) {
    m_queue_delay_us_->Record(started - txn->arrival);
    m_node_txns_[static_cast<size_t>(NodeOfPartition(p))]->Increment();
  }
  RecordCompletion(txn->arrival, finished);
  // Registered only when both tracing and a metrics registry are on.
  if (!m_proc_latency_.empty()) {
    const int64_t latency_us = finished - txn->arrival;
    m_proc_latency_[static_cast<size_t>(txn->req.proc)]->Record(latency_us);
    m_part_latency_[static_cast<size_t>(p)]->Record(latency_us);
  }
  EndTxn(txn,
         result.status.ok() ? obs::TxnPhase::kCommitted
                            : obs::TxnPhase::kAborted,
         finished, 0, &result);
}

bool ClusterEngine::RecoveryInProgress() const {
  if (replication_ == nullptr) return false;
  return nodes_recovering() > 0 || replication_->degraded_buckets() > 0;
}

Status ClusterEngine::StartDrain(NodeId n, SimDuration notice) {
  if (policy_ == nullptr) {
    return Status::FailedPrecondition("topology layer is disabled");
  }
  if (!IsNodeUp(n)) {
    return Status::FailedPrecondition(
        "node " + std::to_string(n) + " is not an up, active node");
  }
  if (state(n).draining) {
    return Status::FailedPrecondition(
        "node " + std::to_string(n) + " is already draining");
  }
  if (live_nodes() <= 1) {
    return Status::FailedPrecondition("cannot drain the last live node");
  }
  if (notice <= 0) return Status::InvalidArgument("notice must be positive");
  const SimTime deadline = sim_->Now() + notice;
  state(n).draining = true;
  state(n).drain_deadline = deadline;
  ++drains_started_;
  const int64_t gen = ++state(n).drain_gen;
  sim_->Schedule(notice, [this, n, gen]() { FinishDrainDeadline(n, gen); });
  RecordEvent("topology",
              "node " + std::to_string(n) + " draining (" +
                  topology::NodeClassName(policy_->ClassOf(n)) + ", domain " +
                  std::to_string(policy_->DomainOf(n)) + "): hard kill at " +
                  std::to_string(deadline) + " us");
  return Status::OK();
}

void ClusterEngine::FinishDrainDeadline(NodeId n, int64_t gen) {
  if (!IsNodeDraining(n) || gen != state(n).drain_gen) {
    return;  // Crashed, released, or reprovisioned while draining.
  }
  state(n).draining = false;
  ++state(n).drain_gen;
  ++drain_kills_;
  // Feasibility snapshot before the kill: a hosted bucket with no live
  // replica off this node cannot be promoted — its rows are about to
  // be honestly lost, and zero-loss assertions must exclude this kill.
  bool infeasible = false;
  if (replication_ != nullptr) {
    for (int32_t k = 0; k < config_.partitions_per_node && !infeasible;
         ++k) {
      const PartitionId p = n * config_.partitions_per_node + k;
      for (BucketId b : map_.BucketsOfPartition(p)) {
        bool survivable = false;
        for (PartitionId r : replication_->replicas(b)) {
          const NodeId rn = NodeOfPartition(r);
          if (rn != n && IsNodeUp(rn)) {
            survivable = true;
            break;
          }
        }
        if (!survivable) {
          infeasible = true;
          break;
        }
      }
    }
  }
  if (infeasible) ++drain_kills_infeasible_;
  std::string msg =
      "node " + std::to_string(n) + " revocation deadline reached: hard kill";
  if (infeasible) msg += " (bucket without live replica: rows at risk)";
  RecordEvent("topology", msg);
  Status st = CrashNode(n);
  if (!st.ok()) {
    RecordEvent("topology", "revocation kill of node " + std::to_string(n) +
                                " rejected: " + st.ToString());
  }
}

PartitionId ClusterEngine::ChooseBackupPartition(BucketId b) const {
  const PartitionId primary = map_.PartitionOfBucket(b);
  const NodeId primary_node = NodeOfPartition(primary);
  const auto& reps = replication_->replicas(b);
  const PartitionId pending_target = replication_->rebuild_target(b);
  const NodeId pending_node =
      pending_target >= 0 ? NodeOfPartition(pending_target) : -1;
  PartitionId best = -1;
  int64_t best_load = 0;
  PartitionId best_diverse = -1;  // Best candidate off the primary's domain.
  int64_t best_diverse_load = 0;
  for (PartitionId q = 0; q < active_partitions(); ++q) {
    const NodeId qn = NodeOfPartition(q);
    if (qn == primary_node || qn == pending_node || !IsNodeUp(qn)) continue;
    // Suspected, fenced, or unreachable nodes are not rebuild targets:
    // chunks could not be delivered, and the node may be about to fail.
    const NodeState& s = state(qn);
    if (s.suspected || s.fenced ||
        (net_ != nullptr &&
         !net_->Reachable(net::NetworkModel::kController, qn))) {
      continue;
    }
    // Draining nodes are minutes from a hard kill; a fresh replica
    // there would just re-degrade the bucket at the deadline.
    if (s.draining) continue;
    bool node_has_replica = false;
    for (PartitionId r : reps) {
      if (NodeOfPartition(r) == qn) {
        node_has_replica = true;
        break;
      }
    }
    if (node_has_replica) continue;
    const int64_t load = replication_->backup_buckets_on_partition(q);
    if (best < 0 || load < best_load) {  // Ties keep the lowest id.
      best = q;
      best_load = load;
    }
    if (policy_ != nullptr && policy_->PrefersForBackup(primary_node, qn) &&
        (best_diverse < 0 || load < best_diverse_load)) {
      best_diverse = q;
      best_diverse_load = load;
    }
  }
  // Domain diversity beats load balance: a same-domain backup is one
  // correlated outage away from losing the bucket with its primary.
  return best_diverse >= 0 ? best_diverse : best;
}

void ClusterEngine::InitialReplicaPlacement() {
  for (BucketId b = 0; b < config_.num_buckets; ++b) {
    while (replication_->healthy_replicas(b) < config_.replication.k) {
      const PartitionId target = ChooseBackupPartition(b);
      if (target < 0) break;  // Too few nodes for full k; rebuilt later.
      const PartitionId primary = map_.PartitionOfBucket(b);
      Status s = replication_->InstallReplica(
          b, target, *fragments_[static_cast<size_t>(primary)]);
      if (!s.ok()) {
        PSTORE_LOG(Warn) << "initial replica of bucket " << b
                         << " failed: " << s.ToString();
        break;
      }
    }
  }
}

void ClusterEngine::ReplicateWrite(PartitionId primary,
                                   const PendingTxn& pending,
                                   const WriteSet& writes) {
  const BucketId b = pending.bucket;
  replication_->RecordWrite(NodeOfPartition(primary), b, pending.req.key);
  const SimDuration lag = replication_->lag(sim_->Now());
  int32_t replicas_applied = 0;
  for (PartitionId q : replication_->replicas(b)) {
    // Synchronous apply: the backup's state reflects the write at commit
    // time (the primary's write-set, applied physically and sharing the
    // primary's row bodies), and the apply *work* occupies the backup's
    // executor — the write amplification the capacity model charges for.
    StorageFragment* backup = replication_->backup_fragment(q);
    for (const WriteOp& w : writes) {
      if (w.row.size() > 0) {
        backup->Upsert(w.table, w.row);
      } else {
        backup->Delete(w.table, w.key);  // NotFound: already absent.
      }
    }
    replication_->OnApplyStarted();
    const SimDuration apply = std::max<SimDuration>(
        1, static_cast<SimDuration>(static_cast<double>(pending.service) *
                                    kBackupApplyWeight) +
               lag);
    if (net_ != nullptr) {
      // The commit gate just verified this backup was reachable, so the
      // apply rides the substrate as reliable traffic: it pays per-link
      // latency but is never dropped (a drop here would silently
      // diverge the backup from the state mirrored above).
      net_->Send(NodeOfPartition(primary), NodeOfPartition(q),
                 net::MessageKind::kReplApply, /*reliable=*/true,
                 [this, q, apply]() {
                   executors_[static_cast<size_t>(q)]->Enqueue(
                       apply, [this](SimTime, SimTime) {
                         replication_->OnApplyFinished();
                       });
                 });
    } else {
      executors_[static_cast<size_t>(q)]->Enqueue(
          apply,
          [this](SimTime, SimTime) { replication_->OnApplyFinished(); });
    }
    ++replicas_applied;
  }
  if (traces_ != nullptr && pending.trace >= 0) {
    // The state mirror above is synchronous, so replication is complete
    // at the commit instant; the interval's weight lives in the detail
    // (replica count) and the backup executors' apply work.
    traces_->Record(pending.trace, obs::TxnPhase::kReplicated, sim_->Now(),
                    replicas_applied);
    if (net_ != nullptr) traces_->AddNetHops(pending.trace, replicas_applied);
  }
}

void ClusterEngine::OnBucketReassigned(BucketId bucket, PartitionId to) {
  const NodeId primary_node = NodeOfPartition(to);
  PartitionId colliding = -1;
  for (PartitionId r : replication_->replicas(bucket)) {
    if (NodeOfPartition(r) == primary_node) {
      colliding = r;
      break;
    }
  }
  bool degraded = false;
  if (colliding >= 0) {
    const PartitionId fallback = ChooseBackupPartition(bucket);
    if (fallback >= 0) {
      Status s = replication_->MoveReplica(bucket, colliding, fallback);
      if (!s.ok()) {
        PSTORE_LOG(Warn) << "replica relocation of bucket " << bucket
                         << " failed: " << s.ToString();
      }
    } else {
      replication_->RemoveReplica(bucket, colliding);
      degraded = true;
    }
  }
  if (CancelCollidingRebuild(bucket)) degraded = true;
  // With the topology layer on, a reassignment can break domain
  // diversity without degrading k (the new primary landed in the
  // backups' domain); the sweep restores it.
  if (degraded || policy_ != nullptr) KickRebuilds();
}

bool ClusterEngine::CancelCollidingRebuild(BucketId bucket) {
  if (!replication_->rebuild_in_flight(bucket) ||
      replication_->node_of(replication_->rebuild_target(bucket)) !=
          NodeOfPartition(map_.PartitionOfBucket(bucket))) {
    return false;
  }
  replication_->CancelRebuild(bucket);
  return true;
}

int64_t ClusterEngine::PromoteBucketsOf(NodeId n, bool crashed) {
  obs::SpanTracer::SpanId span = 0;
  if (telemetry_.tracer != nullptr) {
    span = telemetry_.tracer->BeginAt(
        (crashed ? "failover node " : "fenced failover node ") +
            std::to_string(n),
        sim_->Now());
  }
  // Parking owner for a crashed node's buckets with no surviving
  // replica: the first live partition (the bucket rejoins the map empty;
  // its rows are honestly lost and counted).
  PartitionId parking = -1;
  for (int32_t m = 0; m < active_nodes_ && parking < 0; ++m) {
    if (state(m).up) parking = m * config_.partitions_per_node;
  }
  auto reachable = [this](PartitionId r) {
    const NodeId rn = NodeOfPartition(r);
    return IsNodeUp(rn) && !IsNodeRecovering(rn) && !state(rn).fenced &&
           net_->Reachable(net::NetworkModel::kController, rn);
  };
  int64_t promoted = 0;
  for (int32_t k = 0; k < config_.partitions_per_node; ++k) {
    const PartitionId old = n * config_.partitions_per_node + k;
    for (BucketId bucket : map_.BucketsOfPartition(old)) {
      // With the substrate on, prefer a backup the controller can reach.
      // If every replica is cut off, a crash still promotes one (data
      // beats reachability — the minority-side new primary is fenced
      // until heal, never dual-committing); a fence defers the bucket:
      // it stays with the fenced node, unavailable but intact, and
      // serves again after heal.
      PartitionId q =
          net_ != nullptr ? replication_->Promote(bucket, reachable) : -1;
      if (q < 0 && crashed) q = replication_->Promote(bucket);
      if (q < 0 && !crashed) {
        ++buckets_deferred_;
        continue;
      }
      // The old primary's copy is discarded: a crash lost it, and a
      // fenced node's copy is superseded (every commit it accepted was
      // replicated before its lease expired), so rows are never
      // double-counted.
      auto old_rows =
          fragments_[static_cast<size_t>(old)]->ExtractBucket(bucket);
      if (q >= 0) {
        auto data = replication_->backup_fragment(q)->ExtractBucket(bucket);
        Status st = fragments_[static_cast<size_t>(q)]->InstallBucket(
            bucket, std::move(data));
        if (!st.ok()) {
          PSTORE_LOG(Warn) << "promotion install of bucket " << bucket
                           << " failed: " << st.ToString();
        }
        map_.Assign(bucket, q);
        ++promoted;
      } else {
        for (const auto& tr : old_rows) {
          rows_lost_ += static_cast<int64_t>(tr.second.size());
        }
        map_.Assign(bucket, parking);
      }
      // A rebuild targeting the new primary's node would create a
      // replica co-located with the primary; restart it elsewhere.
      CancelCollidingRebuild(bucket);
    }
  }
  map_.set_version(map_.version() + 1);
  KickRebuilds();
  if (telemetry_.tracer != nullptr) telemetry_.tracer->EndAt(span, sim_->Now());
  return promoted;
}

void ClusterEngine::KickRebuilds() {
  if (replication_ == nullptr) return;
  for (BucketId b = 0; b < config_.num_buckets; ++b) {
    if (!replication_->IsDegraded(b) || replication_->rebuild_in_flight(b)) {
      continue;
    }
    const PartitionId target = ChooseBackupPartition(b);
    if (target < 0) continue;  // Retried on the next topology change.
    replication_->BeginRebuild(b, target);
    auto stream = std::make_shared<PipelinedStream>();
    stream->epoch = &replication_->rebuild_gen(b);
    stream->bucket = b;
    stream->dst = target;
    stream->chunks = replication_->chunks_per_rebuild();
    stream->timing = ChunkTiming::Truncated(
        config_.replication.rebuild_chunk_kb, config_.replication.wire_kbps,
        config_.replication.rebuild_rate_kbps);
    stream->on_sent = [this]() { replication_->OnRebuildChunk(); };
    stream->on_landed = [this, b]() { FinishRebuild(b); };
    transfer_.Pipeline(stream, 0);
  }
  if (policy_ == nullptr) return;
  // Diversity repair: a full-k bucket whose primary and every backup
  // share one failure domain survives no domain outage. When a
  // diverse-domain candidate exists, relocate the lowest-id backup
  // onto it (rows preserved; same mechanism as primary-collision
  // relocation in OnBucketReassigned).
  for (BucketId b = 0; b < config_.num_buckets; ++b) {
    if (replication_->IsDegraded(b) || replication_->rebuild_in_flight(b)) {
      continue;
    }
    const NodeId primary_node = NodeOfPartition(map_.PartitionOfBucket(b));
    if (replication_->IsDomainDiverse(b, primary_node)) continue;
    const PartitionId target = ChooseBackupPartition(b);
    if (target < 0 ||
        policy_->SameDomain(primary_node, NodeOfPartition(target))) {
      continue;  // No diverse candidate; retried on topology change.
    }
    const auto& reps = replication_->replicas(b);
    if (reps.empty()) continue;
    Status s = replication_->MoveReplica(b, reps.front(), target);
    if (!s.ok()) {
      PSTORE_LOG(Warn) << "diversity relocation of bucket " << b
                       << " failed: " << s.ToString();
    }
  }
}

void ClusterEngine::FinishRebuild(BucketId bucket) {
  const PartitionId dst = replication_->rebuild_target(bucket);
  const PartitionId src = map_.PartitionOfBucket(bucket);
  // The target may have become illegal while chunks were in flight: its
  // node died or was released, or the bucket's primary moved onto it
  // (promotion or migration). Installing anyway would colocate the
  // replica with its primary, so restart the rebuild elsewhere.
  if (!IsNodeUp(replication_->node_of(dst)) || dst >= active_partitions() ||
      replication_->node_of(dst) == NodeOfPartition(src)) {
    replication_->CancelRebuild(bucket);
    KickRebuilds();
    return;
  }
  Status s = replication_->FinishRebuild(
      bucket, *fragments_[static_cast<size_t>(src)]);
  if (!s.ok()) {
    PSTORE_LOG(Warn) << "re-replication of bucket " << bucket
                     << " failed: " << s.ToString();
    return;
  }
  // The degraded-bucket scan is only worth paying for the event.
  if (telemetry_.events != nullptr && replication_->degraded_buckets() == 0) {
    RecordEvent("replication", "k-safety restored (k=" +
                                   std::to_string(config_.replication.k) + ")");
  }
  KickRebuilds();
}

void ClusterEngine::FinishRecovery(NodeId n, int64_t gen) {
  if (!IsNodeRecovering(n) || gen != state(n).recovery_gen) {
    return;  // Node released or reprovisioned while replaying.
  }
  ResetNodeState(n);
  ++fault_epoch_;
  ++recoveries_;
  const SimTime now = sim_->Now();
  const SimTime started = state(n).recovery_start;
  total_recovery_time_ += now - started;
  if (m_live_nodes_ != nullptr) m_live_nodes_->Set(live_nodes());
  if (telemetry_.tracer != nullptr) {
    const obs::SpanTracer::SpanId span = telemetry_.tracer->BeginAt(
        "recovery node " + std::to_string(n), started);
    telemetry_.tracer->EndAt(span, now);
  }
  RecordEvent("replication", "node " + std::to_string(n) + " recovered in " +
                                 std::to_string(now - started) + " us");
  KickRebuilds();
}

void ClusterEngine::ScheduleCheckpoint() {
  sim_->Schedule(config_.replication.checkpoint_period, [this]() {
    // Fuzzy checkpoint: every live node snapshots its hosted data size
    // and truncates its command log; a later restart replays from here.
    // With the content-modeled store, the snapshot carries one
    // checksummed record per hosted bucket (its current row count), so
    // later damage is detectable per record.
    const std::vector<int32_t> counts = map_.BucketCounts();
    const double kb = replication_->kb_per_bucket();
    durability::ContentDurableStore* content = replication_->content();
    for (NodeId n = 0; n < active_nodes_; ++n) {
      if (!state(n).up) continue;
      int64_t buckets = 0;
      std::vector<durability::CheckpointRecord> records;
      for (int32_t i = 0; i < config_.partitions_per_node; ++i) {
        const size_t p =
            static_cast<size_t>(n * config_.partitions_per_node + i);
        if (p >= counts.size()) continue;
        buckets += counts[p];
        if (content == nullptr) continue;
        for (BucketId b : map_.BucketsOfPartition(static_cast<PartitionId>(p))) {
          durability::CheckpointRecord r;
          r.bucket = b;
          r.rows = fragments_[p]->BucketRowCount(b);
          records.push_back(r);
        }
      }
      replication_->TakeCheckpoint(n, kb * static_cast<double>(buckets),
                                   std::move(records));
    }
    ScheduleCheckpoint();
  });
}

void ClusterEngine::ScheduleScrub() {
  sim_->Schedule(kSecond, [this]() {
    durability::ContentDurableStore* content = replication_->content();
    // One tick verifies scrub_rate_kbps worth of records (the tick is a
    // second); an open disk-stall window slows the scrubber like any
    // other durable I/O. Crashed and recovering nodes' disks are
    // offline to the scrubber — their damage waits for restart replay
    // to detect it.
    const double stall = content->stall_factor(sim_->Now());
    const auto budget = static_cast<int64_t>(
        config_.replication.durability.scrub_rate_kbps / kDurableRecordKb /
        (stall < 1.0 ? 1.0 : stall));
    // Repair re-fetches the damaged record's bits from a healthy
    // replica, so it needs at least one other live node to ask.
    const bool can_repair = live_nodes() > 1;
    const durability::ScrubResult r = content->ScrubStep(
        budget, can_repair,
        [this](NodeId n) { return !IsNodeUp(n) || IsNodeRecovering(n); });
    if (r.found > 0 || r.repaired > 0) {
      RecordEvent("durability", "scrub: " + std::to_string(r.verified) +
                                    " verified, " + std::to_string(r.found) +
                                    " damaged, " + std::to_string(r.repaired) +
                                    " repaired");
    }
    ScheduleScrub();
  });
}

void ClusterEngine::HeartbeatLoop(NodeId n) {
  sim_->Schedule(net::kHeartbeatPeriod, [this, n]() {
    if (n < active_nodes_ && IsNodeUp(n) && !IsNodeRecovering(n)) {
      net_->Send(n, net::NetworkModel::kController,
                 net::MessageKind::kHeartbeat, /*reliable=*/false,
                 [this, n]() { OnHeartbeatReceived(n); });
    }
    HeartbeatLoop(n);
  });
}

void ClusterEngine::OnHeartbeatReceived(NodeId n) {
  // A beat can be in flight when its sender crashes or is released; a
  // stale arrival must not refresh a dead node's liveness.
  if (!IsNodeUp(n)) return;
  NodeState& s = state(n);
  s.last_hb_from = sim_->Now();
  if (s.suspected) {
    s.suspected = false;
    RecordEvent("net", "node " + std::to_string(n) +
                           " heartbeat resumed: unsuspected");
  }
  if (s.fenced) {
    // Partition healed: the fenced node rejoins at the current epoch.
    // Its deferred buckets (still owned by it in the map) serve again;
    // buckets promoted away stay with their new primaries.
    s.fenced = false;
    ++fault_epoch_;
    RecordEvent("net", "node " + std::to_string(n) +
                           " unfenced after heal (epoch " +
                           std::to_string(fault_epoch_) + ")");
    KickRebuilds();
  }
  net_->Send(net::NetworkModel::kController, n,
             net::MessageKind::kHeartbeatAck, /*reliable=*/false,
             [this, n]() {
               if (!IsNodeUp(n)) return;
               SimTime& lease = state(n).lease_until;
               lease = std::max(lease, sim_->Now() + config_.net.lease_timeout);
             });
}

void ClusterEngine::MonitorLoop() {
  sim_->Schedule(net::kHeartbeatPeriod, [this]() {
    const SimTime now = sim_->Now();
    for (NodeId n = 0; n < active_nodes_; ++n) {
      NodeState& s = state(n);
      // Down, recovering (also down), or already failed over.
      if (!IsNodeUp(n) || s.fenced) continue;
      const SimTime age = now - s.last_hb_from;
      if (age > config_.net.failover_timeout) {
        FenceAndFailover(n);
      } else if (age > config_.net.suspicion_timeout && !s.suspected) {
        s.suspected = true;
        ++suspicions_;
        RecordEvent("net", "node " + std::to_string(n) + " suspected (silent " +
                               std::to_string(age) + " us)");
      }
    }
    // Rebuild liveness: a degraded bucket can have no legal target at
    // eviction time (every candidate suspected or unreachable) and no
    // later event re-kicks when the window merely closes — healing a
    // suspicion is not a fence removal and schedules nothing. Sweeping
    // here is a no-op unless a rebuild can actually start.
    KickRebuilds();
    MonitorLoop();
  });
}

void ClusterEngine::FenceAndFailover(NodeId n) {
  // The timer chain guarantees the node self-fenced first: its lease
  // expired at most lease_timeout after its last delivered ack, and
  // failover_timeout > lease_timeout measures from the same silence.
  // So promoting a bucket here can never race a commit on `n`.
  state(n).fenced = true;
  state(n).suspected = false;  // Escalated past suspicion.
  ++fenced_failovers_;
  ++fault_epoch_;  // The fencing epoch: all promotions below carry it.
  const int64_t deferred_before = buckets_deferred_;
  const int64_t promoted = PromoteBucketsOf(n, /*crashed=*/false);
  const int64_t deferred = buckets_deferred_ - deferred_before;
  RecordEvent("net", "node " + std::to_string(n) + " fenced (epoch " +
                         std::to_string(fault_epoch_) + "): " +
                         std::to_string(promoted) + " buckets promoted, " +
                         std::to_string(deferred) + " deferred");
}

bool ClusterEngine::NetAdmit(PartitionId p, BucketId bucket) {
  const NodeId node = NodeOfPartition(p);
  if (!NodeHasLease(node)) return false;
  // Commit gate: a transaction may only run when every backup will see
  // its apply. An unreachable backup is evicted (and rebuilt elsewhere)
  // only when the controller is reachable to authorize it; otherwise
  // the node cannot distinguish "backup died" from "I am the one
  // partitioned" and must reject.
  bool evicted = false;
  const auto& reps = replication_->replicas(bucket);
  for (size_t i = 0; i < reps.size();) {
    const PartitionId r = reps[i];
    if (net_->Reachable(node, NodeOfPartition(r))) {
      ++i;
      continue;
    }
    if (!net_->Reachable(node, net::NetworkModel::kController)) return false;
    replication_->RemoveReplica(bucket, r);  // List shrinks in place.
    ++replicas_evicted_unreachable_;
    evicted = true;
  }
  if (evicted) KickRebuilds();
  return true;
}

double ClusterEngine::AverageNodesAllocated() const {
  if (allocation_timeline_.empty()) return active_nodes_;
  const SimTime end = sim_->Now();
  if (end <= 0) return allocation_timeline_.front().nodes;
  double weighted = 0;
  for (size_t i = 0; i < allocation_timeline_.size(); ++i) {
    const SimTime start = allocation_timeline_[i].at;
    const SimTime stop = i + 1 < allocation_timeline_.size()
                             ? allocation_timeline_[i + 1].at
                             : end;
    if (stop <= start) continue;
    weighted += static_cast<double>(stop - start) *
                allocation_timeline_[i].nodes;
  }
  return weighted / static_cast<double>(end);
}

}  // namespace pstore
