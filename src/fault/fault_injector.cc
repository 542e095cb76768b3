#include "fault/fault_injector.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/simulator.h"

namespace pstore {

FaultInjector::FaultInjector(ClusterEngine* engine,
                             MigrationExecutor* migrator, uint64_t seed)
    : engine_(engine),
      migrator_(migrator),
      rng_(seed),
      disk_rng_(seed ^ 0x2545f4914f6cdd1dULL) {}

Status FaultInjector::Arm(const FaultPlan& plan) {
  if (armed_) return Status::FailedPrecondition("already armed");
  PSTORE_RETURN_NOT_OK(plan.Validate());
  armed_ = true;
  Simulator* sim = engine_->simulator();
  if (migrator_ != nullptr) {
    migrator_->set_chunk_fault_hook(
        [this](PartitionId src, PartitionId dst, SimTime now) {
          return OnChunk(src, dst, now);
        });
    migrator_->set_event_sink([this](const std::string& what) {
      trace_.Record(engine_->simulator()->Now(), what);
    });
  }
  for (const FaultEvent& event : plan.events) {
    sim->ScheduleAt(event.at, [this, event]() { ApplyEvent(event); });
  }
  trace_.Record(sim->Now(),
                "armed fault plan with " +
                    std::to_string(plan.events.size()) + " events");
  return Status::OK();
}

NodeId FaultInjector::PickCrashTarget(CrashScope scope) const {
  if (scope == CrashScope::kBackupHeavy &&
      engine_->replication() == nullptr) {
    scope = CrashScope::kAny;  // No backups to aim at.
  }
  if (scope == CrashScope::kAny) {
    // Highest live node, never node 0: keeps the cluster alive and makes
    // the choice a pure function of topology (deterministic).
    for (NodeId n = engine_->active_nodes() - 1; n >= 1; --n) {
      if (engine_->IsNodeUp(n)) return n;
    }
    return -1;
  }
  // Scoped: the live node (never 0) with the most primary buckets
  // (kPrimaryHeavy) or backup replicas (kBackupHeavy); >= keeps ties on
  // the higher index, matching the kAny rule's preference.
  const std::vector<int32_t> counts = engine_->partition_map().BucketCounts();
  NodeId best = -1;
  int64_t best_weight = -1;
  for (NodeId n = engine_->active_nodes() - 1; n >= 1; --n) {
    if (!engine_->IsNodeUp(n)) continue;
    int64_t weight = 0;
    if (scope == CrashScope::kPrimaryHeavy) {
      for (int32_t i = 0; i < engine_->partitions_per_node(); ++i) {
        const size_t p =
            static_cast<size_t>(n * engine_->partitions_per_node() + i);
        if (p < counts.size()) weight += counts[p];
      }
    } else {
      weight = engine_->replication()->BackupBucketsOnNode(n);
    }
    if (weight > best_weight) {
      best = n;
      best_weight = weight;
    }
  }
  return best;
}

NodeId FaultInjector::PickRestartTarget() const {
  for (NodeId n = 0; n < engine_->active_nodes(); ++n) {
    if (!engine_->IsNodeUp(n) && !engine_->IsNodeRecovering(n)) return n;
  }
  return -1;
}

NodeId FaultInjector::PickDiskTarget() const {
  // A crashed node's disk is the most interesting victim: the damage
  // surfaces when restart replay validates it. Fall back to the
  // highest live node, whose damage the scrubber (or its next restart)
  // must catch.
  for (NodeId n = 0; n < engine_->active_nodes(); ++n) {
    if (!engine_->IsNodeUp(n) && !engine_->IsNodeRecovering(n)) return n;
  }
  for (NodeId n = engine_->active_nodes() - 1; n >= 0; --n) {
    if (engine_->IsNodeUp(n)) return n;
  }
  return -1;
}

NodeId FaultInjector::PickSpotTarget() const {
  const topology::PlacementPolicy* policy = engine_->placement_policy();
  for (NodeId n = engine_->active_nodes() - 1; n >= 1; --n) {
    if (engine_->IsNodeUp(n) && !engine_->IsNodeDraining(n) &&
        policy->ClassOf(n) == topology::NodeClass::kSpot) {
      return n;
    }
  }
  return -1;
}

int32_t FaultInjector::PickDomainTarget() const {
  const topology::PlacementPolicy* policy = engine_->placement_policy();
  const int32_t home = policy->DomainOf(0);  // Sparing node 0's domain
                                             // keeps the cluster alive.
  int32_t best = -1;
  int32_t best_live = 0;
  for (int32_t d = 0; d < policy->config().num_domains; ++d) {
    if (d == home) continue;
    int32_t live = 0;
    for (NodeId n = 0; n < engine_->active_nodes(); ++n) {
      if (engine_->IsNodeUp(n) && policy->DomainOf(n) == d) ++live;
    }
    if (live > 0 && live >= best_live) {  // >= keeps ties on higher index.
      best = d;
      best_live = live;
    }
  }
  return best;
}

void FaultInjector::ApplyEvent(const FaultEvent& event) {
  const SimTime now = engine_->simulator()->Now();
  switch (event.type) {
    case FaultType::kNodeCrash: {
      const NodeId target =
          event.node >= 0 ? event.node : PickCrashTarget(event.scope);
      if (target < 0) {
        trace_.Record(now, "crash skipped: no crashable node");
        return;
      }
      Status st = engine_->CrashNode(target);
      if (st.ok()) {
        ++crashes_;
        trace_.Record(now, "crashed node " + std::to_string(target) +
                               " (live=" +
                               std::to_string(engine_->live_nodes()) + ")");
      } else {
        trace_.Record(now, "crash of node " + std::to_string(target) +
                               " rejected: " + st.ToString());
      }
      return;
    }
    case FaultType::kNodeRestart: {
      const NodeId target =
          event.node >= 0 ? event.node : PickRestartTarget();
      if (target < 0) {
        trace_.Record(now, "restart skipped: no crashed node");
        return;
      }
      Status st = engine_->RestartNode(target);
      if (st.ok()) {
        ++restarts_;
        trace_.Record(now, "restarted node " + std::to_string(target) +
                               " (live=" +
                               std::to_string(engine_->live_nodes()) + ")");
      } else {
        trace_.Record(now, "restart of node " + std::to_string(target) +
                               " rejected: " + st.ToString());
      }
      return;
    }
    case FaultType::kMigrationStall:
      stall_until_ = now + event.duration;
      stall_len_ = event.stall;
      trace_.Record(now, "migration-stall window open for " +
                             FormatSimTime(event.duration) +
                             " (stall " + FormatSimTime(event.stall) + ")");
      return;
    case FaultType::kChunkFailure:
      chunk_fail_until_ = now + event.duration;
      chunk_fail_p_ = event.probability;
      trace_.Record(now, "chunk-failure window open for " +
                             FormatSimTime(event.duration) + " (p=" +
                             std::to_string(event.probability) + ")");
      return;
    case FaultType::kMisforecast:
      misforecast_until_ = now + event.duration;
      misforecast_scale_ = event.forecast_scale;
      trace_.Record(now, "misforecast window open for " +
                             FormatSimTime(event.duration) + " (scale=" +
                             std::to_string(event.forecast_scale) + ")");
      return;
    case FaultType::kLoadSpike:
      spike_until_ = now + event.duration;
      spike_scale_ = event.load_scale;
      ++load_spikes_;
      trace_.Record(now, "load-spike window open for " +
                             FormatSimTime(event.duration) + " (xload=" +
                             std::to_string(event.load_scale) + ")");
      return;
    case FaultType::kReplicaLag:
      // Recorded but inert when the engine does not replicate.
      if (engine_->replication() != nullptr) {
        engine_->replication()->OpenLag(event.stall, now + event.duration);
      }
      ++replica_lags_;
      trace_.Record(now, "replica-lag window open for " +
                             FormatSimTime(event.duration) + " (lag " +
                             FormatSimTime(event.stall) + ")");
      return;
    // The net faults are recorded but inert when the engine's substrate
    // is off, and they draw nothing from the injector's Rng either way —
    // so toggling net.enabled leaves every other fault's draw sequence
    // byte-identical.
    case FaultType::kNetPartition: {
      if (engine_->net() == nullptr) {
        trace_.Record(now, "net-partition skipped: substrate disabled");
        return;
      }
      const NodeId target =
          event.node >= 0 ? event.node : PickCrashTarget(CrashScope::kAny);
      if (target < 0) {
        trace_.Record(now, "net-partition skipped: no isolatable node");
        return;
      }
      engine_->net()->OpenPartition({target}, event.duration);
      ++net_partitions_;
      trace_.Record(now, "net-partition window open for " +
                             FormatSimTime(event.duration) +
                             " (isolating node " + std::to_string(target) +
                             ")");
      return;
    }
    case FaultType::kNetLoss:
      if (engine_->net() == nullptr) {
        trace_.Record(now, "net-loss skipped: substrate disabled");
        return;
      }
      engine_->net()->OpenLoss(event.probability, event.dup_probability,
                               event.duration);
      ++net_losses_;
      trace_.Record(now, "net-loss window open for " +
                             FormatSimTime(event.duration) + " (drop=" +
                             std::to_string(event.probability) + " dup=" +
                             std::to_string(event.dup_probability) + ")");
      return;
    case FaultType::kNetDelay:
      if (engine_->net() == nullptr) {
        trace_.Record(now, "net-delay skipped: substrate disabled");
        return;
      }
      engine_->net()->OpenDelay(event.stall, event.duration);
      ++net_delays_;
      trace_.Record(now, "net-delay window open for " +
                             FormatSimTime(event.duration) + " (delay " +
                             FormatSimTime(event.stall) + ")");
      return;
    // The disk faults are recorded but inert when the durable store is
    // not content-modeled, and skipped events draw nothing from either
    // Rng stream — so toggling durability.enabled leaves every other
    // fault's draw sequence byte-identical.
    case FaultType::kDiskCorruption: {
      durability::ContentDurableStore* store =
          engine_->replication() != nullptr
              ? engine_->replication()->content()
              : nullptr;
      if (store == nullptr) {
        trace_.Record(now, "disk-corruption skipped: durability disabled");
        return;
      }
      const NodeId target =
          event.node >= 0 ? event.node : PickDiskTarget();
      if (target < 0) {
        trace_.Record(now, "disk-corruption skipped: no target disk");
        return;
      }
      const int64_t hit =
          store->CorruptRecords(target, &disk_rng_, event.probability);
      ++disk_corruptions_;
      records_corrupted_ += hit;
      trace_.Record(now, "disk-corruption on node " +
                             std::to_string(target) + ": " +
                             std::to_string(hit) +
                             " records bit-rotted (p=" +
                             std::to_string(event.probability) + ")");
      return;
    }
    case FaultType::kTornWrite: {
      durability::ContentDurableStore* store =
          engine_->replication() != nullptr
              ? engine_->replication()->content()
              : nullptr;
      if (store == nullptr) {
        trace_.Record(now, "torn-write skipped: durability disabled");
        return;
      }
      const NodeId target =
          event.node >= 0 ? event.node : PickDiskTarget();
      if (target < 0) {
        trace_.Record(now, "torn-write skipped: no target disk");
        return;
      }
      // A tear damages whatever was mid-write; if the drawn segment is
      // empty (e.g. no checkpoint taken yet), the in-flight write was
      // on the other one.
      bool log_side = disk_rng_.NextBernoulli(0.5);
      int64_t cut = store->TearTail(target, event.probability, log_side);
      if (cut == 0) {
        log_side = !log_side;
        cut = store->TearTail(target, event.probability, log_side);
      }
      ++torn_writes_;
      records_torn_ += cut;
      trace_.Record(now, "torn-write on node " + std::to_string(target) +
                             ": " + std::to_string(cut) +
                             (log_side ? " log" : " checkpoint") +
                             " records truncated (tail=" +
                             std::to_string(event.probability) + ")");
      return;
    }
    case FaultType::kDiskStall:
      if (engine_->replication() == nullptr ||
          engine_->replication()->content() == nullptr) {
        trace_.Record(now, "disk-stall skipped: durability disabled");
        return;
      }
      engine_->replication()->content()->OpenStall(event.load_scale,
                                                   now + event.duration);
      ++disk_stalls_;
      trace_.Record(now, "disk-stall window open for " +
                             FormatSimTime(event.duration) +
                             " (xlatency=" +
                             std::to_string(event.load_scale) + ")");
      return;
    // The topology faults are recorded but inert when the engine's
    // topology layer is off, and they draw nothing from either Rng
    // stream in any case — so toggling topology.enabled leaves every
    // other fault's draw sequence byte-identical.
    case FaultType::kSpotRevocation: {
      if (engine_->placement_policy() == nullptr) {
        trace_.Record(now, "spot-revocation skipped: topology disabled");
        return;
      }
      const NodeId target =
          event.node >= 0 ? event.node : PickSpotTarget();
      if (target < 0) {
        trace_.Record(now, "spot-revocation skipped: no revocable node");
        return;
      }
      Status st = engine_->StartDrain(target, event.duration);
      if (st.ok()) {
        // The notice starts the deadline-aware evacuation at once;
        // replica promotion covers what the notice cannot fit.
        if (migrator_ != nullptr) {
          (void)migrator_->StartEvacuation(target,
                                           engine_->drain_deadline(target));
        }
        ++spot_revocations_;
        trace_.Record(now, "spot revocation of node " +
                               std::to_string(target) + ": draining with " +
                               FormatSimTime(event.duration) + " notice");
      } else {
        trace_.Record(now, "spot revocation of node " +
                               std::to_string(target) +
                               " rejected: " + st.ToString());
      }
      return;
    }
    case FaultType::kDomainOutage: {
      const topology::PlacementPolicy* policy = engine_->placement_policy();
      if (policy == nullptr) {
        trace_.Record(now, "domain-outage skipped: topology disabled");
        return;
      }
      const int32_t domain =
          event.node >= 0 ? event.node % policy->config().num_domains
                          : PickDomainTarget();
      if (domain < 0) {
        trace_.Record(now, "domain-outage skipped: no target domain");
        return;
      }
      // Feasibility snapshot before the first crash: a bucket whose
      // every live copy (primary and backups) sits inside the doomed
      // domain cannot survive the correlated kill, however failover
      // sequences the promotions.
      bool infeasible = false;
      replication::ReplicaManager* rep = engine_->replication();
      if (rep != nullptr) {
        for (NodeId n = 0; n < engine_->active_nodes() && !infeasible;
             ++n) {
          if (!engine_->IsNodeUp(n) || policy->DomainOf(n) != domain) {
            continue;
          }
          for (int32_t i = 0;
               i < engine_->partitions_per_node() && !infeasible; ++i) {
            const PartitionId p = n * engine_->partitions_per_node() + i;
            for (BucketId b :
                 engine_->partition_map().BucketsOfPartition(p)) {
              bool survivable = false;
              for (PartitionId r : rep->replicas(b)) {
                const NodeId rn = rep->node_of(r);
                if (engine_->IsNodeUp(rn) &&
                    policy->DomainOf(rn) != domain) {
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
      }
      if (infeasible) ++infeasible_outages_;
      int32_t crashed = 0;
      for (NodeId n = 0; n < engine_->active_nodes(); ++n) {
        if (!engine_->IsNodeUp(n) || policy->DomainOf(n) != domain) {
          continue;
        }
        Status st = engine_->CrashNode(n);
        if (st.ok()) {
          ++crashed;
        } else {
          trace_.Record(now, "domain-outage crash of node " +
                                 std::to_string(n) +
                                 " rejected: " + st.ToString());
        }
      }
      ++domain_outages_;
      std::string msg = "domain outage in domain " +
                        std::to_string(domain) + ": " +
                        std::to_string(crashed) + " nodes crashed (live=" +
                        std::to_string(engine_->live_nodes()) + ")";
      if (infeasible) msg += " [bucket(s) without out-of-domain replica]";
      trace_.Record(now, msg);
      return;
    }
    // The control-plane faults open windows and draw nothing from
    // either Rng stream; runs that never poll flash_scale() /
    // trace_dropout_active() feel nothing.
    case FaultType::kFlashCrowd:
      flash_until_ = now + event.duration;
      flash_scale_ = event.load_scale;
      ++flash_crowds_;
      trace_.Record(now, "flash-crowd window open for " +
                             FormatSimTime(event.duration) + " (xload=" +
                             std::to_string(event.load_scale) + ")");
      return;
    case FaultType::kTraceDropout:
      dropout_until_ = now + event.duration;
      ++trace_dropouts_;
      trace_.Record(now, "trace-dropout window open for " +
                             FormatSimTime(event.duration));
      return;
  }
}

ChunkFault FaultInjector::OnChunk(PartitionId src, PartitionId dst,
                                  SimTime now) {
  ChunkFault fault;
  if (now < stall_until_) {
    ++chunk_faults_;
    fault.kind = ChunkFault::Kind::kStall;
    fault.stall = stall_len_;
    return fault;
  }
  if (now < chunk_fail_until_ && rng_.NextBernoulli(chunk_fail_p_)) {
    ++chunk_faults_;
    fault.kind = ChunkFault::Kind::kFail;
    trace_.Record(now, "injected chunk failure on stream " +
                           std::to_string(src) + "->" +
                           std::to_string(dst));
    return fault;
  }
  return fault;
}

double FaultInjector::forecast_scale() const {
  return engine_->simulator()->Now() < misforecast_until_
             ? misforecast_scale_
             : 1.0;
}

double FaultInjector::load_scale() const {
  return engine_->simulator()->Now() < spike_until_ ? spike_scale_ : 1.0;
}

double FaultInjector::flash_scale() const {
  return engine_->simulator()->Now() < flash_until_ ? flash_scale_ : 1.0;
}

double FaultInjector::offered_load_scale() const {
  return load_scale() * flash_scale();
}

bool FaultInjector::trace_dropout_active() const {
  return engine_->simulator()->Now() < dropout_until_;
}

Result<std::vector<double>> MisforecastPredictor::Forecast(
    const std::vector<double>& series, int64_t t, int32_t horizon) const {
  auto res = inner_->Forecast(series, t, horizon);
  if (!res.ok()) return res.status();
  const double scale = injector_->forecast_scale();
  if (scale != 1.0) {
    for (double& v : *res) v *= scale;
  }
  return res;
}

}  // namespace pstore
