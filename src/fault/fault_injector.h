#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "common/rng.h"
#include "common/status.h"
#include "fault/fault_plan.h"
#include "migration/migration_executor.h"
#include "obs/event_stream.h"
#include "prediction/predictor.h"

/// \file fault_injector.h
/// Replays a FaultPlan against a live engine/migrator on the simulator's
/// virtual clock. All stochastic choices (which chunk fails inside a
/// failure window) flow through a pstore::Rng seeded at construction, so
/// a chaos run is exactly replayable: (plan, seed) -> identical trace.

namespace pstore {

/// \brief Schedules and applies the faults of a FaultPlan.
///
/// Crash/restart go through ClusterEngine::CrashNode/RestartNode (bucket
/// failover included); migration faults are delivered through the
/// MigrationExecutor's chunk-fault hook; misforecast windows are exposed
/// via forecast_scale() for a MisforecastPredictor to consult. Every
/// action lands in the event stream with its virtual timestamp.
class FaultInjector {
 public:
  /// \param engine engine to fault (not owned)
  /// \param migrator migration executor to fault; may be null, in which
  ///        case stall/chunk-failure events are recorded but inert and
  ///        a spot revocation drains without evacuating
  /// \param seed seeds the injector's private Rng
  FaultInjector(ClusterEngine* engine, MigrationExecutor* migrator,
                uint64_t seed);

  /// Validates `plan` and schedules every event at its virtual time on
  /// the engine's simulator. Installs the chunk-fault hook and event
  /// sink on the migrator. Call once, before running the simulation.
  Status Arm(const FaultPlan& plan);

  /// Forecast multiplier currently in force (1.0 outside misforecast
  /// windows). MisforecastPredictor consults this on every forecast.
  double forecast_scale() const;

  /// Offered-load multiplier currently in force (1.0 outside load-spike
  /// windows). Workload drivers consult this when pacing submissions.
  double load_scale() const;

  /// Flash-crowd load multiplier currently in force (1.0 outside
  /// flash-crowd windows). Kept separate from load_scale() so the two
  /// window kinds compose; workload drivers that should feel both
  /// multiply them (offered_load_scale()). The forecast path never
  /// consults this — a flash crowd is unforecast by construction.
  double flash_scale() const;

  /// Combined offered-load multiplier: load_scale() * flash_scale().
  double offered_load_scale() const;

  /// True while a trace-dropout window is open: the controller's
  /// telemetry feed is stale, so measurement consumers should hold
  /// their last-good value instead of reading fresh load.
  bool trace_dropout_active() const;

  const obs::EventStream& trace() const { return trace_; }

  int64_t crashes() const { return crashes_; }
  int64_t restarts() const { return restarts_; }
  /// Chunk attempts this injector failed or stalled.
  int64_t chunk_faults() const { return chunk_faults_; }
  /// Load-spike windows opened.
  int64_t load_spikes() const { return load_spikes_; }
  /// Replica-lag windows opened.
  int64_t replica_lags() const { return replica_lags_; }
  /// Net-partition windows opened (0 when the substrate is off — the
  /// events are recorded in the trace but inert).
  int64_t net_partitions() const { return net_partitions_; }
  /// Net-loss windows opened.
  int64_t net_losses() const { return net_losses_; }
  /// Net-delay windows opened.
  int64_t net_delays() const { return net_delays_; }
  /// Disk-corruption events applied (0 when the durable store is not
  /// content-modeled — the events are recorded but inert).
  int64_t disk_corruptions() const { return disk_corruptions_; }
  /// Torn-write events applied.
  int64_t torn_writes() const { return torn_writes_; }
  /// Disk-stall windows opened.
  int64_t disk_stalls() const { return disk_stalls_; }
  /// Durable records bit-rotted across all corruption events.
  int64_t records_corrupted() const { return records_corrupted_; }
  /// Durable records truncated across all torn-write events.
  int64_t records_torn() const { return records_torn_; }
  /// Spot-revocation notices delivered (0 when the topology layer is
  /// off — the events are recorded in the trace but inert).
  int64_t spot_revocations() const { return spot_revocations_; }
  /// Domain outages fired.
  int64_t domain_outages() const { return domain_outages_; }
  /// Domain outages that found some bucket with every live copy inside
  /// the doomed domain at fire time — correlated failures no placement
  /// could have survived. Zero-loss assertions exclude runs where this
  /// (or the engine's drain_kills_infeasible) is non-zero.
  int64_t infeasible_outages() const { return infeasible_outages_; }
  /// Flash-crowd windows opened.
  int64_t flash_crowds() const { return flash_crowds_; }
  /// Trace-dropout windows opened.
  int64_t trace_dropouts() const { return trace_dropouts_; }

  /// Digest of the injector's Rng state — equal across two runs iff the
  /// runs made identical random draws (determinism golden tests).
  uint64_t rng_state_hash() const { return rng_.StateHash(); }

  /// Digest of the dedicated disk-fault Rng stream (seeded
  /// independently, so disk faults never perturb chunk-failure draws
  /// and vice versa; skipped disk events draw nothing).
  uint64_t disk_rng_state_hash() const { return disk_rng_.StateHash(); }

 private:
  void ApplyEvent(const FaultEvent& event);
  /// Picks an auto crash victim, never node 0 (keeps the cluster alive
  /// and the choice deterministic). kAny takes the highest-indexed live
  /// node; kPrimaryHeavy the live node owning the most primary buckets;
  /// kBackupHeavy the live node hosting the most backup replicas
  /// (requires the engine's replication layer — falls back to kAny).
  /// Ties break toward the higher index. -1 if no crashable node exists.
  NodeId PickCrashTarget(CrashScope scope) const;
  /// Lowest-indexed crashed active node that is not already replaying
  /// recovery; -1 if none.
  NodeId PickRestartTarget() const;
  /// Picks the disk a storage fault damages: the lowest crashed,
  /// not-yet-recovering node if any (its damage surfaces at restart
  /// replay), else the highest live node (the scrubber's beat); -1 if
  /// no node exists.
  NodeId PickDiskTarget() const;
  /// Picks the auto spot-revocation victim: the highest-indexed live,
  /// not-yet-draining spot-class node (never node 0); -1 if none.
  /// Requires the engine's topology layer. Zero Rng draws.
  NodeId PickSpotTarget() const;
  /// Picks the auto outage domain: the domain (excluding node 0's, so
  /// the cluster survives) with the most live nodes, ties toward the
  /// higher index; -1 if every other domain is empty. Zero Rng draws.
  int32_t PickDomainTarget() const;
  ChunkFault OnChunk(PartitionId src, PartitionId dst, SimTime now);

  ClusterEngine* engine_;
  MigrationExecutor* migrator_;
  Rng rng_;
  /// Dedicated stream for disk faults (per-record corruption draws,
  /// torn-side picks): seeded `seed ^ 0x2545f4914f6cdd1d`, so adding
  /// disk events to a plan leaves every other fault's draw sequence
  /// byte-identical.
  Rng disk_rng_;
  obs::EventStream trace_;
  bool armed_ = false;

  // Open fault windows (absolute virtual end times; -1 = closed).
  SimTime stall_until_ = -1;
  SimDuration stall_len_ = 0;
  SimTime chunk_fail_until_ = -1;
  double chunk_fail_p_ = 0;
  SimTime misforecast_until_ = -1;
  double misforecast_scale_ = 1.0;
  SimTime spike_until_ = -1;
  double spike_scale_ = 1.0;
  SimTime flash_until_ = -1;
  double flash_scale_ = 1.0;
  SimTime dropout_until_ = -1;

  int64_t crashes_ = 0;
  int64_t restarts_ = 0;
  int64_t chunk_faults_ = 0;
  int64_t load_spikes_ = 0;
  int64_t replica_lags_ = 0;
  int64_t net_partitions_ = 0;
  int64_t net_losses_ = 0;
  int64_t net_delays_ = 0;
  int64_t disk_corruptions_ = 0;
  int64_t torn_writes_ = 0;
  int64_t disk_stalls_ = 0;
  int64_t records_corrupted_ = 0;
  int64_t records_torn_ = 0;
  int64_t spot_revocations_ = 0;
  int64_t domain_outages_ = 0;
  int64_t infeasible_outages_ = 0;
  int64_t flash_crowds_ = 0;
  int64_t trace_dropouts_ = 0;
};

/// \brief Decorator that scales another predictor's forecasts by the
/// injector's live misforecast factor — modeling a badly wrong forecast
/// (scale 0.2 = the predictor misses 80% of the coming load, so the
/// reactive safety net must catch the overload; scale 3.0 = it
/// hallucinates a spike and over-provisions).
class MisforecastPredictor : public LoadPredictor {
 public:
  /// Neither pointer is owned; both must outlive this object.
  MisforecastPredictor(LoadPredictor* inner, const FaultInjector* injector)
      : inner_(inner), injector_(injector) {}

  std::string name() const override { return inner_->name() + "+faults"; }
  Status Fit(const std::vector<double>& train, int32_t max_horizon) override {
    return inner_->Fit(train, max_horizon);
  }
  int64_t MinHistory() const override { return inner_->MinHistory(); }
  Result<std::vector<double>> Forecast(const std::vector<double>& series,
                                       int64_t t,
                                       int32_t horizon) const override;

 private:
  LoadPredictor* inner_;
  const FaultInjector* injector_;
};

}  // namespace pstore
