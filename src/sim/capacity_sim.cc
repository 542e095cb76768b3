#include "sim/capacity_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "migration/parallel_schedule.h"

namespace pstore {

namespace {
/// Minutes between strategy decisions (the paper plans at 5-minute
/// granularity).
constexpr int32_t kControlSlotMinutes = 5;
}  // namespace

Status CapacitySimConfig::Validate() const {
  PSTORE_RETURN_NOT_OK(move_model.Validate());
  if (q_hat < move_model.q) {
    return Status::InvalidArgument("q_hat must be >= q");
  }
  if (max_machines < 1) return Status::InvalidArgument("max_machines < 1");
  return Status::OK();
}

CapacitySimulator::CapacitySimulator(CapacitySimConfig config)
    : config_(config) {
  assert(config_.Validate().ok());
}

namespace {

/// In-flight reconfiguration state.
struct InFlightMove {
  int32_t from = 0;
  int32_t to = 0;
  double duration_minutes = 0;
  double elapsed_minutes = 0;
  /// Machine count per schedule round (the three-phase allocation
  /// timeline); round r covers progress [r/R, (r+1)/R).
  std::vector<int32_t> machines_per_round;

  double progress() const {
    return duration_minutes <= 0
               ? 1.0
               : std::min(1.0, elapsed_minutes / duration_minutes);
  }
  int32_t MachinesNow() const {
    if (machines_per_round.empty()) return std::max(from, to);
    const size_t r = std::min(
        machines_per_round.size() - 1,
        static_cast<size_t>(progress() *
                            static_cast<double>(machines_per_round.size())));
    return machines_per_round[r];
  }
};

}  // namespace

Result<CapacitySimResult> CapacitySimulator::Run(
    const std::vector<double>& load, AllocationStrategy* strategy,
    int64_t begin_minute, int64_t end_minute,
    int32_t initial_machines) const {
  if (strategy == nullptr) {
    return Status::InvalidArgument("strategy is null");
  }
  end_minute = std::min(end_minute, static_cast<int64_t>(load.size()));
  if (begin_minute < 0 || begin_minute >= end_minute) {
    return Status::InvalidArgument("empty simulation window");
  }
  const MoveModel model(config_.move_model);

  int32_t machines = initial_machines;
  if (machines <= 0) {
    machines = std::clamp<int32_t>(
        static_cast<int32_t>(std::ceil(
            load[static_cast<size_t>(begin_minute)] * 1.2 /
            config_.move_model.q)),
        1, config_.max_machines);
  }

  strategy->Reset();
  CapacitySimResult result;
  result.strategy_name = strategy->name();

  std::unique_ptr<InFlightMove> move;

  for (int64_t minute = begin_minute; minute < end_minute; ++minute) {
    // Strategy decisions at control-slot boundaries, when idle.
    if (move == nullptr &&
        (minute - begin_minute) % kControlSlotMinutes == 0) {
      AllocationDecision decision = strategy->Decide(load, minute, machines);
      int32_t target = std::clamp(decision.target_machines, 1,
                                  config_.max_machines);
      if (target != machines) {
        auto schedule = BuildMoveSchedule(machines, target);
        if (!schedule.ok()) return schedule.status();
        auto inflight = std::make_unique<InFlightMove>();
        inflight->from = machines;
        inflight->to = target;
        inflight->duration_minutes =
            std::max(1.0, model.MoveTimeMinutes(machines, target) /
                              std::max(1.0, decision.rate_multiplier));
        const auto& rounds = schedule->rounds;
        inflight->machines_per_round.reserve(rounds.size());
        for (size_t r = 0; r < rounds.size(); ++r) {
          inflight->machines_per_round.push_back(
              schedule->MachinesDuringRound(static_cast<int32_t>(r)));
        }
        move = std::move(inflight);
        ++result.moves_started;
      }
    }

    // Capacity and allocation for this minute.
    double capacity_q;  // in Q units
    int32_t allocated;
    if (move != nullptr) {
      capacity_q =
          model.EffectiveCapacity(move->from, move->to, move->progress());
      allocated = move->MachinesNow();
    } else {
      capacity_q = model.Capacity(machines);
      allocated = machines;
    }
    // The system can actually absorb load up to the Q-hat based ceiling
    // with the same data-balance shape.
    const double capacity_hat =
        capacity_q * (config_.q_hat / config_.move_model.q);

    const double demand = load[static_cast<size_t>(minute)];
    if (demand > capacity_hat) ++result.minutes_insufficient;
    result.total_machine_minutes += allocated;
    ++result.minutes_simulated;
    if (config_.record_series) {
      result.effective_capacity.push_back(capacity_hat);
      result.machines.push_back(allocated);
    }

    // Advance the in-flight move.
    if (move != nullptr) {
      move->elapsed_minutes += 1.0;
      if (move->elapsed_minutes >= move->duration_minutes - 1e-9) {
        machines = move->to;
        move.reset();
      }
    }
  }

  result.pct_time_insufficient =
      100.0 * static_cast<double>(result.minutes_insufficient) /
      static_cast<double>(result.minutes_simulated);
  return result;
}

}  // namespace pstore
