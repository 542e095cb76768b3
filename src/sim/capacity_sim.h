#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "planner/move_model.h"

/// \file capacity_sim.h
/// The long-horizon *analytic* simulator of Section 8.3: "to compare the
/// performance of the different allocation strategies ... over a long
/// period of time, we use simulation". It steps minute by minute over a
/// multi-month load trace, tracking cluster size, in-flight
/// reconfigurations (with Equation 7's effective capacity and the
/// three-phase allocation timeline), total cost (Equation 1) and the
/// percentage of time with insufficient capacity — the two axes of
/// Figure 12.

namespace pstore {

/// A provisioning decision returned by a strategy.
struct AllocationDecision {
  int32_t target_machines = 0;   ///< Desired cluster size (== current: hold).
  double rate_multiplier = 1.0;  ///< Migration speed (R x k shortens moves).
};

/// \brief Strategy interface: called at control-slot boundaries when no
/// reconfiguration is in flight.
///
/// Implementations may read `load[0..minute]` (the past) only; the
/// oracle variants receive the future explicitly at construction.
class AllocationStrategy {
 public:
  virtual ~AllocationStrategy() = default;
  virtual std::string name() const = 0;
  virtual AllocationDecision Decide(const std::vector<double>& load,
                                    int64_t minute,
                                    int32_t current_machines) = 0;
  /// Called once before the run starts.
  virtual void Reset() {}
};

/// Simulator configuration.
struct CapacitySimConfig {
  MoveModelConfig move_model;     ///< Q, P, D, 5-minute intervals.
  double q_hat = 350.0;           ///< Max per-node rate (capacity basis).
  int32_t max_machines = 40;
  bool record_series = false;     ///< Keep per-minute series (Figure 13).

  Status Validate() const;
};

/// Outcome of one simulated run.
struct CapacitySimResult {
  std::string strategy_name;
  double total_machine_minutes = 0;       ///< Equation 1's cost.
  int64_t minutes_simulated = 0;
  int64_t minutes_insufficient = 0;       ///< load > effective capacity.
  double pct_time_insufficient = 0;
  int64_t moves_started = 0;
  /// Per-minute series when record_series is set.
  std::vector<double> effective_capacity;  ///< In load units (Q-hat based).
  std::vector<double> machines;
};

/// \brief Minute-stepped capacity/cost simulator.
class CapacitySimulator {
 public:
  explicit CapacitySimulator(CapacitySimConfig config);

  /// Simulates minutes [begin, end) of `load` under `strategy`, starting
  /// with `initial_machines` (0 = sized from the first minute's load).
  Result<CapacitySimResult> Run(const std::vector<double>& load,
                                AllocationStrategy* strategy,
                                int64_t begin_minute, int64_t end_minute,
                                int32_t initial_machines = 0) const;

  const CapacitySimConfig& config() const { return config_; }

 private:
  CapacitySimConfig config_;
};

}  // namespace pstore
