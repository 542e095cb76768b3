#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/engine.h"
#include "common/status.h"
#include "core/reactive_controller.h"
#include "fault/fault_plan.h"
#include "migration/migration_executor.h"
#include "storage/schema.h"
#include "txn/procedure.h"

/// \file scenario.h
/// Chaos scenarios as data. A Scenario row names everything one seeded
/// chaos run needs — cluster, migration and controller settings, the
/// fault plan (drawn from a ChaosConfig or scripted), the workload, an
/// optional scheduled move, and the run/drain lengths — and RunScenario
/// executes it. examples/chaos_run, the per-subsystem 50-seed sweeps and
/// tools/check_determinism.sh all read the same table (Scenarios()), so
/// adding a scenario is one row plus its acceptance predicates.

namespace pstore {
namespace scenario {

/// The order the KV procedures are registered in. chaos_run has always
/// registered Get then Put; the test fixture registers Put, Get, Del.
/// Procedure ids feed per-procedure telemetry, so rows keep their order.
enum class KvProcs { kGetPut, kPutGetDel };

/// A one-table key-value database with Get/Put (and Del) procedures.
struct KvDatabase {
  TableId table = -1;
  ProcedureId put = -1;
  ProcedureId get = -1;
  ProcedureId del = -1;  ///< -1 under kGetPut.
  Catalog catalog;
  ProcedureRegistry registry;
};

KvDatabase MakeKvDatabase(KvProcs procs = KvProcs::kPutGetDel);

enum class ControllerKind {
  kNone,
  kReactive,  ///< On an overload-enabled engine it also watches breakers.
  kPredictiveGuard,  ///< SPAR-fed predictive control with the guard on.
};

enum class WorkloadKind {
  kFixedSchedule,  ///< `rate` txn/s pre-scheduled for the whole run.
  kFixedScheduleWriteMix,  ///< The same, every fourth request a Put.
  kWriteMixStream, ///< One request every 10 ms, every fourth a Put.
  kLoadScaleRetry, ///< `rate` x load_scale(), sheds retried on a budget.
  kOfferedLoad,    ///< `rate` x offered_load_scale() (flash crowds).
};

enum class Op { kEq, kGt, kGe };

/// "==", ">" or ">=".
const char* OpName(Op op);

/// One acceptance predicate: `counter op bound`.
struct Check {
  const char* counter;
  Op op;
  int64_t bound;
};

/// One row of the scenario table.
struct Scenario {
  std::string name{};
  std::string summary{};  ///< One line for --list-scenarios.
  KvProcs procs = KvProcs::kPutGetDel;
  int64_t rows = 200;  ///< Preloaded keys 0..rows-1.
  EngineConfig engine{};
  MigrationOptions migration{};
  ControllerKind controller = ControllerKind::kNone;
  ReactiveConfig reactive{};
  /// The plan: `script` when non-empty, else drawn from `chaos` with
  /// an Rng derived from the seed. `alternate_crash_scope` retargets
  /// the drawn crashes primary-heavy, backup-heavy, primary-heavy, ...
  ChaosConfig chaos{};
  bool alternate_crash_scope = false;
  std::vector<FaultEvent> script{};
  WorkloadKind workload = WorkloadKind::kFixedSchedule;
  double rate = 40.0;   ///< Base txn/s (also the SPAR history level).
  SimTime move_at = -1; ///< When >= 0, StartMove(move_nodes) then.
  int32_t move_nodes = 0;
  double run_seconds = 60.0;    ///< Load and periodic audits stop here.
  double drain_seconds = 60.0;  ///< In-flight work settles before the
                                ///< final audit.
  std::vector<Check> accept{};  ///< chaos_run's acceptance predicates.
};

/// The table: chaos_run's seven scenarios, then the seven sweeps.
const std::vector<Scenario>& Scenarios();

/// The row named `name`, or nullptr.
const Scenario* FindScenario(std::string_view name);

/// Ordered name -> value counters of one run. Hashes are stored as
/// their two's-complement int64 bit pattern.
using Counters = std::vector<std::pair<std::string, int64_t>>;

/// Everything observable about one run.
struct ScenarioResult {
  std::string plan;
  std::string trace;
  uint64_t fingerprint = 0;  ///< Of the fault trace.
  std::vector<std::string> violations;
  Status status;  ///< The final audit, or the setup step that failed.
  Counters counters;

  /// The named counter; throws std::out_of_range for an unknown name.
  int64_t counter(std::string_view name) const;
};

/// Opt-in telemetry for RunScenario: every component records into one
/// bundle, sampled once per virtual second, and the run renders its
/// artifacts before its engine goes away.
struct ScenarioTelemetry {
  double trace_sample = 0;  ///< Txn lifecycle sampling rate; 0 = off.
  /// Filled by RunScenario: file name -> contents, in write order.
  std::vector<std::pair<std::string, std::string>> artifacts{};
};

/// Runs `scenario` once. Everything derives from `seed`, so two calls
/// with the same arguments return identical results. Asserts nothing:
/// callers judge the returned result.
ScenarioResult RunScenario(const Scenario& scenario, uint64_t seed,
                           ScenarioTelemetry* telemetry = nullptr);

/// "" when `a` and `b` are identical, else the first difference.
std::string FirstDifference(const ScenarioResult& a, const ScenarioResult& b);

/// Whether `result` meets `check`; throws std::out_of_range when the
/// check names an unknown counter.
bool Holds(const Check& check, const ScenarioResult& result);

}  // namespace scenario
}  // namespace pstore
