#pragma once

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "cluster/engine.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

/// \file test_util.h
/// Shared fixtures: a minimal key-value database (one table, Put/Get/
/// Delete procedures) on a ClusterEngine, for cluster/migration/core
/// tests that don't need the full B2W workload, and the helpers the
/// scenario-table sweeps share.

namespace pstore {
namespace testing_util {

using scenario::KvDatabase;
using scenario::MakeKvDatabase;

/// Engine with small, fast-to-test defaults (deterministic service
/// times unless overridden).
inline EngineConfig SmallEngineConfig() {
  EngineConfig config;
  config.num_buckets = 64;
  config.partitions_per_node = 2;
  config.max_nodes = 8;
  config.initial_nodes = 2;
  config.txn_service_us_mean = 1000.0;  // 1 ms
  config.txn_service_cv = 0.0;          // deterministic
  return config;
}

/// Turns on k=1 replication with the sizing the engine-level tests
/// share: a 10 MB database, rebuilt in 100 kB chunks at 10 MB/s over a
/// 100 MB/s wire.
inline EngineConfig WithReplication(EngineConfig config) {
  config.replication.enabled = true;
  config.replication.k = 1;
  config.replication.db_size_mb = 10.0;
  config.replication.rebuild_chunk_kb = 100.0;
  config.replication.rebuild_rate_kbps = 10000.0;
  config.replication.wire_kbps = 100000.0;
  return config;
}

/// Migration streams the engine-level tests share: 100 kB chunks at
/// 10 MB/s over a 100 MB/s wire, 10 MB of virtual data (at 64 buckets
/// a 160 kB bucket ships in two chunks over 16 ms).
inline MigrationOptions FastMigration() {
  return {.chunk_kb = 100,
          .rate_kbps = 10000,
          .wire_kbps = 100000,
          .db_size_mb = 10};
}

/// Overload control whose breakers, once tripped, stay open for an hour
/// of virtual time (1 s windows, trip above a 20% shed share).
inline overload::OverloadConfig StickyBreakerOverload() {
  overload::OverloadConfig config;
  config.enabled = true;
  config.breaker.shed_threshold = 0.2;
  config.breaker.cooldown = 3600 * kSecond;
  return config;
}

/// Trips node 0's breaker: fills its current window with sheds, so the
/// breaker opens when that window ends (the engine needs overload
/// control on).
inline void TripBreaker(ClusterEngine* engine) {
  for (int i = 0; i < 100; ++i) {
    engine->admission()->RecordShed(0, engine->simulator()->Now());
  }
}

/// One seed of the named scenario-table row, without telemetry.
inline scenario::ScenarioResult RunRow(std::string_view name, uint64_t seed) {
  const scenario::Scenario* row = scenario::FindScenario(name);
  if (row == nullptr) {
    throw std::invalid_argument("no scenario named " + std::string(name));
  }
  return scenario::RunScenario(*row, seed);
}

/// Failure context for one seed: its violations, plan and event trace
/// (replay it with `chaos_run --scenario=NAME --seed=N`).
inline std::string Explain(uint64_t seed, const scenario::ScenarioResult& r) {
  std::string s = "seed " + std::to_string(seed) + ": " +
                  std::to_string(r.violations.size()) + " violations";
  if (!r.violations.empty()) s += "; first: " + r.violations[0];
  if (!r.status.ok()) s += "; final audit: " + r.status.ToString();
  return s + "\nplan:\n" + r.plan + "\ntrace:\n" + r.trace;
}

/// The hard line every sweep seed shares: every periodic audit and the
/// final audit clean.
inline void ExpectNoViolations(uint64_t seed,
                               const scenario::ScenarioResult& r) {
  EXPECT_TRUE(r.violations.empty() && r.status.ok()) << Explain(seed, r);
}

/// Two same-seed runs agree on everything: plan, trace, violations,
/// final audit and every counter. Seed 42 is chaos_run's default, so
/// the row's acceptance predicates must hold there too.
inline void ExpectReplaysIdentically(std::string_view name) {
  const scenario::ScenarioResult a = RunRow(name, 42);
  EXPECT_EQ(scenario::FirstDifference(a, RunRow(name, 42)), "") << name;
  ExpectNoViolations(42, a);
  for (const scenario::Check& check : scenario::FindScenario(name)->accept) {
    EXPECT_TRUE(scenario::Holds(check, a))
        << name << ": " << check.counter << " "
        << scenario::OpName(check.op) << " " << check.bound << ", got "
        << a.counter(check.counter);
  }
}

/// Different seeds draw different fault plans, and the runs differ.
/// Only for rows whose plan is drawn from the seed: a scripted row runs
/// the same plan at every seed, and most scripted rows draw nothing else
/// from it either.
inline void ExpectSeedsDiverge(std::string_view name) {
  ASSERT_TRUE(scenario::FindScenario(name)->script.empty()) << name;
  const scenario::ScenarioResult a = RunRow(name, 3);
  const scenario::ScenarioResult b = RunRow(name, 4);
  EXPECT_NE(a.plan, b.plan) << name;
  EXPECT_NE(a.fingerprint, b.fingerprint) << name;
}

}  // namespace testing_util
}  // namespace pstore
