#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "obs/event_stream.h"

namespace pstore {
namespace {

TEST(FaultPlanTest, ValidationRejectsBadEvents) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Validate().ok());  // empty plan is fine

  FaultEvent e;
  e.at = -1;
  plan.events = {e};
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());

  e = FaultEvent{};
  e.type = FaultType::kChunkFailure;
  e.probability = 1.5;
  plan.events = {e};
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());

  e = FaultEvent{};
  e.type = FaultType::kMisforecast;
  e.forecast_scale = 0.0;
  plan.events = {e};
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());

  e = FaultEvent{};
  e.type = FaultType::kMigrationStall;
  e.duration = -5;
  plan.events = {e};
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
}

TEST(FaultPlanTest, ChaosConfigValidation) {
  ChaosConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.horizon = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config = ChaosConfig{};
  config.crash_weight = -1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config = ChaosConfig{};
  config.crash_weight = config.restart_weight = config.stall_weight =
      config.chunk_failure_weight = config.misforecast_weight = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST(FaultPlanTest, RandomPlanIsSortedValidAndWithinHorizon) {
  Rng rng(7);
  ChaosConfig config;
  config.num_events = 40;
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  ASSERT_EQ(plan.events.size(), 40u);
  EXPECT_TRUE(plan.Validate().ok());
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_GE(plan.events[i].at, 0);
    EXPECT_LT(plan.events[i].at, config.horizon);
    if (i > 0) {
      EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
    }
  }
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  ChaosConfig config;
  config.num_events = 25;
  Rng a(123), b(123);
  EXPECT_EQ(RandomFaultPlan(&a, config).ToString(),
            RandomFaultPlan(&b, config).ToString());
}

TEST(FaultPlanTest, DifferentSeedsDifferentPlans) {
  ChaosConfig config;
  config.num_events = 25;
  Rng a(1), b(2);
  EXPECT_NE(RandomFaultPlan(&a, config).ToString(),
            RandomFaultPlan(&b, config).ToString());
}

TEST(FaultPlanTest, WeightsSteerEventMix) {
  ChaosConfig config;
  config.num_events = 30;
  config.crash_weight = 1.0;
  config.restart_weight = 0.0;
  config.stall_weight = 0.0;
  config.chunk_failure_weight = 0.0;
  config.misforecast_weight = 0.0;
  Rng rng(9);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.type, FaultType::kNodeCrash);
  }
}

TEST(FaultPlanTest, ReplicaLagWeightValidatesAndSteersMix) {
  ChaosConfig config;
  config.replica_lag_weight = -1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = ChaosConfig{};
  config.num_events = 30;
  config.crash_weight = 0.0;
  config.restart_weight = 0.0;
  config.stall_weight = 0.0;
  config.chunk_failure_weight = 0.0;
  config.misforecast_weight = 0.0;
  config.replica_lag_weight = 1.0;
  EXPECT_TRUE(config.Validate().ok());
  Rng rng(11);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.type, FaultType::kReplicaLag);
    EXPECT_GT(e.duration, 0);  // Lag window length.
    EXPECT_GT(e.stall, 0);     // Per-apply lag.
  }
  EXPECT_NE(plan.ToString().find("replica-lag"), std::string::npos);
  EXPECT_NE(plan.ToString().find("lag="), std::string::npos);
}

TEST(FaultPlanTest, DefaultWeightsNeverDrawReplicaLag) {
  // replica_lag_weight defaults to 0 in the trailing weight bucket, so
  // pre-existing seeded plans keep drawing exactly what they always did.
  ChaosConfig config;
  config.num_events = 200;
  Rng rng(5);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_NE(e.type, FaultType::kReplicaLag);
    EXPECT_EQ(e.scope, CrashScope::kAny);
  }
  EXPECT_EQ(plan.ToString().find("replica-lag"), std::string::npos);
  EXPECT_EQ(plan.ToString().find("scope="), std::string::npos);
}

TEST(FaultPlanTest, SpotRevocationWeightValidatesAndSteersMix) {
  ChaosConfig config;
  config.spot_revocation_weight = -1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = ChaosConfig{};
  config.num_events = 30;
  config.crash_weight = 0.0;
  config.restart_weight = 0.0;
  config.stall_weight = 0.0;
  config.chunk_failure_weight = 0.0;
  config.misforecast_weight = 0.0;
  config.spot_revocation_weight = 1.0;
  EXPECT_TRUE(config.Validate().ok());
  Rng rng(13);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.type, FaultType::kSpotRevocation);
    EXPECT_EQ(e.node, -1);     // Injector picks a spot node at fire time.
    EXPECT_GT(e.duration, 0);  // Advance-notice window.
  }
  EXPECT_NE(plan.ToString().find("spot-revocation"), std::string::npos);
  EXPECT_NE(plan.ToString().find("notice="), std::string::npos);
}

TEST(FaultPlanTest, DomainOutageWeightValidatesAndSteersMix) {
  ChaosConfig config;
  config.domain_outage_weight = -1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = ChaosConfig{};
  config.num_events = 30;
  config.crash_weight = 0.0;
  config.restart_weight = 0.0;
  config.stall_weight = 0.0;
  config.chunk_failure_weight = 0.0;
  config.misforecast_weight = 0.0;
  config.domain_outage_weight = 1.0;
  EXPECT_TRUE(config.Validate().ok());
  Rng rng(17);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.type, FaultType::kDomainOutage);
    EXPECT_EQ(e.node, -1);  // Injector picks the doomed domain.
    EXPECT_EQ(e.duration, 0);  // A point fault: the domain just dies.
  }
  EXPECT_NE(plan.ToString().find("domain-outage"), std::string::npos);
  EXPECT_NE(plan.ToString().find("domain=auto"), std::string::npos);
}

TEST(FaultPlanTest, FlashCrowdWeightValidatesAndSteersMix) {
  ChaosConfig config;
  config.flash_crowd_weight = -1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = ChaosConfig{};
  config.num_events = 30;
  config.crash_weight = 0.0;
  config.restart_weight = 0.0;
  config.stall_weight = 0.0;
  config.chunk_failure_weight = 0.0;
  config.misforecast_weight = 0.0;
  config.flash_crowd_weight = 1.0;
  EXPECT_TRUE(config.Validate().ok());
  Rng rng(19);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.type, FaultType::kFlashCrowd);
    EXPECT_GT(e.duration, 0);      // Surge window length.
    EXPECT_GE(e.load_scale, 2.0);  // 2x-8x, like kLoadSpike.
    EXPECT_LE(e.load_scale, 8.0);
    // The forecast path is untouched: reality moves, the model does not.
    EXPECT_EQ(e.forecast_scale, 1.0);
  }
  EXPECT_NE(plan.ToString().find("flash-crowd"), std::string::npos);
  EXPECT_NE(plan.ToString().find("xload="), std::string::npos);
}

TEST(FaultPlanTest, TraceDropoutWeightValidatesAndSteersMix) {
  ChaosConfig config;
  config.trace_dropout_weight = -1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());

  config = ChaosConfig{};
  config.num_events = 30;
  config.crash_weight = 0.0;
  config.restart_weight = 0.0;
  config.stall_weight = 0.0;
  config.chunk_failure_weight = 0.0;
  config.misforecast_weight = 0.0;
  config.trace_dropout_weight = 1.0;
  EXPECT_TRUE(config.Validate().ok());
  Rng rng(23);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.type, FaultType::kTraceDropout);
    EXPECT_GT(e.duration, 0);  // Telemetry-gap window length.
  }
  EXPECT_NE(plan.ToString().find("trace-dropout"), std::string::npos);
}

TEST(FaultPlanTest, DefaultWeightsNeverDrawControlPlaneFaults) {
  // Both control-plane weights default to 0 in the trailing weight
  // buckets, so pre-existing seeded plans keep drawing exactly what
  // they always did.
  ChaosConfig config;
  config.num_events = 200;
  Rng rng(5);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_NE(e.type, FaultType::kFlashCrowd);
    EXPECT_NE(e.type, FaultType::kTraceDropout);
  }
  EXPECT_EQ(plan.ToString().find("flash-crowd"), std::string::npos);
  EXPECT_EQ(plan.ToString().find("trace-dropout"), std::string::npos);
}

TEST(FaultPlanTest, DefaultWeightsNeverDrawTopologyFaults) {
  // Both topology weights default to 0 in the trailing weight buckets,
  // so pre-existing seeded plans keep drawing exactly what they always
  // did.
  ChaosConfig config;
  config.num_events = 200;
  Rng rng(5);
  const FaultPlan plan = RandomFaultPlan(&rng, config);
  for (const FaultEvent& e : plan.events) {
    EXPECT_NE(e.type, FaultType::kSpotRevocation);
    EXPECT_NE(e.type, FaultType::kDomainOutage);
  }
  EXPECT_EQ(plan.ToString().find("spot-revocation"), std::string::npos);
  EXPECT_EQ(plan.ToString().find("domain-outage"), std::string::npos);
}

TEST(FaultPlanTest, WindowFieldValidationTableDriven) {
  // Every field FaultPlan::Validate checks, one row each: the event
  // mutation and the error it must produce (mirroring the
  // ReplicationConfig table). A new FaultEvent field without a row
  // here ships unvalidated — add one alongside the Validate rule.
  struct Case {
    const char* what;
    std::function<void(FaultEvent*)> mutate;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"negative time", [](FaultEvent* e) { e->at = -1; },
       "event time < 0"},
      {"negative duration", [](FaultEvent* e) { e->duration = -kSecond; },
       "duration < 0"},
      {"negative stall", [](FaultEvent* e) { e->stall = -1; },
       "stall < 0"},
      {"probability above one",
       [](FaultEvent* e) { e->probability = 1.5; },
       "probability outside [0, 1]"},
      {"probability negative",
       [](FaultEvent* e) { e->probability = -0.1; },
       "probability outside [0, 1]"},
      {"dup_probability above one",
       [](FaultEvent* e) { e->dup_probability = 2.0; },
       "dup_probability outside [0, 1]"},
      {"forecast_scale zero",
       [](FaultEvent* e) { e->forecast_scale = 0.0; },
       "forecast_scale <= 0"},
      {"load_scale zero", [](FaultEvent* e) { e->load_scale = 0.0; },
       "load_scale <= 0"},
      {"revocation without notice window",
       [](FaultEvent* e) {
         e->type = FaultType::kSpotRevocation;
         e->duration = 0;
       },
       "window fault with zero duration"},
      {"migration stall without window",
       [](FaultEvent* e) {
         e->type = FaultType::kMigrationStall;
         e->duration = 0;
       },
       "window fault with zero duration"},
      {"flash crowd without window",
       [](FaultEvent* e) {
         e->type = FaultType::kFlashCrowd;
         e->duration = 0;
       },
       "window fault with zero duration"},
      {"trace dropout without window",
       [](FaultEvent* e) {
         e->type = FaultType::kTraceDropout;
         e->duration = 0;
       },
       "window fault with zero duration"},
  };
  for (const Case& test : cases) {
    FaultEvent e;
    test.mutate(&e);
    FaultPlan plan;
    plan.events = {e};
    const Status status = plan.Validate();
    EXPECT_TRUE(status.IsInvalidArgument()) << test.what;
    EXPECT_NE(status.ToString().find(test.error), std::string::npos)
        << test.what << ": got " << status.ToString();
  }
}

TEST(FaultPlanTest, CrashScopePrintsOnlyWhenScoped) {
  FaultEvent e;
  e.type = FaultType::kNodeCrash;
  e.node = -1;
  // kAny prints the historical string exactly.
  EXPECT_EQ(e.ToString().find("scope="), std::string::npos);
  e.scope = CrashScope::kPrimaryHeavy;
  EXPECT_NE(e.ToString().find("scope=primary"), std::string::npos);
  e.scope = CrashScope::kBackupHeavy;
  EXPECT_NE(e.ToString().find("scope=backup"), std::string::npos);
}

// Exhaustiveness sweep over kAllFaultTypes: a new enum entry that is
// missing its name, its window classification, or a validation rule
// fails here instead of shipping half-wired.

TEST(FaultPlanTest, EveryFaultTypeHasADistinctName) {
  std::set<std::string> names;
  for (FaultType type : kAllFaultTypes) {
    const std::string name = FaultTypeName(type);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << "unnamed fault type";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(),
            sizeof(kAllFaultTypes) / sizeof(kAllFaultTypes[0]));
}

TEST(FaultPlanTest, EveryFaultTypeRoundTripsValidation) {
  for (FaultType type : kAllFaultTypes) {
    FaultEvent e;
    e.type = type;
    if (IsWindowFault(type)) e.duration = kSecond;
    FaultPlan plan;
    plan.events = {e};
    EXPECT_TRUE(plan.Validate().ok()) << FaultTypeName(type);
    // Every event prints its type name (plans are golden-testable).
    EXPECT_NE(e.ToString().find(FaultTypeName(type)), std::string::npos)
        << FaultTypeName(type);
  }
}

TEST(FaultPlanTest, WindowFaultsRejectZeroAndNegativeWindows) {
  for (FaultType type : kAllFaultTypes) {
    FaultEvent e;
    e.type = type;
    FaultPlan plan;
    plan.events = {e};
    if (IsWindowFault(type)) {
      // A window fault with no window is a misarmed plan, not a no-op.
      EXPECT_TRUE(plan.Validate().IsInvalidArgument()) << FaultTypeName(type);
      plan.events[0].duration = -kSecond;
      EXPECT_TRUE(plan.Validate().IsInvalidArgument()) << FaultTypeName(type);
    } else {
      // Point faults carry no window: duration 0 is their normal shape.
      EXPECT_TRUE(plan.Validate().ok()) << FaultTypeName(type);
    }
  }
}

TEST(EventTraceTest, FingerprintIsOrderSensitive) {
  obs::EventStream a, b;
  a.Record(0, "x");
  a.Record(kSecond, "y");
  b.Record(kSecond, "y");
  b.Record(0, "x");
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.size(), 2u);

  obs::EventStream c;
  c.Record(0, "x");
  c.Record(kSecond, "y");
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
  EXPECT_EQ(a.ToString(), c.ToString());
}

}  // namespace
}  // namespace pstore
