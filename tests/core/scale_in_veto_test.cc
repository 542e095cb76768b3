#include "core/scale_in_veto.h"

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace pstore {
namespace {

using testing_util::SmallEngineConfig;
using testing_util::WithReplication;

/// One row per signal, each raised on an engine where every other
/// signal is clear: `raise` puts the engine into the row's state.
struct VetoCase {
  const char* name;
  EngineConfig config;
  std::function<void(ClusterEngine*, Simulator*)> raise;
  std::string want;
};

TEST(ScaleInVetoTest, ReportsEachSignal) {
  EngineConfig overload = SmallEngineConfig();
  overload.overload = testing_util::StickyBreakerOverload();
  EngineConfig replicated = WithReplication(SmallEngineConfig());
  replicated.initial_nodes = 3;
  EngineConfig net = replicated;
  net.net.enabled = true;
  EngineConfig topology = replicated;
  topology.topology.enabled = true;
  const VetoCase cases[] = {
      {"nothing blocking", replicated,
       [](ClusterEngine*, Simulator* sim) { sim->RunUntil(5 * kSecond); },
       ""},
      {"breaker open", overload,
       [](ClusterEngine* engine, Simulator* sim) {
         testing_util::TripBreaker(engine);
         sim->RunUntil(kSecond);
       },
       "circuit breaker open"},
      {"recovery in progress", replicated,
       [](ClusterEngine* engine, Simulator*) {
         ASSERT_TRUE(engine->CrashNode(2).ok());
       },
       "recovery in progress / degraded k-safety"},
      {"node suspected", net,
       [](ClusterEngine* engine, Simulator* sim) {
         // Leased, then silent past the suspicion timeout but short of
         // the lease's.
         sim->RunUntil(2 * kSecond);
         engine->net()->OpenPartition({2}, 10 * kSecond);
         sim->RunUntil(2 * kSecond + engine->config().net.suspicion_timeout +
                       2 * net::kHeartbeatPeriod);
       },
       "1 node(s) suspected unreachable"},
      {"node draining", topology,
       [](ClusterEngine* engine, Simulator*) {
         ASSERT_TRUE(engine->StartDrain(1, 30 * kSecond).ok());
       },
       "1 node(s) draining (impending revocation)"},
  };
  for (const VetoCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto db = testing_util::MakeKvDatabase();
    Simulator sim;
    ClusterEngine engine(&sim, db.catalog, db.registry, c.config);
    c.raise(&engine, &sim);
    EXPECT_EQ(ScaleInVeto(&engine), c.want);
  }
}

}  // namespace
}  // namespace pstore
