#include "net/net_config.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace pstore {
namespace {

using net::NetConfig;

TEST(NetConfigTest, DefaultsValidate) {
  EXPECT_TRUE(NetConfig().Validate().ok());
}

TEST(NetConfigTest, ValidateRejectsBadKnobsTableDriven) {
  // Every field Validate checks, one row each: the mutation applied to
  // an otherwise-default config and the error it must produce. A new
  // knob without a row (and a rejection message) shows up as a gap
  // here before it ships unvalidated.
  struct Case {
    const char* what;
    std::function<void(NetConfig*)> mutate;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"suspicion at heartbeat",
       [](NetConfig* c) { c->suspicion_timeout = net::kHeartbeatPeriod; },
       "need heartbeat < suspicion_timeout"},
      {"lease at suspicion",
       [](NetConfig* c) { c->lease_timeout = c->suspicion_timeout; },
       "need suspicion_timeout < lease_timeout"},
      {"lease below suspicion",
       [](NetConfig* c) { c->lease_timeout = c->suspicion_timeout / 2; },
       "need suspicion_timeout < lease_timeout"},
      {"failover at lease",
       [](NetConfig* c) { c->failover_timeout = c->lease_timeout; },
       "need lease_timeout < failover_timeout"},
  };
  for (const Case& test : cases) {
    NetConfig config;
    test.mutate(&config);
    const Status status = config.Validate();
    EXPECT_TRUE(status.IsInvalidArgument()) << test.what;
    EXPECT_NE(status.ToString().find(test.error), std::string::npos)
        << test.what << ": got " << status.ToString();
  }
}

TEST(NetConfigTest, TimerChainValidatesWhenStrictlyOrdered) {
  // The safety argument rests on heartbeat < suspicion < lease <
  // failover; any strictly ordered chain must pass, however tight.
  NetConfig config;
  config.suspicion_timeout = net::kHeartbeatPeriod + 1;
  config.lease_timeout = net::kHeartbeatPeriod + 2;
  config.failover_timeout = net::kHeartbeatPeriod + 3;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace pstore
