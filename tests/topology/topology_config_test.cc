#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "topology/topology.h"

/// Dedicated unit tests for TopologyConfig::Validate — the table-driven
/// rejection suite every subsystem config carries, plus the acceptance
/// rows documenting the knob ranges that must keep working.

namespace pstore {
namespace {

TEST(TopologyConfigTest, DefaultsAreValidAndDisabled) {
  topology::TopologyConfig config;
  EXPECT_FALSE(config.enabled);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(TopologyConfigTest, ValidateAcceptsWorkingRangesTableDriven) {
  struct Case {
    const char* what;
    std::function<void(topology::TopologyConfig*)> mutate;
  };
  const std::vector<Case> cases = {
      {"single domain (diversity vacuously satisfied)",
       [](topology::TopologyConfig* c) { c->num_domains = 1; }},
      {"many domains",
       [](topology::TopologyConfig* c) { c->num_domains = 64; }},
      {"enabled with defaults",
       [](topology::TopologyConfig* c) { c->enabled = true; }},
  };
  for (const Case& test : cases) {
    topology::TopologyConfig config;
    test.mutate(&config);
    EXPECT_TRUE(config.Validate().ok()) << test.what;
  }
}

TEST(TopologyConfigTest, ValidateRejectsBadKnobsTableDriven) {
  struct Case {
    const char* what;
    std::function<void(topology::TopologyConfig*)> mutate;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"num_domains zero",
       [](topology::TopologyConfig* c) { c->num_domains = 0; },
       "num_domains must be >= 1"},
      {"num_domains negative",
       [](topology::TopologyConfig* c) { c->num_domains = -3; },
       "num_domains must be >= 1"},
      {"bad knobs rejected even when disabled",
       [](topology::TopologyConfig* c) {
         c->enabled = false;
         c->num_domains = 0;
       },
       "num_domains must be >= 1"},
  };
  for (const Case& test : cases) {
    topology::TopologyConfig config;
    test.mutate(&config);
    const Status status = config.Validate();
    EXPECT_TRUE(status.IsInvalidArgument()) << test.what;
    EXPECT_NE(status.ToString().find(test.error), std::string::npos)
        << test.what << ": got " << status.ToString();
  }
}

}  // namespace
}  // namespace pstore
