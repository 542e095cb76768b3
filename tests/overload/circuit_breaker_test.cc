#include "overload/circuit_breaker.h"

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace pstore {
namespace overload {
namespace {

// Times below are in milliseconds of the breaker's 1 s window.
constexpr SimTime Ms(int64_t ms) { return ms * kMillisecond; }

BreakerConfig TestConfig() {
  BreakerConfig config;
  config.shed_threshold = 0.5;
  config.min_samples = 10;
  config.cooldown = Ms(5000);
  return config;
}

TEST(CircuitBreakerTest, StartsClosed) {
  CircuitBreaker breaker(TestConfig());
  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  EXPECT_FALSE(breaker.IsOpen(Ms(100)));
  EXPECT_EQ(breaker.trips(), 0);
}

TEST(CircuitBreakerTest, TripsOnSustainedShedRate) {
  CircuitBreaker breaker(TestConfig());
  for (int i = 0; i < 8; ++i) breaker.RecordAdmitted(Ms(100));
  for (int i = 0; i < 12; ++i) breaker.RecordShed(Ms(200));
  // 12/20 shed > 0.5: the window closing at t=1000 trips the breaker.
  EXPECT_EQ(breaker.state(Ms(999)), BreakerState::kClosed);
  EXPECT_EQ(breaker.state(Ms(1000)), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, ThresholdIsStrict) {
  CircuitBreaker breaker(TestConfig());
  for (int i = 0; i < 10; ++i) breaker.RecordAdmitted(Ms(100));
  for (int i = 0; i < 10; ++i) breaker.RecordShed(Ms(200));
  // Exactly at the threshold (10/20 = 0.5) does not trip.
  EXPECT_EQ(breaker.state(Ms(2000)), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, MinSamplesSuppressesNoisyWindows) {
  CircuitBreaker breaker(TestConfig());
  // 100% shed, but only n = 9.
  for (int i = 0; i < 9; ++i) breaker.RecordShed(Ms(100));
  EXPECT_EQ(breaker.state(Ms(5000)), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0);
}

TEST(CircuitBreakerTest, CooldownHalfOpensThenHealthyProbeCloses) {
  CircuitBreaker breaker(TestConfig());
  for (int i = 0; i < 20; ++i) breaker.RecordShed(Ms(100));
  ASSERT_EQ(breaker.state(Ms(1000)), BreakerState::kOpen);
  // Open until window end (1000) + cooldown (5000).
  EXPECT_EQ(breaker.state(Ms(5999)), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(Ms(6000)), BreakerState::kHalfOpen);
  // A healthy probe window closes the breaker at its boundary.
  for (int i = 0; i < 15; ++i) breaker.RecordAdmitted(Ms(6100));
  EXPECT_EQ(breaker.state(Ms(7000)), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, UnhealthyProbeReopens) {
  CircuitBreaker breaker(TestConfig());
  for (int i = 0; i < 20; ++i) breaker.RecordShed(Ms(100));
  ASSERT_EQ(breaker.state(Ms(6000)), BreakerState::kHalfOpen);
  for (int i = 0; i < 20; ++i) breaker.RecordShed(Ms(6100));
  EXPECT_EQ(breaker.state(Ms(7000)), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
}

TEST(CircuitBreakerTest, EmptyProbeWindowsKeepProbing) {
  CircuitBreaker breaker(TestConfig());
  for (int i = 0; i < 20; ++i) breaker.RecordShed(Ms(100));
  ASSERT_EQ(breaker.state(Ms(6000)), BreakerState::kHalfOpen);
  // No traffic at all: closing on no evidence would mask a saturated
  // node whose clients have backed off, so the breaker stays half-open.
  EXPECT_EQ(breaker.state(Ms(20000)), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, StateChangeObserverSeesLogicalTimes) {
  CircuitBreaker breaker(TestConfig());
  std::vector<std::tuple<SimTime, BreakerState, BreakerState>> changes;
  breaker.set_on_state_change(
      [&](SimTime at, BreakerState from, BreakerState to) {
        changes.emplace_back(at, from, to);
      });
  for (int i = 0; i < 20; ++i) breaker.RecordShed(Ms(100));
  // Observed late: the transitions still carry their logical times
  // (window boundary 1000, cooldown expiry 6000), not the call time.
  breaker.state(Ms(9000));
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0], std::make_tuple(Ms(1000), BreakerState::kClosed,
                                        BreakerState::kOpen));
  EXPECT_EQ(changes[1], std::make_tuple(Ms(6000), BreakerState::kOpen,
                                        BreakerState::kHalfOpen));
}

TEST(CircuitBreakerTest, ConfigValidation) {
  BreakerConfig config = TestConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.shed_threshold = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = TestConfig();
  config.cooldown = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TestConfig();
  config.min_samples = 0;
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace overload
}  // namespace pstore
