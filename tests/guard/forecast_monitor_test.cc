#include "guard/forecast_monitor.h"

#include <string>

#include "gtest/gtest.h"
#include "obs/telemetry.h"

namespace pstore {
namespace guard {
namespace {

TEST(ForecastMonitorTest, StateNamesAreDistinct) {
  EXPECT_STREQ(GuardStateName(GuardState::kHealthy), "healthy");
  EXPECT_STREQ(GuardStateName(GuardState::kSuspect), "suspect");
  EXPECT_STREQ(GuardStateName(GuardState::kDiverged), "diverged");
}

TEST(ForecastMonitorTest, AccurateForecastsStayHealthy) {
  ForecastMonitor monitor;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(monitor.Observe(100.0 + (i % 3), 100.0),
              GuardState::kHealthy);
  }
  EXPECT_EQ(monitor.divergences(), 0);
  EXPECT_EQ(monitor.windows_observed(), 100);
  EXPECT_LT(monitor.ewma_abs_residual(), 0.1);
}

TEST(ForecastMonitorTest, LargeMissDivergesAfterHysteresis) {
  ForecastMonitor monitor;
  monitor.Observe(100.0, 100.0);
  // A 3x surge against a flat forecast: first alarming window is only
  // suspect evidence; the second confirms.
  EXPECT_EQ(monitor.Observe(300.0, 100.0), GuardState::kSuspect);
  EXPECT_EQ(monitor.Observe(300.0, 100.0), GuardState::kDiverged);
  EXPECT_EQ(monitor.divergences(), 1);
}

TEST(ForecastMonitorTest, OneSettledWindowClearsSuspicion) {
  ForecastMonitor monitor;
  monitor.Observe(300.0, 100.0);
  ASSERT_EQ(monitor.state(), GuardState::kSuspect);
  // Settling is enough to clear suspect (hysteresis binds only on the
  // costly transitions) — but the EWMA must first decay below the
  // suspect threshold.
  while (monitor.state() == GuardState::kSuspect) {
    monitor.Observe(100.0, 100.0);
  }
  EXPECT_EQ(monitor.state(), GuardState::kHealthy);
  EXPECT_EQ(monitor.divergences(), 0);
}

TEST(ForecastMonitorTest, SustainedSmallBiasTripsCusum) {
  ForecastMonitor monitor;
  // A persistent 40% under-forecast sits above k = 0.25 but below the
  // EWMA suspect threshold of 0.5, so the EWMA never alarms; it banks
  // 0.15 of CUSUM mass per window, and h = 1.5 trips after ten windows
  // plus the two-window diverge hysteresis.
  int windows = 0;
  while (monitor.state() != GuardState::kDiverged && windows < 100) {
    monitor.Observe(140.0, 100.0);
    EXPECT_LT(monitor.ewma_abs_residual(), kSuspectThreshold);
    ++windows;
  }
  EXPECT_EQ(monitor.state(), GuardState::kDiverged);
  EXPECT_GT(monitor.cusum_high(), kCusumH);
  EXPECT_DOUBLE_EQ(monitor.cusum_low(), 0.0);
}

TEST(ForecastMonitorTest, OverForecastTripsLowSideCusum) {
  ForecastMonitor monitor;
  // The mirror image: a 40% over-forecast, CUSUM-only on the low side.
  int windows = 0;
  while (monitor.state() != GuardState::kDiverged && windows < 100) {
    monitor.Observe(60.0, 100.0);
    EXPECT_LT(monitor.ewma_abs_residual(), kSuspectThreshold);
    ++windows;
  }
  EXPECT_EQ(monitor.state(), GuardState::kDiverged);
  EXPECT_GT(monitor.cusum_low(), kCusumH);
  EXPECT_DOUBLE_EQ(monitor.cusum_high(), 0.0);
}

TEST(ForecastMonitorTest, CusumCapBoundsRejoinInertia) {
  ForecastMonitor monitor;
  // A long surge must not bank unbounded mass: without the cap, 50
  // windows of residual 2.0 would take (2 - 0.25) * 50 / 0.25 = 350
  // settled windows to drain.
  for (int i = 0; i < 50; ++i) monitor.Observe(300.0, 100.0);
  EXPECT_EQ(monitor.state(), GuardState::kDiverged);
  EXPECT_LE(monitor.cusum_high(), kCusumCap);
  int settled = 0;
  while (monitor.state() == GuardState::kDiverged && settled < 100) {
    monitor.Observe(100.0, 100.0);
    ++settled;
  }
  EXPECT_EQ(monitor.state(), GuardState::kHealthy);
  // Cap drain (~(cap - h)/k windows) + EWMA decay + rejoin hysteresis:
  // well under 30 windows.
  EXPECT_LT(settled, 30);
}

TEST(ForecastMonitorTest, RejoinRequiresConsecutiveSettledWindows) {
  ForecastMonitor monitor;
  for (int i = 0; i < 3; ++i) monitor.Observe(300.0, 100.0);
  ASSERT_EQ(monitor.state(), GuardState::kDiverged);
  // Drain the trackers until individual windows stop alarming, then
  // interleave one alarming window: the settle streak must restart.
  while (monitor.ewma_abs_residual() > kSuspectThreshold ||
         monitor.cusum_high() > kCusumH) {
    monitor.Observe(100.0, 100.0);
  }
  EXPECT_EQ(monitor.state(), GuardState::kDiverged);  // Not enough yet.
  monitor.Observe(100.0, 100.0);
  monitor.Observe(400.0, 100.0);  // Alarm again: streak resets.
  EXPECT_EQ(monitor.state(), GuardState::kDiverged);
  int more = 0;
  while (monitor.state() == GuardState::kDiverged && more < 100) {
    monitor.Observe(100.0, 100.0);
    ++more;
  }
  EXPECT_EQ(monitor.state(), GuardState::kHealthy);
  EXPECT_GT(more, kRejoinWindows - 1);
  EXPECT_EQ(monitor.rejoins(), 1);
  // The surge's CUSUM mass is dropped on rejoin: carrying it over
  // would re-trip on the first post-rejoin window.
  EXPECT_DOUBLE_EQ(monitor.cusum_high(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.cusum_low(), 0.0);
}

TEST(ForecastMonitorTest, NearZeroForecastUsesRateFloor) {
  ForecastMonitor monitor;
  // predicted = 0: without the 1 txn/s floor the residual would be
  // infinite; with it, 0.5 txn/s observed is a residual of 0.5.
  monitor.Observe(0.5, 0.0);
  EXPECT_DOUBLE_EQ(monitor.ewma_abs_residual(), kEwmaAlpha * 0.5);
}

TEST(ForecastMonitorTest, MetricsTrackStateAndCounts) {
  obs::TelemetryBundle telemetry;
  ForecastMonitor monitor;
  monitor.set_telemetry(telemetry.view());
  for (int i = 0; i < 3; ++i) monitor.Observe(300.0, 100.0);
  const std::string dump = telemetry.metrics.DumpJson();
  EXPECT_NE(dump.find("guard.windows"), std::string::npos);
  EXPECT_NE(dump.find("guard.divergences"), std::string::npos);
  EXPECT_NE(dump.find("guard.cusum_high"), std::string::npos);
}

}  // namespace
}  // namespace guard
}  // namespace pstore
