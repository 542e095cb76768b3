#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pstore {
namespace {

int64_t HardwareThreads() {
  return std::max<int64_t>(1, std::thread::hardware_concurrency());
}

/// A body with enough work per index that indices really overlap.
uint64_t Mix(int64_t i) {
  uint64_t x = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL + 1;
  for (int round = 0; round < 2000; ++round) {
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ULL;
  }
  return x;
}

/// Every index in [0, n) runs exactly once and writes its own slot.
void ExpectEachIndexOnce(int64_t n) {
  std::vector<std::atomic<int32_t>> calls(static_cast<size_t>(n));
  std::vector<int64_t> slot(static_cast<size_t>(n), -1);
  ParallelFor(n, [&](int64_t i) {
    calls[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    slot[static_cast<size_t>(i)] = i * 3 + 1;
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(calls[static_cast<size_t>(i)].load(), 1) << "index " << i;
    EXPECT_EQ(slot[static_cast<size_t>(i)], i * 3 + 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroItemsRunsNothing) {
  int64_t calls = 0;
  ParallelFor(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, OneItemRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  int64_t calls = 0;
  ParallelFor(1, [&](int64_t i) {
    EXPECT_EQ(i, 0);
    ran_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelForTest, HardwareThreadCountItemsEachRunOnce) {
  ExpectEachIndexOnce(HardwareThreads());
}

TEST(ParallelForTest, TenTimesHardwareThreadsItemsEachRunOnce) {
  ExpectEachIndexOnce(10 * HardwareThreads());
}

TEST(ParallelForTest, ResultsEqualASerialLoop) {
  const int64_t n = 10 * HardwareThreads() + 3;
  std::vector<uint64_t> serial(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) serial[static_cast<size_t>(i)] = Mix(i);
  std::vector<uint64_t> fanned(static_cast<size_t>(n));
  ParallelFor(n, [&](int64_t i) { fanned[static_cast<size_t>(i)] = Mix(i); });
  EXPECT_EQ(fanned, serial);
}

TEST(ParallelForTest, NestedCallsComplete) {
  const int64_t outer = HardwareThreads() + 1;
  const int64_t inner = 2 * HardwareThreads() + 1;
  std::vector<std::vector<uint64_t>> out(static_cast<size_t>(outer));
  ParallelFor(outer, [&](int64_t i) {
    std::vector<uint64_t>& row = out[static_cast<size_t>(i)];
    row.assign(static_cast<size_t>(inner), 0);
    ParallelFor(inner, [&](int64_t j) {
      row[static_cast<size_t>(j)] = Mix(i * inner + j);
    });
  });
  for (int64_t i = 0; i < outer; ++i) {
    for (int64_t j = 0; j < inner; ++j) {
      EXPECT_EQ(out[static_cast<size_t>(i)][static_cast<size_t>(j)],
                Mix(i * inner + j));
    }
  }
}

}  // namespace
}  // namespace pstore
