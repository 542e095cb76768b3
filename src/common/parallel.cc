#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace pstore {

void ParallelFor(int64_t n, const std::function<void(int64_t)>& body) {
  const int64_t hardware =
      std::max<int64_t>(1, std::thread::hardware_concurrency());
  const int64_t workers = std::min(n, hardware);
  if (workers <= 1) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<int64_t> next{0};
  const auto drain = [&] {
    for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      body(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers - 1));
  for (int64_t w = 1; w < workers; ++w) threads.emplace_back(drain);
  drain();
  for (std::thread& thread : threads) thread.join();
}

}  // namespace pstore
