#include "overload/retry_budget.h"

#include <algorithm>
#include <cassert>

namespace pstore {
namespace overload {

void RetryBudget::OnRequest() {
  tokens_ = std::min(kTokenCap, tokens_ + kTokensPerRequest);
}

bool RetryBudget::TrySpend() {
  if (tokens_ < 1.0) {
    ++retries_denied_;
    return false;
  }
  tokens_ -= 1.0;
  ++retries_granted_;
  return true;
}

SimDuration RetryBudget::Backoff(int32_t attempt, Rng* rng) const {
  assert(attempt >= 1);
  double backoff = static_cast<double>(kBaseBackoff);
  for (int32_t i = 1; i < attempt && backoff < kMaxBackoff; ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, static_cast<double>(kMaxBackoff));
  if (rng != nullptr) backoff *= 1.0 - kJitter * rng->NextDouble();
  return std::max<SimDuration>(1, static_cast<SimDuration>(backoff));
}

}  // namespace overload
}  // namespace pstore
