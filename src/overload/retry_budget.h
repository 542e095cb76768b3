#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/sim_time.h"

/// \file retry_budget.h
/// Client-side retry discipline for shed transactions: a token-bucket
/// retry budget (retries are a bounded fraction of fresh traffic, so a
/// shedding server is never answered with a retry storm) plus capped
/// exponential backoff with deterministic jitter drawn from a
/// pstore::Rng (same seed -> identical retry schedule).

namespace pstore {
namespace overload {

/// \brief Token bucket + jittered exponential backoff.
class RetryBudget {
 public:
  /// Total attempts per transaction, the initial submission included.
  static constexpr int32_t kMaxAttempts = 4;
  /// Backoff before the first retry; doubles per subsequent retry.
  static constexpr SimDuration kBaseBackoff = 10 * kMillisecond;
  /// Backoff ceiling.
  static constexpr SimDuration kMaxBackoff = kSecond;
  /// Fraction of the backoff randomized away: the delay is drawn
  /// uniformly from [backoff * (1 - kJitter), backoff].
  static constexpr double kJitter = 0.5;
  /// Retry tokens earned per fresh (non-retry) submission: at most one
  /// retry per ten fresh requests once the bucket drains.
  static constexpr double kTokensPerRequest = 0.1;
  /// Token bucket capacity (also the initial balance, so short shed
  /// bursts retry freely before the ratio clamps down).
  static constexpr double kTokenCap = 50.0;

  /// Credit the budget for one fresh submission.
  void OnRequest();

  /// Spend one token for a retry. False (and no state change beyond the
  /// denial counter) when the bucket is empty.
  bool TrySpend();

  /// Backoff before retry number `attempt` (1 = first retry), jittered
  /// through `rng`. Always >= 1 microsecond of virtual time.
  SimDuration Backoff(int32_t attempt, Rng* rng) const;

  double tokens() const { return tokens_; }
  int64_t retries_granted() const { return retries_granted_; }
  int64_t retries_denied() const { return retries_denied_; }

 private:
  double tokens_ = kTokenCap;
  int64_t retries_granted_ = 0;
  int64_t retries_denied_ = 0;
};

}  // namespace overload
}  // namespace pstore
