#include "overload/retry_budget.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pstore {
namespace overload {
namespace {

TEST(RetryBudgetTest, StartsAtCapacityAndSpendsDown) {
  RetryBudget budget;
  EXPECT_DOUBLE_EQ(budget.tokens(), RetryBudget::kTokenCap);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(budget.TrySpend()) << i;
  EXPECT_FALSE(budget.TrySpend());  // empty
  EXPECT_EQ(budget.retries_granted(), 50);
  EXPECT_EQ(budget.retries_denied(), 1);
}

TEST(RetryBudgetTest, RequestsRefillUpToCap) {
  RetryBudget budget;
  while (budget.TrySpend()) {
  }
  // 0.1 tokens per fresh request: nine requests leave less than one
  // whole retry, eleven more than one.
  for (int i = 0; i < 9; ++i) budget.OnRequest();
  EXPECT_FALSE(budget.TrySpend());
  budget.OnRequest();
  budget.OnRequest();
  EXPECT_TRUE(budget.TrySpend());
  // The bucket clamps at the cap: a long healthy streak cannot bank an
  // unbounded retry burst.
  for (int i = 0; i < 1000; ++i) budget.OnRequest();
  EXPECT_DOUBLE_EQ(budget.tokens(), 50.0);
}

TEST(RetryBudgetTest, BackoffIsExponentialAndCapped) {
  RetryBudget budget;
  // No Rng: the unjittered 10 ms base doubling to the 1 s ceiling.
  EXPECT_EQ(budget.Backoff(1, nullptr), 10 * kMillisecond);
  EXPECT_EQ(budget.Backoff(2, nullptr), 20 * kMillisecond);
  EXPECT_EQ(budget.Backoff(3, nullptr), 40 * kMillisecond);
  EXPECT_EQ(budget.Backoff(7, nullptr), 640 * kMillisecond);
  EXPECT_EQ(budget.Backoff(8, nullptr), kSecond);  // clamped
  EXPECT_EQ(budget.Backoff(20, nullptr), kSecond);
}

TEST(RetryBudgetTest, JitterStaysInRangeAndNeverZero) {
  RetryBudget budget;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const SimDuration b = budget.Backoff(2, &rng);  // nominal 20 ms
    EXPECT_GE(b, 10 * kMillisecond);
    EXPECT_LE(b, 20 * kMillisecond);
  }
  // Half the backoff at most is jittered away, so no attempt's delay
  // reaches zero.
  for (int32_t attempt = 1; attempt <= 10; ++attempt) {
    const SimDuration nominal = budget.Backoff(attempt, nullptr);
    for (int i = 0; i < 20; ++i) {
      EXPECT_GE(budget.Backoff(attempt, &rng), nominal / 2) << attempt;
    }
  }
}

TEST(RetryBudgetTest, BackoffIsDeterministicPerSeed) {
  RetryBudget budget;
  Rng a(123), b(123), c(124);
  std::vector<SimDuration> seq_a, seq_b, seq_c;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    seq_a.push_back(budget.Backoff(attempt, &a));
    seq_b.push_back(budget.Backoff(attempt, &b));
    seq_c.push_back(budget.Backoff(attempt, &c));
  }
  EXPECT_EQ(seq_a, seq_b);  // same seed, same schedule
  EXPECT_NE(seq_a, seq_c);  // different seed diverges
}

TEST(RetryBudgetTest, PolicyValidation) {
  // The shipped policy keeps the invariants the arithmetic above relies
  // on: at least one attempt, a positive base no larger than the
  // ceiling, jitter that cannot cancel the whole backoff, and a bucket
  // that holds at least one whole retry.
  EXPECT_GE(RetryBudget::kMaxAttempts, 1);
  EXPECT_GE(RetryBudget::kBaseBackoff, 1);
  EXPECT_GE(RetryBudget::kMaxBackoff, RetryBudget::kBaseBackoff);
  EXPECT_GE(RetryBudget::kJitter, 0.0);
  EXPECT_LT(RetryBudget::kJitter, 1.0);
  EXPECT_GE(RetryBudget::kTokensPerRequest, 0.0);
  EXPECT_GE(RetryBudget::kTokenCap, 1.0);
}

}  // namespace
}  // namespace overload
}  // namespace pstore
