#include "common/linalg.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pstore {
namespace {

TEST(MatrixTest, Indexing) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 2) = 5;
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 2), 5);
  EXPECT_DOUBLE_EQ(m(0, 1), 0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(MatrixTest, GramIsTransposeTimesSelf) {
  Matrix m(3, 2);
  // Columns: [1,2,3], [4,5,6].
  m(0, 0) = 1; m(0, 1) = 4;
  m(1, 0) = 2; m(1, 1) = 5;
  m(2, 0) = 3; m(2, 1) = 6;
  Matrix g = m.Gram();
  EXPECT_DOUBLE_EQ(g(0, 0), 14);   // 1+4+9
  EXPECT_DOUBLE_EQ(g(0, 1), 32);   // 4+10+18
  EXPECT_DOUBLE_EQ(g(1, 0), 32);
  EXPECT_DOUBLE_EQ(g(1, 1), 77);   // 16+25+36
}

/// The row-at-a-time fold FoldGramRows must reproduce: every row adds
/// into the upper triangle, skipping entry i's products when x_i == 0
/// and the target's when y == 0.
void RowAtATimeFold(const Matrix& x, const std::vector<double>& y,
                    size_t begin, size_t end, Matrix* gram,
                    std::vector<double>* xty) {
  for (size_t r = begin; r < end; ++r) {
    for (size_t i = 0; i < x.cols(); ++i) {
      const double xi = x(r, i);
      if (xi == 0.0) continue;
      for (size_t j = i; j < x.cols(); ++j) (*gram)(i, j) += xi * x(r, j);
    }
    if (y[r] == 0.0) continue;
    for (size_t c = 0; c < x.cols(); ++c) (*xty)[c] += x(r, c) * y[r];
  }
}

/// Bit equality, except that any NaN equals any NaN: IEEE leaves the
/// sign and payload of a NaN from two NaN operands unspecified.
bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Rows of mixed-sign values with zeros (-0.0 too) sprinkled in, and,
/// if `special`, NaNs and infinities.
Matrix FoldInput(size_t rows, size_t dim, bool special, Rng* rng) {
  Matrix x(rows, dim);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < dim; ++c) {
      const uint64_t kind = rng->NextBounded(20);
      double v = rng->NextGaussian(0.0, 100.0);
      if (kind == 0) v = 0.0;
      if (kind == 1) v = -0.0;
      if (special && kind == 2) v = std::nan("");
      if (special && kind == 3) {
        v = rng->NextBernoulli(0.5) ? HUGE_VAL : -HUGE_VAL;
      }
      x(r, c) = v;
    }
  }
  return x;
}

// FoldGramRows equals the row-at-a-time loop bit for bit: every
// dimension from 1 to 40 (edge tiles of every width), row counts that
// are not a multiple of the tile or of the block, zero, negative, NaN
// and infinite entries, and folds split across several calls, as
// SPAR's Refit extends its sums.
TEST(MatrixTest, BlockedFoldEqualsRowAtATimeBitForBit) {
  Rng rng(2024);
  for (size_t dim = 1; dim <= 40; ++dim) {
    for (const size_t rows : {1u, 3u, 64u, 65u, 203u}) {
      for (const bool special : {false, true}) {
        SCOPED_TRACE("dim=" + std::to_string(dim) +
                     " rows=" + std::to_string(rows) +
                     (special ? " with NaN/inf" : ""));
        const Matrix x = FoldInput(rows, dim, special, &rng);
        std::vector<double> y(rows);
        for (size_t r = 0; r < rows; ++r) {
          y[r] = r % 7 == 0 ? 0.0 : rng.NextGaussian(0.0, 10.0);
        }
        Matrix want(dim, dim);
        std::vector<double> want_xty(dim, 0.0);
        RowAtATimeFold(x, y, 0, rows, &want, &want_xty);

        // One call, then the same rows split at uneven points.
        for (const size_t split : {rows, std::max<size_t>(rows / 3, 1)}) {
          Matrix got(dim, dim);
          std::vector<double> got_xty(dim, 0.0);
          for (size_t begin = 0; begin < rows;) {
            const size_t n = std::min(rows - begin, split);
            FoldGramRows(x.data() + begin * dim, dim, y.data() + begin, n,
                         dim, &got, got_xty.data());
            begin += n;
          }
          for (size_t i = 0; i < dim; ++i) {
            for (size_t j = 0; j < dim; ++j) {
              // Only the upper triangle is written; the rest stays 0.
              const double expected = j >= i ? want(i, j) : 0.0;
              ASSERT_TRUE(SameBits(got(i, j), expected))
                  << "gram(" << i << ", " << j << ") split " << split
                  << ": " << got(i, j) << " vs " << expected;
            }
            ASSERT_TRUE(SameBits(got_xty[i], want_xty[i]))
                << "xty[" << i << "] split " << split;
          }
        }
      }
    }
  }
}

TEST(MatrixTest, GramFoldsWithoutTargets) {
  Rng rng(5);
  const Matrix x = FoldInput(130, 9, false, &rng);
  Matrix want(9, 9);
  std::vector<double> unused_xty(9, 0.0);
  RowAtATimeFold(x, std::vector<double>(130, 0.0), 0, 130, &want,
                 &unused_xty);
  const Matrix got = x.Gram();
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = i; j < 9; ++j) {
      EXPECT_TRUE(SameBits(got(i, j), want(i, j)));
      EXPECT_TRUE(SameBits(got(j, i), want(i, j)));
    }
  }
}

TEST(MatrixTest, TimesVector) {
  Matrix m(2, 2);
  m(0, 0) = 1; m(0, 1) = 2;
  m(1, 0) = 3; m(1, 1) = 4;
  const auto v = m.Times({1.0, 2.0});
  EXPECT_DOUBLE_EQ(v[0], 5);
  EXPECT_DOUBLE_EQ(v[1], 11);
}

TEST(SolveLinearSystemTest, Solves2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  auto x = SolveLinearSystem(a, {5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-9);
  EXPECT_NEAR((*x)[1], 3.0, 1e-9);
}

TEST(SolveLinearSystemTest, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  auto x = SolveLinearSystem(a, {2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-9);
  EXPECT_NEAR((*x)[1], 2.0, 1e-9);
}

TEST(SolveLinearSystemTest, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  auto x = SolveLinearSystem(a, {1.0, 2.0});
  EXPECT_FALSE(x.ok());
  EXPECT_TRUE(x.status().IsFailedPrecondition());
}

TEST(SolveLinearSystemTest, ShapeErrors) {
  EXPECT_TRUE(SolveLinearSystem(Matrix(2, 3), {1.0, 2.0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SolveLinearSystem(Matrix(2, 2), {1.0})
                  .status()
                  .IsInvalidArgument());
}

TEST(SolveLinearSystemTest, LargerRandomSystemRoundTrips) {
  Rng rng(5);
  const size_t n = 20;
  Matrix a(n, n);
  std::vector<double> truth(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = rng.NextGaussian();
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.NextGaussian();
    a(i, i) += 5.0;  // well-conditioned
  }
  const std::vector<double> b = a.Times(truth);
  auto x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], truth[i], 1e-8);
}

TEST(LeastSquaresTest, RecoversExactLinearModel) {
  // y = 2*x1 - 3*x2, no noise.
  Rng rng(6);
  Matrix a(50, 2);
  std::vector<double> b(50);
  for (size_t i = 0; i < 50; ++i) {
    a(i, 0) = rng.NextGaussian();
    a(i, 1) = rng.NextGaussian();
    b[i] = 2 * a(i, 0) - 3 * a(i, 1);
  }
  auto x = LeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-5);
  EXPECT_NEAR((*x)[1], -3.0, 1e-5);
}

TEST(LeastSquaresTest, NoisyModelCloseToTruth) {
  Rng rng(8);
  Matrix a(2000, 2);
  std::vector<double> b(2000);
  for (size_t i = 0; i < 2000; ++i) {
    a(i, 0) = rng.NextGaussian();
    a(i, 1) = rng.NextGaussian();
    b[i] = 1.5 * a(i, 0) + 0.5 * a(i, 1) + 0.1 * rng.NextGaussian();
  }
  auto x = LeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.5, 0.02);
  EXPECT_NEAR((*x)[1], 0.5, 0.02);
}

TEST(LeastSquaresTest, RidgeHandlesCollinearColumns) {
  // Two identical columns: unregularized normal equations are singular.
  Matrix a(10, 2);
  std::vector<double> b(10);
  for (size_t i = 0; i < 10; ++i) {
    a(i, 0) = static_cast<double>(i);
    a(i, 1) = static_cast<double>(i);
    b[i] = 2.0 * static_cast<double>(i);
  }
  auto x = LeastSquares(a, b, 1e-6);
  ASSERT_TRUE(x.ok());
  // Combined effect should reproduce y ~ 2x.
  EXPECT_NEAR((*x)[0] + (*x)[1], 2.0, 1e-3);
}

TEST(LeastSquaresTest, EmptyInputsRejected) {
  EXPECT_TRUE(
      LeastSquares(Matrix(0, 0), {}).status().IsInvalidArgument());
  EXPECT_TRUE(LeastSquares(Matrix(3, 2), {1.0})
                  .status()
                  .IsInvalidArgument());
}

TEST(MeanRelativeErrorTest, PerfectPredictionIsZero) {
  EXPECT_DOUBLE_EQ(MeanRelativeError({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(MeanRelativeErrorTest, KnownError) {
  // |1.1-1|/1 = 0.1 and |1.8-2|/2 = 0.1 -> mean 0.1.
  EXPECT_NEAR(MeanRelativeError({1.1, 1.8}, {1.0, 2.0}), 0.1, 1e-12);
}

TEST(MeanRelativeErrorTest, SkipsNearZeroActuals) {
  EXPECT_NEAR(MeanRelativeError({5.0, 1.1}, {0.0, 1.0}), 0.1, 1e-12);
}

TEST(MeanRelativeErrorTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(MeanRelativeError({}, {}), 0.0);
}

}  // namespace
}  // namespace pstore
