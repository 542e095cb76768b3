#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"

/// \file linalg.h
/// Just enough dense linear algebra to fit the auto-regressive prediction
/// models (SPAR, AR, ARMA) by linear least squares, as Section 5 of the
/// paper prescribes ("parameters are inferred using linear least squares
/// regression over the training dataset").

namespace pstore {

/// \brief Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// The row-major elements: row r starts at data() + r * cols().
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Returns this^T * this (cols x cols), the Gram matrix.
  Matrix Gram() const;

  /// Returns this * x. Precondition: x.size() == cols().
  std::vector<double> Times(const std::vector<double>& x) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Rows FoldGramRows folds per pass over the Gram tiles; a caller that
/// builds its rows into a buffer of this many folds each buffer once.
inline constexpr size_t kGramBlockRows = 64;

/// Adds `rows` design rows into the normal equations of a least-squares
/// fit: for every row r (its `dim` values at x + r * stride),
///   gram(i, j) += x_r[i] * x_r[j]   for j >= i, unless x_r[i] == 0;
///   xty[c]     += x_r[c] * y[r]     unless y[r] == 0.
/// `gram` is dim x dim and only its upper triangle is read or written;
/// `y` and `xty` may both be null to fold the Gram matrix alone.
///
/// Rows are folded kGramBlockRows at a time, each block into one small
/// tile of sums at a time held in registers, so the sums are loaded and
/// stored once per block rather than once per row. Every element still
/// adds its rows one by one in row order with the same skips, so the
/// sums are bit-identical to the row-at-a-time loop, and a fold split
/// across several calls (rows 0..a, then a..b) equals one call.
void FoldGramRows(const double* x, size_t stride, const double* y,
                  size_t rows, size_t dim, Matrix* gram, double* xty);

/// Copies the upper triangle of a square matrix onto its lower one.
void MirrorUpperTriangle(Matrix* m);

/// Solves the square linear system A x = b in place using Gaussian
/// elimination with partial pivoting. Returns InvalidArgument on shape
/// mismatch and FailedPrecondition if A is (numerically) singular.
Result<std::vector<double>> SolveLinearSystem(Matrix a,
                                              std::vector<double> b);

/// Solves the least-squares problem min_x ||A x - b||_2 via the normal
/// equations with Tikhonov (ridge) regularization:
///   (A^T A + ridge * I) x = A^T b.
/// A small ridge (default 1e-8, scaled by the Gram diagonal) keeps the
/// solve stable when regressors are collinear. Requires rows >= 1 and
/// cols >= 1.
Result<std::vector<double>> LeastSquares(const Matrix& a,
                                         const std::vector<double>& b,
                                         double ridge = 1e-8);

/// Solves (gram + ridge * scaled I) x = rhs, the tail of LeastSquares
/// for callers that maintain A^T A and A^T b incrementally (e.g. SPAR's
/// per-tick refit). `gram` must be the full symmetric Gram matrix;
/// ridge scaling matches LeastSquares exactly, so a solution computed
/// from incrementally accumulated normal equations is bit-identical to
/// the full-design-matrix path.
Result<std::vector<double>> SolveNormalEquations(Matrix gram,
                                                 std::vector<double> rhs,
                                                 double ridge = 1e-8);

/// Mean relative error between predictions and actuals, as used for the
/// paper's accuracy plots (Figures 5b and 6b):
///   MRE = mean_i |pred_i - actual_i| / actual_i
/// Pairs whose |actual| falls below `min_denominator` are skipped to keep
/// the metric finite on near-zero loads. Returns 0 for empty input.
double MeanRelativeError(const std::vector<double>& predicted,
                         const std::vector<double>& actual,
                         double min_denominator = 1e-9);

}  // namespace pstore
