#include "common/linalg.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace pstore {

namespace {

/// Gram tiles are kTile x kTile sums: 16 doubles, which stay in
/// registers while a block of rows streams past them.
constexpr size_t kTile = 4;

/// Two doubles that add and multiply lane by lane, each lane rounding
/// exactly as a scalar double operation does.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

/// Folds `rows` rows into an NI x NJ tile of sums:
///   out[ii * out_stride + jj] += left_r[ii] * right_r[jj]
/// over r in row order, skipping (r, ii) when left_r[ii] == 0, where
/// row r's values start at left + r * left_stride and right + r *
/// right_stride. A `diagonal` tile stores only jj >= ii (the upper
/// triangle); the sums below it are computed and dropped. Columns are
/// summed two at a time in Pairs, an odd last one alone; the unrolled
/// loops index the sums by constants only, so they stay in registers.
template <size_t NI, size_t NJ>
void FoldTile(const double* left, size_t left_stride, const double* right,
              size_t right_stride, size_t rows, double* out,
              size_t out_stride, bool diagonal) {
  constexpr size_t kPairs = NJ / 2;
  constexpr bool kLone = NJ % 2 == 1;
  Pair pairs[NI][kPairs + 1] = {};  // + 1: never zero-sized
  double lone[NI] = {};
#pragma GCC unroll 4
  for (size_t ii = 0; ii < NI; ++ii) {
    const double* o = out + ii * out_stride;
#pragma GCC unroll 2
    for (size_t p = 0; p < kPairs; ++p) {
      pairs[ii][p] = Pair{o[2 * p], o[2 * p + 1]};
    }
    if constexpr (kLone) lone[ii] = o[NJ - 1];
  }
  for (size_t r = 0; r < rows; ++r) {
    const double* lr = left + r * left_stride;
    const double* rr = right + r * right_stride;
    Pair rp[kPairs + 1] = {};
#pragma GCC unroll 2
    for (size_t p = 0; p < kPairs; ++p) {
      std::memcpy(&rp[p], rr + 2 * p, sizeof(Pair));
    }
#pragma GCC unroll 4
    for (size_t ii = 0; ii < NI; ++ii) {
      const double li = lr[ii];
      if (li == 0.0) continue;
      const Pair lp = {li, li};
#pragma GCC unroll 2
      for (size_t p = 0; p < kPairs; ++p) pairs[ii][p] += lp * rp[p];
      if constexpr (kLone) lone[ii] += li * rr[NJ - 1];
    }
  }
#pragma GCC unroll 4
  for (size_t ii = 0; ii < NI; ++ii) {
    double* o = out + ii * out_stride;
    for (size_t jj = diagonal ? ii : 0; jj < NJ; ++jj) {
      o[jj] = jj / 2 < kPairs ? pairs[ii][jj / 2][jj % 2] : lone[ii];
    }
  }
}

using TileFn = void (*)(const double*, size_t, const double*, size_t, size_t,
                        double*, size_t, bool);

/// kTileFns[ni - 1][nj - 1] folds an ni x nj tile; the edge tiles of a
/// dimension that is not a multiple of kTile are the smaller ones.
constexpr TileFn kTileFns[kTile][kTile] = {
    {FoldTile<1, 1>, FoldTile<1, 2>, FoldTile<1, 3>, FoldTile<1, 4>},
    {FoldTile<2, 1>, FoldTile<2, 2>, FoldTile<2, 3>, FoldTile<2, 4>},
    {FoldTile<3, 1>, FoldTile<3, 2>, FoldTile<3, 3>, FoldTile<3, 4>},
    {FoldTile<4, 1>, FoldTile<4, 2>, FoldTile<4, 3>, FoldTile<4, 4>},
};

}  // namespace

void FoldGramRows(const double* x, size_t stride, const double* y,
                  size_t rows, size_t dim, Matrix* gram, double* xty) {
  assert(gram->rows() == dim && gram->cols() == dim);
  assert((y == nullptr) == (xty == nullptr));
  double* g = gram->data();
  for (size_t r0 = 0; r0 < rows; r0 += kGramBlockRows) {
    const size_t n = std::min(kGramBlockRows, rows - r0);
    const double* block = x + r0 * stride;
    for (size_t i0 = 0; i0 < dim; i0 += kTile) {
      const size_t ni = std::min(kTile, dim - i0);
      for (size_t j0 = i0; j0 < dim; j0 += kTile) {
        const size_t nj = std::min(kTile, dim - j0);
        kTileFns[ni - 1][nj - 1](block + i0, stride, block + j0, stride, n,
                                 g + i0 * dim + j0, dim, i0 == j0);
      }
    }
    if (y == nullptr) continue;
    for (size_t j0 = 0; j0 < dim; j0 += kTile) {
      const size_t nj = std::min(kTile, dim - j0);
      kTileFns[0][nj - 1](y + r0, 1, block + j0, stride, n, xty + j0, 0,
                          false);
    }
  }
}

void MirrorUpperTriangle(Matrix* m) {
  for (size_t i = 0; i < m->rows(); ++i) {
    for (size_t j = 0; j < i; ++j) (*m)(i, j) = (*m)(j, i);
  }
}

Matrix Matrix::Gram() const {
  Matrix g(cols_, cols_, 0.0);
  FoldGramRows(data_.data(), cols_, nullptr, rows_, cols_, &g, nullptr);
  MirrorUpperTriangle(&g);
  return g;
}

std::vector<double> Matrix::Times(const std::vector<double>& x) const {
  assert(x.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    double acc = 0;
    for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
  return out;
}

Result<std::vector<double>> SolveLinearSystem(Matrix a,
                                              std::vector<double> b) {
  const size_t n = a.rows();
  if (a.cols() != n) {
    return Status::InvalidArgument("SolveLinearSystem: matrix not square");
  }
  if (b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: rhs size mismatch");
  }
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot: pick the row with the largest magnitude in this column.
    size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(a(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return Status::FailedPrecondition(
          "SolveLinearSystem: matrix is singular");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) * inv;
      if (factor == 0.0) continue;
      a(r, col) = 0.0;
      for (size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

Result<std::vector<double>> LeastSquares(const Matrix& a,
                                         const std::vector<double>& b,
                                         double ridge) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("LeastSquares: empty design matrix");
  }
  if (b.size() != a.rows()) {
    return Status::InvalidArgument("LeastSquares: rhs size mismatch");
  }
  Matrix gram(a.cols(), a.cols(), 0.0);
  std::vector<double> xty(a.cols(), 0.0);
  FoldGramRows(a.data(), a.cols(), b.data(), a.rows(), a.cols(), &gram,
               xty.data());
  MirrorUpperTriangle(&gram);
  return SolveNormalEquations(std::move(gram), std::move(xty), ridge);
}

Result<std::vector<double>> SolveNormalEquations(Matrix gram,
                                                 std::vector<double> rhs,
                                                 double ridge) {
  if (gram.rows() == 0 || gram.rows() != gram.cols()) {
    return Status::InvalidArgument("SolveNormalEquations: bad gram shape");
  }
  if (rhs.size() != gram.rows()) {
    return Status::InvalidArgument("SolveNormalEquations: rhs size mismatch");
  }
  // Scale the ridge by the mean diagonal so it is unit-free.
  double diag_mean = 0;
  for (size_t i = 0; i < gram.rows(); ++i) diag_mean += gram(i, i);
  diag_mean /= static_cast<double>(gram.rows());
  const double lambda = ridge * std::max(diag_mean, 1.0);
  for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += lambda;
  return SolveLinearSystem(std::move(gram), std::move(rhs));
}

double MeanRelativeError(const std::vector<double>& predicted,
                         const std::vector<double>& actual,
                         double min_denominator) {
  const size_t n = std::min(predicted.size(), actual.size());
  double total = 0;
  size_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    const double denom = std::fabs(actual[i]);
    if (denom < min_denominator) continue;
    total += std::fabs(predicted[i] - actual[i]) / denom;
    ++used;
  }
  return used == 0 ? 0.0 : total / static_cast<double>(used);
}

}  // namespace pstore
