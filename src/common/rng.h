#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

/// \file rng.h
/// Deterministic pseudo-random number generation for simulation and
/// workload synthesis. All stochastic behaviour in the repository flows
/// through Rng so experiments are exactly reproducible from a seed.

namespace pstore {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
uint64_t SplitMix64(uint64_t* state);

/// \brief xoshiro256** PRNG with distribution helpers.
///
/// Small, fast, and high quality; state is seeded from a single 64-bit
/// seed via SplitMix64. Not thread-safe: use one Rng per logical stream.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 bits.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) using Lemire's bounded technique.
  /// Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached spare).
  double NextGaussian();

  /// Writes to out[0..n) exactly what n NextGaussian() calls would
  /// return and leaves the same spare and state. The uniforms are drawn
  /// in order into `out` itself; the Box-Muller transforms then run in
  /// place under ParallelFor, so a bulk draw needs no buffer but `out`.
  void NextGaussians(double* out, size_t n);

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Exponential with the given rate (mean 1/rate). Precondition: rate > 0.
  double NextExponential(double rate);

  /// Poisson-distributed count with the given mean. Uses Knuth's method
  /// for small means and a normal approximation for large ones.
  int64_t NextPoisson(double mean);

  /// True with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Samples an index from a discrete distribution given cumulative
  /// weights (last element is the total). Precondition: non-empty,
  /// non-decreasing, positive total.
  size_t NextDiscrete(const std::vector<double>& cumulative);

  /// Forks a new independent generator whose stream does not overlap in
  /// practice with this one (seeded from this generator's output).
  Rng Fork();

  /// A 64-bit digest of the generator's current state (without
  /// advancing it). Two runs that made identical draws have identical
  /// hashes — the determinism property tests compare these.
  uint64_t StateHash() const;

 private:
  /// Uniform double in (1e-300, 1): the first Box-Muller uniform and the
  /// exponential's, whose logarithms must be finite.
  double NextLogSafeDouble();

  uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_ = false;
};

/// Builds the cumulative weight vector NextDiscrete expects from raw
/// (non-negative) weights.
std::vector<double> CumulativeWeights(const std::vector<double>& weights);

/// \brief Approximate bounded Zipf(s) sampler over [0, n) without
/// precomputing the full distribution (rejection-inversion, after
/// W. Hormann & G. Derflinger). Suitable for page-popularity style
/// workloads with millions of items.
class ZipfGenerator {
 public:
  /// \param n number of items (>= 1)
  /// \param s skew exponent (> 0; ~1 for web page popularity)
  ZipfGenerator(uint64_t n, double s);

  /// Draws a rank in [0, n); rank 0 is the most popular item.
  uint64_t Next(Rng* rng) const;

  uint64_t n() const { return n_; }
  double s() const { return s_; }

 private:
  double H(double x) const;
  double HInverse(double u) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
};

}  // namespace pstore
