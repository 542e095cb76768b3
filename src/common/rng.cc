#include "common/rng.h"

#include <algorithm>
#include <cassert>

#include "common/parallel.h"

namespace pstore {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless bounded sampling.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextLogSafeDouble() {
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return u;
}

namespace {

/// Box-Muller: the two standard normals of the uniforms u1 in
/// (1e-300, 1) and u2 in [0, 1). NextGaussian returns *first and keeps
/// *second as its spare; NextGaussians writes both.
inline void BoxMuller(double u1, double u2, double* first, double* second) {
  const double mag = std::sqrt(-2.0 * std::log(u1));
  *second = mag * std::sin(2.0 * M_PI * u2);
  *first = mag * std::cos(2.0 * M_PI * u2);
}

/// Box-Muller pairs one ParallelFor index transforms.
constexpr size_t kGaussianPairsPerChunk = 4096;

}  // namespace

double Rng::NextGaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_gaussian_;
  }
  const double u1 = NextLogSafeDouble();
  const double u2 = NextDouble();
  double first = 0;
  BoxMuller(u1, u2, &first, &spare_gaussian_);
  has_spare_ = true;
  return first;
}

void Rng::NextGaussians(double* out, size_t n) {
  if (n > 0 && has_spare_) {
    *out++ = spare_gaussian_;
    --n;
    has_spare_ = false;
  }
  // Draw every pair's (u1, u2) in call order, then the odd last call's,
  // whose second normal becomes the spare.
  const size_t pairs = n / 2;
  for (size_t p = 0; p < pairs; ++p) {
    out[2 * p] = NextLogSafeDouble();
    out[2 * p + 1] = NextDouble();
  }
  if (n % 2 == 1) {
    const double u1 = NextLogSafeDouble();
    const double u2 = NextDouble();
    BoxMuller(u1, u2, &out[n - 1], &spare_gaussian_);
    has_spare_ = true;
  }
  const size_t chunks =
      (pairs + kGaussianPairsPerChunk - 1) / kGaussianPairsPerChunk;
  ParallelFor(static_cast<int64_t>(chunks), [out, pairs](int64_t c) {
    const size_t begin = static_cast<size_t>(c) * kGaussianPairsPerChunk;
    const size_t end = std::min(pairs, begin + kGaussianPairsPerChunk);
    for (double* pair = out + 2 * begin; pair != out + 2 * end; pair += 2) {
      BoxMuller(pair[0], pair[1], &pair[0], &pair[1]);
    }
  });
}

double Rng::NextExponential(double rate) {
  assert(rate > 0);
  return -std::log(NextLogSafeDouble()) / rate;
}

int64_t Rng::NextPoisson(double mean) {
  if (mean <= 0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until below e^-mean.
    const double limit = std::exp(-mean);
    double prod = 1.0;
    int64_t k = 0;
    do {
      ++k;
      prod *= NextDouble();
    } while (prod > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; exact enough for
  // workload synthesis at high rates.
  const double v = mean + std::sqrt(mean) * NextGaussian() + 0.5;
  return v < 0 ? 0 : static_cast<int64_t>(v);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

size_t Rng::NextDiscrete(const std::vector<double>& cumulative) {
  assert(!cumulative.empty());
  const double total = cumulative.back();
  assert(total > 0);
  const double u = NextDouble() * total;
  auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  if (it == cumulative.end()) --it;
  return static_cast<size_t>(it - cumulative.begin());
}

Rng Rng::Fork() { return Rng(Next()); }

uint64_t Rng::StateHash() const {
  // SplitMix64-style mixing of the four state words (plus the cached
  // Gaussian spare, whose presence is part of the observable state).
  uint64_t h = has_spare_ ? 0x9E3779B97F4A7C15ULL : 0;
  for (uint64_t word : s_) {
    h ^= word + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    uint64_t z = h;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    h = z ^ (z >> 31);
  }
  return h;
}

namespace {
/// Integral of x^-s, used by the rejection-inversion Zipf sampler.
double ZipfIntegral(double x, double s) {
  if (std::fabs(s - 1.0) < 1e-12) return std::log(x);
  return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
}
double ZipfIntegralInverse(double u, double s) {
  if (std::fabs(s - 1.0) < 1e-12) return std::exp(u);
  return std::pow(1.0 + u * (1.0 - s), 1.0 / (1.0 - s));
}
}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s > 0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s));
}

double ZipfGenerator::H(double x) const { return ZipfIntegral(x, s_); }
double ZipfGenerator::HInverse(double u) const {
  return ZipfIntegralInverse(u, s_);
}

uint64_t ZipfGenerator::Next(Rng* rng) const {
  if (n_ == 1) return 0;
  while (true) {
    const double u = h_n_ + rng->NextDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    double k = std::floor(x + 0.5);
    k = std::clamp(k, 1.0, static_cast<double>(n_));
    if (k - x <= threshold_) {
      return static_cast<uint64_t>(k) - 1;
    }
    if (u >= H(k + 0.5) - std::pow(k, -s_)) {
      return static_cast<uint64_t>(k) - 1;
    }
  }
}

std::vector<double> CumulativeWeights(const std::vector<double>& weights) {
  std::vector<double> cum;
  cum.reserve(weights.size());
  double total = 0;
  for (double w : weights) {
    total += std::max(0.0, w);
    cum.push_back(total);
  }
  return cum;
}

}  // namespace pstore
