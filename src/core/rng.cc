#include "core/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace bikegraph {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextExponential(double lambda) {
  assert(lambda > 0.0);
  double u = NextDouble();
  while (u <= 0.0) u = NextDouble();
  return -std::log(u) / lambda;
}

int Rng::NextPoisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction, clamped at zero.
    double v = NextGaussian(mean, std::sqrt(mean)) + 0.5;
    return v < 0.0 ? 0 : static_cast<int>(v);
  }
  const double limit = std::exp(-mean);
  double product = NextDouble();
  int count = 0;
  while (product > limit) {
    product *= NextDouble();
    ++count;
  }
  return count;
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  assert(total > 0.0);
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

size_t Rng::NextFromCumulative(std::span<const double> cdf) {
  assert(!cdf.empty() && cdf.back() > 0.0);
  // NextWeighted returns the first i with target < acc_i, and acc_i is
  // cdf[i]: that is upper_bound. A target at or past the total (rounding,
  // or NaN from an infinite total) falls back to the last index, as there.
  const double target = NextDouble() * cdf.back();
  const size_t i = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), target) - cdf.begin());
  return i < cdf.size() ? i : cdf.size() - 1;
}

std::vector<double> CumulativeWeights(std::span<const double> weights) {
  std::vector<double> cdf;
  cdf.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    acc += w > 0.0 ? w : 0.0;
    cdf.push_back(acc);
  }
  return cdf;
}

}  // namespace bikegraph
