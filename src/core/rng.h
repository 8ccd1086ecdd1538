#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bikegraph {

/// \brief Deterministic 64-bit pseudo-random number generator
/// (xoshiro256**), seeded via SplitMix64.
///
/// Every stochastic component in the library (synthetic data generation,
/// Louvain node shuffling, label propagation) takes an explicit seed and
/// draws from an `Rng` instance so that experiments are reproducible
/// run-to-run and across platforms — the generator's output sequence is
/// fully specified, unlike `std::mt19937` + `std::*_distribution`, whose
/// distribution algorithms are implementation-defined.
class Rng {
 public:
  /// Seeds the generator. Two `Rng`s with the same seed produce identical
  /// sequences.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) using Lemire rejection; bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box–Muller (deterministic pairing).
  double NextGaussian();

  /// Normal with given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Exponential with the given rate (lambda > 0).
  double NextExponential(double lambda);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  int NextPoisson(double mean);

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive weights are treated as zero; requires a positive total.
  size_t NextWeighted(const std::vector<double>& weights);

  /// Samples an index from a cumulative table built by `CumulativeWeights`.
  /// Draws one `NextDouble()` and returns exactly the index `NextWeighted`
  /// would return for the same weights and the same generator state, in
  /// O(log n) instead of O(n). Requires a non-empty table with a positive
  /// last entry.
  size_t NextFromCumulative(std::span<const double> cdf);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// \brief Running sums of `weights` with non-positive weights treated as
/// zero: entry i is the clamped sum of weights [0, i]. The sums are taken in
/// the same order `Rng::NextWeighted` takes them, so the table's last entry
/// is bit-identical to its total and every boundary falls where its linear
/// scan would put it.
std::vector<double> CumulativeWeights(std::span<const double> weights);

}  // namespace bikegraph
