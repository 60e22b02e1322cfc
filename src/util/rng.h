#ifndef CPDG_UTIL_RNG_H_
#define CPDG_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace cpdg {

/// \brief Deterministic 64-bit PRNG (SplitMix64 core, PCG-style output).
///
/// Every stochastic component of the library takes an explicit Rng so that
/// runs are bit-reproducible for a given seed, independent of call order in
/// unrelated components. The generator is small enough to copy freely.
class Rng {
 public:
  /// Constructs a generator from a seed; identical seeds give identical
  /// streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) : state_(seed) {
    // Warm up so that low-entropy seeds (0, 1, 2, ...) diverge immediately.
    NextUint64();
    NextUint64();
  }

  /// \brief Next raw 64-bit value (SplitMix64).
  uint64_t NextUint64() {
    state_ += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// \brief Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// \brief Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }

  /// \brief Uniform integer in [0, bound). Requires bound > 0.
  uint64_t NextBounded(uint64_t bound) {
    CPDG_CHECK_GT(bound, 0u);
    // Rejection-free modulo bias is negligible for our bounds (<< 2^32),
    // but use Lemire's multiply-shift to avoid it anyway.
    unsigned __int128 m =
        static_cast<unsigned __int128>(NextUint64()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  /// \brief Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi) {
    CPDG_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// \brief Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// \brief Standard normal sample (Box-Muller, one value per call).
  double NextGaussian();

  /// \brief Bernoulli(p) sample.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// \brief Exponential(rate) sample; rate > 0.
  double NextExponential(double rate);

  /// \brief Poisson(mean) sample via inversion (suitable for small means).
  int NextPoisson(double mean);

  /// \brief Samples an index in [0, weights.size()) proportionally to
  /// weights. Weights must be non-negative with a positive sum.
  size_t NextWeighted(const std::vector<double>& weights);

  /// \brief Zipf-like sample over [0, n): P(i) proportional to
  /// 1/(i+1)^exponent. Used for power-law item popularity.
  size_t NextZipf(size_t n, double exponent);

  /// \brief Fisher-Yates shuffles the vector in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = NextBounded(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief Derives an independent child generator; useful for splitting a
  /// seed across components without correlating their streams.
  Rng Split() { return Rng(NextUint64() ^ 0xD1B54A32D192ED03ULL); }

  /// \brief Derives the generator for substream (a, b) of `seed` without
  /// advancing any other generator. Used by the chronological train loop
  /// to give batch (epoch=a, batch_index=b) its own stream: the stream
  /// depends only on the coordinates, so a batch's content is a pure
  /// function of its position, whatever ran before it.
  static Rng ForSubstream(uint64_t seed, uint64_t a, uint64_t b) {
    // Two rounds of the SplitMix64 finalizer over (seed, a, b); the odd
    // multiplicative constants decorrelate neighbouring coordinates.
    uint64_t z = seed ^ (a + 1) * 0xD1B54A32D192ED03ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z ^= (b + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// \brief Complete generator state, checkpointable so a resumed training
  /// run draws the identical stream an uninterrupted run would have. The
  /// Box-Muller cache is part of the state: NextGaussian emits values in
  /// pairs and the spare must survive a checkpoint boundary.
  struct State {
    uint64_t state = 0;
    bool has_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };

  State GetState() const {
    return {state_, has_cached_gaussian_, cached_gaussian_};
  }

  void SetState(const State& s) {
    state_ = s.state;
    has_cached_gaussian_ = s.has_cached_gaussian;
    cached_gaussian_ = s.cached_gaussian;
  }

 private:
  uint64_t state_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace cpdg

#endif  // CPDG_UTIL_RNG_H_
