// Deterministic pseudo-random number generation.
//
// All stochastic components (fault injection, Monte Carlo dependability
// evaluation, randomized property tests) draw from `Rng`, a PCG32-style
// generator seeded explicitly, so every experiment in EXPERIMENTS.md is
// bit-reproducible. No global RNG state exists anywhere in the framework.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/probability.h"

namespace fcm {

/// PCG-XSH-RR 64/32 generator. Small, fast, and statistically strong enough
/// for simulation workloads; not for cryptographic use.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Seeds the generator. Distinct `stream` values yield independent
  /// sequences for the same seed (used to decorrelate per-module fault
  /// processes that share an experiment seed).
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  /// Counter-based stream split: derives the `index`-th child generator as
  /// a pure function of this generator's *seeding identity* (seed, stream)
  /// and `index` — independent of how many values have been drawn since
  /// construction. Distinct indices yield distinct, decorrelated streams.
  /// This is the substream API behind the parallel Monte Carlo engine:
  /// work shard i always draws from substream(i), so results cannot depend
  /// on which thread executes the shard or in which order shards run.
  [[nodiscard]] Rng substream(std::uint64_t index) const noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return 0xFFFFFFFFu; }

  /// Next raw 32-bit value: one LCG step, and the XSH-RR output
  /// permutation of the pre-step state.
  result_type operator()() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform double in [0,1): two raw draws, high word first, 53 bits kept.
  double uniform() noexcept {
    const std::uint64_t hi = (*this)();
    const std::uint64_t lo = (*this)();
    const std::uint64_t bits = ((hi << 32) | lo) >> 11;
    return static_cast<double>(bits) * 0x1.0p-53;
  }

  /// Uniform double in [lo,hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0,n); requires n > 0. Unbiased (rejection method).
  std::uint32_t below(std::uint32_t n) noexcept;

  /// Uniform integer in [lo,hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p.
  bool chance(Probability p) noexcept { return uniform() < p.value(); }

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::uint32_t i = static_cast<std::uint32_t>(items.size()); i > 1;
         --i) {
      const std::uint32_t j = below(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derive an independent child generator (for per-entity streams).
  Rng fork() noexcept;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  // Seeding identity, retained so substream() is a pure function of
  // (seed, stream, index) rather than of the current draw position.
  std::uint64_t seed_;
  std::uint64_t stream_;
};

/// Sample k distinct indices from [0,n) without replacement.
std::vector<std::uint32_t> sample_without_replacement(Rng& rng,
                                                      std::uint32_t n,
                                                      std::uint32_t k);

}  // namespace fcm
