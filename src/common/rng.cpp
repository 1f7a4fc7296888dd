#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace fcm {

namespace {
// SplitMix64 finalizer: a bijective avalanche mix used to derive substream
// seeds. Bijectivity guarantees distinct inputs map to distinct outputs.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept
    : state_(0), inc_((stream << 1u) | 1u), seed_(seed), stream_(stream) {
  (*this)();
  state_ += seed;
  (*this)();
}

Rng Rng::substream(std::uint64_t index) const noexcept {
  // Pure in (seed_, stream_, index): never reads state_, so the result is
  // identical regardless of how many draws the parent has made. The seed
  // and stream of the child are independent bijective mixes, keeping
  // distinct indices on distinct streams (the PCG increment is derived from
  // the stream value, and splitmix64 is injective in `index` for a fixed
  // parent identity).
  const std::uint64_t child_seed = splitmix64(seed_ ^ splitmix64(index));
  const std::uint64_t child_stream =
      splitmix64(stream_ + 0x632BE59BD9B4E019ULL * (index + 1));
  return Rng(child_seed, child_stream);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint32_t Rng::below(std::uint32_t n) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  const std::uint32_t threshold = (-n) % n;
  for (;;) {
    const std::uint64_t product =
        static_cast<std::uint64_t>((*this)()) * static_cast<std::uint64_t>(n);
    if (static_cast<std::uint32_t>(product) >= threshold) {
      return static_cast<std::uint32_t>(product >> 32);
    }
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint32_t>(hi - lo + 1);
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::exponential(double rate) noexcept {
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::fork() noexcept {
  const std::uint64_t seed =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  const std::uint64_t stream =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  return Rng(seed, stream);
}

std::vector<std::uint32_t> sample_without_replacement(Rng& rng,
                                                      std::uint32_t n,
                                                      std::uint32_t k) {
  FCM_REQUIRE(k <= n, "cannot sample more items than the population size");
  std::vector<std::uint32_t> pool(n);
  for (std::uint32_t i = 0; i < n; ++i) pool[i] = i;
  // Partial Fisher–Yates: after k swaps the prefix is the sample.
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::uint32_t j = i + rng.below(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace fcm
