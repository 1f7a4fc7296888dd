#include "core/separation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "graph/series.h"
#include "obs/obs.h"

namespace fcm::core {

SeparationAnalysis::SeparationAnalysis(const InfluenceModel& model,
                                       SeparationOptions options)
    : SeparationAnalysis(model.to_matrix(), options) {}

SeparationAnalysis::SeparationAnalysis(const graph::Matrix& influence_matrix,
                                       SeparationOptions options)
    : series_(graph::power_series_sum(
          influence_matrix, {.max_order = options.max_order,
                             .epsilon = options.epsilon,
                             .threads = options.threads})) {}

double SeparationAnalysis::interaction(std::size_t i, std::size_t j) const {
  return series_.at(i, j);
}

Probability SeparationAnalysis::separation(std::size_t i,
                                           std::size_t j) const {
  if (i == j) return Probability::zero();
  return Probability::clamped(1.0 - series_.at(i, j));
}

Probability SeparationAnalysis::min_separation() const {
  FCM_REQUIRE(series_.size() >= 2, "separation needs at least two members");
  // Min over the off-diagonal separations under the Probability::clamped
  // rule (NaN -> 0, then clamp to [0,1]); min over clamped values does not
  // depend on the scan order.
  const std::size_t n = series_.size();
  const double* data = series_.data();
  double min_value = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double c = 1.0 - data[i * n + j];
      min_value = std::min(min_value, std::isnan(c) ? 0.0
                                                    : std::clamp(c, 0.0, 1.0));
    }
  }
  return Probability::clamped(min_value);
}

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash = (hash ^ (value & 0xFFu)) * kFnvPrime;
    value >>= 8u;
  }
  return hash;
}

std::uint64_t bits_of(double value) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t model_key(const InfluenceModel& model) {
  // Content identity: hash the influence matrix the analysis is actually
  // computed from. The previous address-x-revision key had an ABA hazard —
  // a destroyed model whose heap address was reused by a fresh model at the
  // same revision count resurrected the dead model's entry. Content keying
  // cannot dangle (and lets two equal models share one entry). to_matrix()
  // walks the model's recorded pairs once per query; the raw-matrix
  // overload below stays O(1) via the hash cached inside Matrix.
  return fnv_mix(kFnvOffset, model.to_matrix().content_hash());
}

// Folds the result-selecting options fields (and only those — threads
// never change the analysis) into the entry key.
std::uint64_t with_options(std::uint64_t key,
                           const SeparationOptions& options) noexcept {
  key = fnv_mix(key, static_cast<std::uint64_t>(options.max_order));
  return fnv_mix(key, bits_of(options.epsilon));
}

}  // namespace

SeparationCache::SeparationCache(std::size_t capacity)
    : capacity_(capacity) {
  FCM_REQUIRE(capacity_ >= 1, "separation cache capacity must be positive");
  // Entries never move after insertion, so returned references stay valid
  // until their slot is evicted.
  entries_.reserve(capacity_);
}

template <typename Make>
const SeparationAnalysis& SeparationCache::lookup(std::uint64_t key,
                                                  Make make) {
  ++tick_;
  if (const auto it = index_.find(key); it != index_.end()) {
    ++stats_.hits;
    FCM_OBS_COUNT("separation_cache.hits", 1);
    Entry& entry = entries_[it->second];
    entry.last_used = tick_;
    return entry.analysis;
  }
  ++stats_.misses;
  FCM_OBS_COUNT("separation_cache.misses", 1);
  std::size_t slot;
  if (entries_.size() >= capacity_) {
    // Evict the LRU slot and reuse it in place.
    slot = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].last_used < entries_[slot].last_used) slot = i;
    }
    index_.erase(entries_[slot].key);
    ++stats_.evictions;
    FCM_OBS_COUNT("separation_cache.evictions", 1);
    entries_[slot] = Entry{key, tick_, make()};
  } else {
    slot = entries_.size();
    entries_.push_back(Entry{key, tick_, make()});
  }
  index_.emplace(key, slot);
  return entries_[slot].analysis;
}

const SeparationAnalysis& SeparationCache::get(const InfluenceModel& model,
                                               SeparationOptions options) {
  return lookup(with_options(model_key(model), options),
                [&] { return SeparationAnalysis(model, options); });
}

const SeparationAnalysis& SeparationCache::get(
    const graph::Matrix& influence_matrix, SeparationOptions options) {
  // content_hash() is cached inside Matrix, so a repeated query on an
  // unchanged matrix object skips the O(n²) re-hash entirely.
  return lookup(
      with_options(influence_matrix.content_hash(), options), [&] {
        return SeparationAnalysis(influence_matrix, options);
      });
}

}  // namespace fcm::core
