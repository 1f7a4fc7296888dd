// Separation: the transitive closure of influence (Eq. 3).
//
// "Separation of FCMs is the probability of one FCM *not* affecting another
// if all other FCMs at the same level are considered":
//   FCMi ∘ FCMj = 1 − (P_ij + Σ_k P_ik P_kj + Σ_l Σ_k P_ik P_kl P_lj + …)
// The series is evaluated through matrix powers, truncated at a configured
// order or once terms drop below epsilon ("at some point, higher-order terms
// are likely to be small enough to be neglected"). The raw series can exceed
// 1 for strongly coupled systems (it is a union bound, not a probability);
// separation clamps at 0 accordingly.
#pragma once

#include <unordered_map>

#include "common/probability.h"
#include "core/influence.h"
#include "graph/matrix.h"

namespace fcm::core {

/// Truncation and thread controls for the Eq. 3 series.
struct SeparationOptions {
  /// Highest matrix power included (1 = direct influence only).
  int max_order = 6;
  /// Stop early once a term's largest entry falls below this.
  double epsilon = 1e-9;
  /// Worker threads for the series kernels (0 = hardware concurrency). The
  /// analysis is bitwise identical for every value.
  std::uint32_t threads = 1;

  /// Equality compares only the fields that select the mathematical result;
  /// threads never change the bitwise output, so cache entries computed
  /// under different thread counts are interchangeable.
  [[nodiscard]] bool operator==(const SeparationOptions& other)
      const noexcept {
    return max_order == other.max_order && epsilon == other.epsilon;
  }
};

/// Precomputed separation over one influence model.
class SeparationAnalysis {
 public:
  /// Evaluates the series for every ordered member pair.
  explicit SeparationAnalysis(const InfluenceModel& model,
                              SeparationOptions options = {});

  /// Evaluates from a raw influence matrix (members indexed 0..n-1).
  explicit SeparationAnalysis(const graph::Matrix& influence_matrix,
                              SeparationOptions options = {});

  /// Number of members.
  [[nodiscard]] std::size_t size() const noexcept { return series_.size(); }

  /// The summed interaction term Σ (before complementing): the probability
  /// bound on i affecting j through any chain.
  [[nodiscard]] double interaction(std::size_t i, std::size_t j) const;

  /// Separation FCMi ∘ FCMj = clamp(1 − interaction). Diagonal is 0 by
  /// convention (a module is never separated from itself).
  [[nodiscard]] Probability separation(std::size_t i, std::size_t j) const;

  /// Smallest separation over all ordered pairs — the system's weakest
  /// containment boundary.
  [[nodiscard]] Probability min_separation() const;

 private:
  graph::Matrix series_;
};

/// Memoizes SeparationAnalysis instances so repeated Eq. 3 queries — the
/// planner scoring several heuristics, iterative what-if loops over one
/// model — do not recompute the transitive power series. Entries are keyed
/// on a *content* hash of the influence matrix (for raw matrices the hash is
/// cached inside Matrix, so an unchanged matrix is never re-hashed) plus
/// the truncation options; keying on content rather than object identity
/// means a destroyed model whose address is reused can never resurrect a
/// dead entry. Lookups go through a hash-map index — O(1) per query instead
/// of a scan over the capacity. Small LRU; evictions are counted in the
/// per-instance stats and mirrored into the fcm::obs registry.
class SeparationCache {
 public:
  explicit SeparationCache(std::size_t capacity = 8);

  /// The analysis for the model's *current* content. Recomputes (and
  /// counts a miss) when the model's influence matrix changed since the
  /// entry was cached.
  const SeparationAnalysis& get(const InfluenceModel& model,
                                SeparationOptions options = {});

  /// The analysis for a raw influence matrix, keyed on a content hash of
  /// its dimensions and entries.
  const SeparationAnalysis& get(const graph::Matrix& influence_matrix,
                                SeparationOptions options = {});

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }

 private:
  struct Entry {
    std::uint64_t key;  // content/model key folded with the options
    std::uint64_t last_used;
    SeparationAnalysis analysis;
  };

  template <typename Make>
  const SeparationAnalysis& lookup(std::uint64_t key, Make make);

  std::vector<Entry> entries_;            // slots; never reallocates
  std::unordered_map<std::uint64_t, std::size_t> index_;  // key -> slot
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace fcm::core
