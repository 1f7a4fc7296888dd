// Observability: process-wide metrics registry.
//
// A dependability framework has to expose its own internal behavior to be
// trustworthy (cf. the AADL dependability-modeling line of work): the Monte
// Carlo engine, the separation series kernels, and the clustering/planner
// machinery all count and time themselves through this registry instead of
// bespoke ad-hoc structs. Three instrument kinds:
//
//   counters    monotone uint64 sums (trials run, kernel selections, cache
//               hits). Increments commute, so — exactly like the Monte Carlo
//               block reduction — totals are identical for every thread
//               count and execution order as long as the *work partition* is
//               thread-invariant.
//   gauges      last-written doubles (resolved worker counts).
//   histograms  value distributions (span durations): count/min/max/sum plus
//               fixed decade buckets.
//
// Snapshots return ordered maps, so two runs doing the same work render the
// same dump byte-for-byte (modulo timing-valued gauges/histograms).
//
// Instrumentation is compiled out entirely with -DFCM_OBS=OFF (see obs.h);
// at runtime it is disabled by default — every entry point checks one
// relaxed atomic and returns. Enable with fcm::obs::set_enabled(true).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace fcm::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Whether instrumentation records anything right now. One relaxed load —
/// the only cost hot paths pay while observability is off.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on or off process-wide (metrics and trace spans alike).
void set_enabled(bool on) noexcept;

/// Summary of one histogram instrument. Buckets count values <= the decade
/// upper bounds 1e-6, 1e-5, ..., 1e1, plus a final overflow bucket.
struct HistogramSummary {
  static constexpr std::size_t kBuckets = 9;
  static constexpr std::array<double, kBuckets - 1> kUpperBounds = {
      1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};

  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Bucket-interpolated quantile estimate for q in [0, 1]: walks the
  /// decade buckets to the one holding the q-th sample and interpolates
  /// linearly inside it (clamped to the observed [min, max]). Coarse by
  /// construction — the buckets are decades — but monotone in q and good
  /// enough for the load generator's p50/p99 progress lines.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// One coherent copy of every instrument, keys sorted.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

/// Named instrument store shared by the whole process. All operations are
/// thread-safe; writers from any thread land in one table, and counter
/// merges are order-free by construction (integer addition commutes).
class MetricsRegistry {
 public:
  /// The process-wide registry the FCM_OBS_* macros write to.
  static MetricsRegistry& global();

  /// counters[name] += delta. No-op while disabled.
  void add_counter(std::string_view name, std::uint64_t delta = 1);
  /// gauges[name] = value (last writer wins). No-op while disabled.
  void set_gauge(std::string_view name, double value);
  /// Folds `value` into histograms[name]. No-op while disabled.
  void record(std::string_view name, double value);

  /// A coherent copy of every instrument.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Drops every instrument (counters restart from zero).
  void reset();

 private:
  mutable std::mutex mutex_;
  MetricsSnapshot data_;
};

/// Flat JSON object for a snapshot:
///   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..}}}
/// Keys appear in sorted order, so equal snapshots serialize identically.
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snapshot);

}  // namespace fcm::obs
