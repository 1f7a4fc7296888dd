// The four fcm_bench workloads and what each hands back to main().
//
// Each workload owns its whole run: it derives its inputs from the workload
// seed, sets itself up (several times, so setup_s is a median), measures
// for the configured number of seconds, checks its outputs, and — when
// tracing — replays the same inputs with spans around every library call.
// The library only ever sees the generated inputs, never the seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2e_util.h"

namespace fcm::e2e {

struct RunConfig {
  std::uint64_t seed = 2026;
  /// Measured seconds per workload. With tracing, half goes to the untraced
  /// pass and half to the traced replay of the same inputs.
  double seconds = 20.0;
  /// One operation per workload at reduced sizes (the ctest smoke).
  bool smoke = false;
  bool trace = false;
};

/// One workload's result. Metric names are the catalog's (fcm_bench
/// --list); `detail` holds extra JSON fields (raw JSON values) such as
/// sample counts, quartiles and per-step serve figures.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> detail;
  std::string trace_events;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

Outcome run_plan_large(const RunConfig& config);
Outcome run_plan_sweep(const RunConfig& config);
Outcome run_assess(const RunConfig& config);
Outcome run_serve_mixed(const RunConfig& config);

// ---- Shared by the workload implementations ----

/// splitmix64 of (seed, stream): every model seed and schedule stream the
/// benchmark uses comes from here.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// A synthetic model seed, kept below 1e9 so "synthetic-N-S" names stay
/// short.
inline std::uint64_t model_seed(std::uint64_t seed, std::uint64_t stream) {
  return derive_seed(seed, stream) % 1'000'000'000ULL;
}

/// Runs `setup` `reps` times and returns the median wall time; the state
/// the last repetition built is the one the workload measures.
template <typename Setup>
double median_setup_seconds(int reps, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(seconds_since(start));
  }
  return quantile(seconds, 0.5);
}

/// Runs `op(i)` for i = 0, 1, ... until `seconds` have passed (at least
/// `min_ops` times, exactly `min_ops` times when `seconds` is 0) and
/// returns each call's wall time; `starts`/`ends` receive the timestamps.
template <typename Op>
std::vector<double> run_closed_loop(double seconds, std::size_t min_ops,
                                    std::vector<Clock::time_point>& starts,
                                    std::vector<Clock::time_point>& ends,
                                    Op&& op) {
  std::vector<double> op_s;
  const Clock::time_point window_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_ops && (seconds <= 0.0 ||
                         seconds_since(window_start) >= seconds)) {
      break;
    }
    starts.push_back(Clock::now());
    op(i);
    ends.push_back(Clock::now());
    op_s.push_back(seconds_between(starts.back(), ends.back()));
  }
  return op_s;
}

/// Sets the closed-loop end-to-end metrics from per-operation wall times:
/// latency_p50_ms and goodput_per_s (correct operations per second of the
/// window from the first start to the last end); adds the samples'
/// quartiles to detail. (setup_s is set by the workload, peak_rss_mb by
/// main() once the workload returns.)
void set_closed_loop_metrics(Outcome& outcome, const std::vector<double>& op_s,
                             std::uint64_t correct_ops,
                             const std::vector<Clock::time_point>& starts,
                             const std::vector<Clock::time_point>& ends);

/// Per-layer metrics from a traced pass whose operations are root spans
/// named `root_name`: `<layer>_frac` for every other span name (its summed
/// self time over the summed root time), bench.unattributed_frac for the
/// roots' own self time, bench.traced_op_ms (median root duration),
/// bench.trace_overhead_frac against the untraced median, the per-operation
/// self allocations of the mapping layers, and the attribution table (the
/// sum check) in detail.
void set_layer_metrics(Outcome& outcome, const SpanRecorder& spans,
                       const std::string& root_name,
                       double untraced_median_s);

/// Writes the attribution table: the traced end-to-end total, every
/// layer's self time and the unattributed remainder, in seconds.
void set_attribution_detail(Outcome& outcome, double traced_total_s,
                            const std::vector<std::string>& layers,
                            const std::vector<double>& self_s,
                            double unattributed_s);

/// bench.gen_lag_p99_ms for a closed loop: the p99 gap between one
/// operation's end and the next one's start (bench bookkeeping).
void set_closed_loop_lag(Outcome& outcome,
                         const std::vector<Clock::time_point>& starts,
                         const std::vector<Clock::time_point>& ends);

/// JSON object {"n":..,"q1":..,"median":..,"q3":..} of a sample.
std::string quartiles_json(const std::vector<double>& values);

/// Turns the library's own obs registry on and clears it; traced passes
/// read its counters (cache hits, heap pops, executor tasks) afterwards.
void start_library_counters();
/// A library obs counter's value since start_library_counters().
std::uint64_t library_counter(const std::string& name);
/// start_library_counters() plus allocation counting, for the traced
/// passes of the closed-loop workloads (set_alloc_counting(false) ends it).
void start_traced_pass();

/// numerator / denominator, or 0 when the denominator is 0.
double ratio(double numerator, double denominator);

}  // namespace fcm::e2e
