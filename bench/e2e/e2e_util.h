// Helpers shared by the fcm_bench workloads: wall-clock timing, exact
// sample quantiles, process-wide allocation counting, the peak-RSS reading,
// and the in-memory span recorder behind `fcm_bench --trace`.
//
// The benchmark keeps its own copies of these (rather than reusing
// bench/bench_util.h) so that everything the benchmark measures with lives
// under its own directory: a change to the library can never also change
// the ruler.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fcm::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Exact quantile of a sample (q in [0, 1]): linear interpolation between
/// the two order statistics around q*(n-1), i.e. Hyndman–Fan type 7. Sorts
/// a copy; returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// First quartile, median and third quartile of a sample, same definition.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(const std::vector<double>& values);

double mean(const std::vector<double>& values);

/// Heap allocations made by this process while counting is on (see
/// set_alloc_counting). Backed by replaced global operator new; counting is
/// off by default so untraced runs pay one relaxed load per allocation.
std::uint64_t allocations();
void set_alloc_counting(bool on);

/// High-water resident set size of this process in MB (getrusage).
double peak_rss_mb();

/// Spans recorded in memory around each public library call the benchmark
/// makes, written out as Chrome-trace JSON. One recording thread: spans
/// nest by call order, so the parent of a new span is the innermost span
/// still open.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t request = 0;  ///< the operation (or serve request) id
    std::uint64_t allocs = 0;   ///< allocations while open (inclusive)
  };

  /// Opens a span; returns its index for close().
  int open(std::string name, std::uint64_t request);
  void close(int index);

  /// Records an already-finished span (serve requests are timed by the
  /// load generator, not by a scope).
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t request);

  /// RAII open/close; a null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (its duration minus its children's) summed by
  /// span name, in seconds, with the self allocations likewise. Names are
  /// listed in order of first appearance.
  struct SelfTotals {
    std::vector<std::string> names;
    std::vector<double> seconds;
    std::vector<std::uint64_t> allocs;
  };
  [[nodiscard]] SelfTotals self_totals() const;

  /// Chrome-trace events ("ph":"X", microseconds since `origin`) as a
  /// comma-separated list, without the enclosing array, so several
  /// processes' events can be concatenated. `pid` groups one workload.
  [[nodiscard]] std::string chrome_events(int pid,
                                          Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// JSON string literal (quotes and escapes).
std::string json_string(const std::string& text);

/// A double with all 17 significant digits (round-trips exactly); "null"
/// for NaN and infinities, which JSON cannot spell.
std::string json_number(double value);

}  // namespace fcm::e2e
