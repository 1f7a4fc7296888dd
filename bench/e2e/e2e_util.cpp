#include "e2e_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>

namespace fcm::e2e {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

[[maybe_unused]] void count_allocation() noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

Quartiles quartiles(const std::vector<double>& values) {
  return {quantile(values, 0.25), quantile(values, 0.5),
          quantile(values, 0.75)};
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int SpanRecorder::open(std::string name, std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.allocs = allocations();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = Clock::now();
  span.allocs = allocations() - span.allocs;
  // Spans close in LIFO order; an exception unwinding through several
  // scopes closes them innermost first, which keeps this a stack pop.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanRecorder::add(std::string name, Clock::time_point start,
                      Clock::time_point end, int parent,
                      std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           std::uint64_t request)
    : recorder_(recorder) {
  if (recorder_ != nullptr) index_ = recorder_->open(std::move(name), request);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->close(index_);
}

SpanRecorder::SelfTotals SpanRecorder::self_totals() const {
  std::vector<double> self(spans_.size());
  std::vector<std::int64_t> self_allocs(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = seconds_between(spans_[i].start, spans_[i].end);
    self_allocs[i] = static_cast<std::int64_t>(spans_[i].allocs);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent < 0) continue;
    self[static_cast<std::size_t>(parent)] -=
        seconds_between(spans_[i].start, spans_[i].end);
    self_allocs[static_cast<std::size_t>(parent)] -=
        static_cast<std::int64_t>(spans_[i].allocs);
  }
  SelfTotals totals;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto [it, inserted] = slot.emplace(spans_[i].name, totals.names.size());
    if (inserted) {
      totals.names.push_back(spans_[i].name);
      totals.seconds.push_back(0.0);
      totals.allocs.push_back(0);
    }
    totals.seconds[it->second] += self[i];
    totals.allocs[it->second] +=
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, self_allocs[i]));
  }
  return totals;
}

std::string SpanRecorder::chrome_events(int pid,
                                        Clock::time_point origin) const {
  std::string out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(span.start - origin).count();
    const double dur =
        std::chrono::duration<double, std::micro>(span.end - span.start)
            .count();
    if (!out.empty()) out += ",\n";
    out += "{\"name\":" + json_string(span.name) +
           ",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":1,\"ts\":" + json_number(ts) +
           ",\"dur\":" + json_number(dur) + ",\"args\":{\"id\":" +
           std::to_string(i) + ",\"parent\":" + std::to_string(span.parent) +
           ",\"request\":" + std::to_string(span.request) +
           ",\"allocs\":" + std::to_string(span.allocs) + "}}";
  }
  return out;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace fcm::e2e

// Counting replacements for the global allocation functions. Only the core
// overloads are replaced; the standard library routes the nothrow and array
// forms through them, so every heap allocation in the process is seen.
// GCC pairs the malloc-backed new with the free-backed delete below and
// warns that free() mismatches new; both sides are replaced together.
// AddressSanitizer replaces the array and nothrow forms itself and must own
// the allocator, so its builds keep the default functions (and count none).
#ifndef __SANITIZE_ADDRESS__
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  fcm::e2e::count_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  fcm::e2e::count_allocation();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
#pragma GCC diagnostic pop
#endif  // __SANITIZE_ADDRESS__
