// fcm_bench — the repository's end-to-end and per-layer benchmark.
//
//   fcm_bench [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//             [--trace FILE] [--smoke] [--list]
//
// Runs the named workload (default: all four) each in its own child
// process, so peak RSS (a process-lifetime high-water mark), allocator
// state and the executor pool never leak from one workload into the next.
// Every end-to-end metric is printed by name with its unit, every
// correctness check runs, and the exit status is nonzero when any check
// fails. --trace adds a traced replay of the same inputs for the per-layer
// metrics and writes its spans as Chrome-trace JSON. --list prints the
// metric catalog, which must match BENCHMARK.json.
//
// bench/e2e/README.md is the glossary of workloads and metrics.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "workloads.h"

#ifndef FCM_BENCH_BUILD_TYPE
#define FCM_BENCH_BUILD_TYPE "unknown"
#endif

namespace fcm::e2e {
namespace {

struct Workload {
  const char* name;
  Outcome (*run)(const RunConfig&);
  const char* threads;  // FCM_THREADS for the workload's process
  const char* why;
};

const Workload kWorkloads[] = {
    {"plan_large", run_plan_large, "1",
     "cold hierarchical-H1 plans of fresh 512-process systems: SW-graph "
     "build and assignment take most of the time"},
    {"plan_sweep", run_plan_sweep, "1",
     "best-heuristic sweeps of example98 and synthetic-64 systems: "
     "clustering (H2 min-cut) dominates, build and assignment do not"},
    {"assess", run_assess, "2",
     "Monte Carlo, campaign, rare-event and adversary runs on plans made in "
     "setup: no mapping in the timed work"},
    {"serve_mixed", run_serve_mixed, "1",
     "open-loop light memo hits mixed with heavy depend and fresh-model "
     "plans on a 2-worker daemon, at 500-4000 req/s"},
};

struct Metric {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;  // per-layer: the end-to-end metric it should move
  const char* on;     // per-layer: the workloads where it should move it
};

const Metric kEndToEnd[] = {
    {"setup_s", "s", "lower", "", ""},
    {"latency_p50_ms", "ms", "lower", "", ""},
    {"goodput_per_s", "1/s", "higher", "", ""},
    {"peak_rss_mb", "MB", "lower", "", ""},
};

const Metric kPerLayer[] = {
    {"core.make_system_frac", "frac", "lower", "latency_p50_ms",
     "plan_large plan_sweep"},
    {"mapping.swgraph_build_frac", "frac", "lower",
     "latency_p50_ms peak_rss_mb", "plan_large"},
    {"mapping.cluster_h1_frac", "frac", "lower", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.cluster_h1r_frac", "frac", "lower", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.cluster_h1h_frac", "frac", "lower", "latency_p50_ms",
     "plan_large"},
    {"mapping.cluster_h2_frac", "frac", "lower", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.cluster_h2st_frac", "frac", "lower", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.cluster_h3_frac", "frac", "lower", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.cluster_crit_frac", "frac", "lower", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.cluster_timing_frac", "frac", "lower", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.assign_frac", "frac", "lower", "latency_p50_ms", "plan_large"},
    {"mapping.quality_frac", "frac", "lower", "latency_p50_ms",
     "plan_large plan_sweep"},
    {"mapping.report_frac", "frac", "lower", "latency_p50_ms", "plan_large"},
    {"mapping.swgraph_build_allocs", "count", "lower",
     "latency_p50_ms peak_rss_mb", "plan_large"},
    {"mapping.cluster_allocs", "count", "lower", "latency_p50_ms",
     "plan_large plan_sweep"},
    {"mapping.assign_allocs", "count", "lower", "latency_p50_ms",
     "plan_large"},
    {"mapping.quality_allocs", "count", "lower", "latency_p50_ms",
     "plan_large plan_sweep"},
    {"core.separation_cache_hit_ratio", "ratio", "higher", "latency_p50_ms",
     "plan_sweep"},
    {"mapping.quotient_cache_hit_ratio", "ratio", "higher", "latency_p50_ms",
     "plan_large plan_sweep"},
    {"mapping.h1_stale_pop_ratio", "ratio", "lower", "latency_p50_ms",
     "plan_large plan_sweep"},
    {"dependability.evaluate_mapping_frac", "frac", "lower", "latency_p50_ms",
     "assess"},
    {"dependability.trials_per_s", "1/s", "higher", "latency_p50_ms",
     "assess"},
    {"resilience.campaign_frac", "frac", "lower", "latency_p50_ms", "assess"},
    {"resilience.campaign_trials_per_s", "1/s", "higher", "latency_p50_ms",
     "assess"},
    {"resilience.rare_event_frac", "frac", "lower", "latency_p50_ms",
     "assess"},
    {"resilience.rare_event_ess_ratio", "ratio", "higher", "latency_p50_ms",
     "assess"},
    {"resilience.adversary_frac", "frac", "lower", "latency_p50_ms",
     "assess"},
    {"resilience.adversary_cache_hit_ratio", "ratio", "higher",
     "latency_p50_ms", "assess"},
    {"resilience.bounds_frac", "frac", "lower", "latency_p50_ms", "assess"},
    {"exec.tasks_per_submission", "count", "higher", "latency_p50_ms",
     "assess"},
    {"serve.transport_frac", "frac", "lower", "latency_p50_ms",
     "serve_mixed"},
    {"serve.engine_light_frac", "frac", "lower", "latency_p50_ms",
     "serve_mixed"},
    {"serve.engine_heavy_frac", "frac", "lower",
     "latency_p50_ms goodput_per_s", "serve_mixed"},
    {"serve.queue_frac", "frac", "lower", "latency_p50_ms goodput_per_s",
     "serve_mixed"},
    {"serve.worker_util", "ratio", "lower", "goodput_per_s", "serve_mixed"},
    {"serve.memo_hit_ratio", "ratio", "higher", "latency_p50_ms peak_rss_mb",
     "serve_mixed"},
    {"serve.platforms_built", "count", "lower", "peak_rss_mb",
     "serve_mixed"},
    {"serve.rejected", "count", "lower", "goodput_per_s", "serve_mixed"},
    {"serve.expired", "count", "lower", "goodput_per_s", "serve_mixed"},
    {"bench.gen_lag_p99_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"},
    {"bench.traced_op_ms", "ms", "lower", "latency_p50_ms",
     "plan_large plan_sweep assess serve_mixed"},
    {"bench.unattributed_frac", "frac", "lower", "latency_p50_ms",
     "plan_large plan_sweep assess serve_mixed"},
    {"bench.trace_overhead_frac", "frac", "lower", "latency_p50_ms",
     "plan_large plan_sweep assess serve_mixed"},
};

template <std::size_t N>
std::string catalog_json(const Metric (&metrics)[N], bool per_layer) {
  std::string out = "[";
  for (std::size_t i = 0; i < N; ++i) {
    const Metric& m = metrics[i];
    out += std::string(i > 0 ? ",\n    " : "\n    ") +
           "{\"name\": " + json_string(m.name) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"better\": " + json_string(m.better);
    if (per_layer) {
      out += ", \"moves\": " + json_string(m.moves) +
             ", \"on\": " + json_string(m.on);
    }
    out += "}";
  }
  return out + "\n  ]";
}

std::string list_json() {
  std::string workloads = "[";
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    const Workload& w = kWorkloads[i];
    workloads += std::string(i > 0 ? ",\n    " : "\n    ") +
                 "{\"name\": " + json_string(w.name) +
                 ", \"threads\": " + w.threads +
                 ", \"why\": " + json_string(w.why) + "}";
  }
  return "{\n  \"workloads\": " + workloads + "\n  ],\n  \"end_to_end\": " +
         catalog_json(kEndToEnd, false) + ",\n  \"per_layer\": " +
         catalog_json(kPerLayer, true) + "\n}\n";
}

template <std::size_t N>
const Metric* find_metric(const Metric (&metrics)[N], const std::string& name) {
  for (const Metric& m : metrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

template <std::size_t N>
std::string metrics_json(const Metric (&catalog)[N],
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const Metric& m : catalog) {
    const auto it = values.find(m.name);
    if (it == values.end()) continue;
    if (out.size() > 1) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(it->second) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

template <std::size_t N>
void print_metrics(const Metric (&catalog)[N],
                   const std::map<std::string, double>& values) {
  for (const Metric& m : catalog) {
    const auto it = values.find(m.name);
    if (it == values.end()) continue;
    std::printf("  %-38s %14.6g %s\n", m.name, it->second, m.unit);
  }
}

/// Runs one workload in this (child) process and returns its JSON record;
/// the trace events follow after a record separator.
std::string run_workload(const Workload& workload, const RunConfig& config,
                         bool& correct) {
  Outcome outcome = workload.run(config);
  outcome.metrics["peak_rss_mb"] = peak_rss_mb();

  // Every catalog metric is reported; a per-layer metric the workload does
  // not exercise reads 0. A name outside the catalog is a bench bug.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  for (const Metric& m : kPerLayer) per_layer[m.name] = 0.0;
  for (const auto& [name, value] : outcome.metrics) {
    if (find_metric(kEndToEnd, name) != nullptr) {
      end_to_end[name] = value;
    } else if (find_metric(kPerLayer, name) != nullptr) {
      per_layer[name] = value;
    } else {
      outcome.check(false, "metric outside the catalog: " + name);
    }
  }
  for (const Metric& m : kEndToEnd) {
    outcome.check(end_to_end.count(m.name) == 1,
                  std::string("end-to-end metric missing: ") + m.name);
  }
  correct = outcome.check_failures.empty();

  std::printf("  end-to-end (untraced):\n");
  print_metrics(kEndToEnd, end_to_end);
  for (const auto& [name, value] : outcome.detail) {
    if (name == "op_ms" || name == "max_rate_rps" || name == "ping_rtt_us") {
      std::printf("  %-38s %s\n", name.c_str(), value.c_str());
    }
  }
  if (config.trace) {
    std::printf("  per-layer (traced):\n");
    print_metrics(kPerLayer, per_layer);
  }
  std::printf("  checks: %s (attempted %llu, failed %llu)\n",
              correct ? "all passed" : "FAILED",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const std::string& failure : outcome.check_failures) {
    std::printf("    FAILED: %s\n", failure.c_str());
  }
  std::fflush(stdout);

  std::string failures = "[";
  for (std::size_t i = 0; i < outcome.check_failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += json_string(outcome.check_failures[i]);
  }
  std::string detail = "{";
  for (const auto& [name, value] : outcome.detail) {
    if (detail.size() > 1) detail += ",";
    detail += json_string(name) + ":" + value;
  }
  std::string record =
      "{\"correct\":" + std::string(correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(outcome.attempted) +
      ",\"failed\":" + std::to_string(outcome.failed) +
      ",\"threads\":" + workload.threads +
      ",\"check_failures\":" + failures + "]" +
      ",\"end_to_end\":" + metrics_json(kEndToEnd, end_to_end);
  if (config.trace) {
    record += ",\"per_layer\":" + metrics_json(kPerLayer, per_layer);
  }
  record += ",\"detail\":" + detail + "}}";
  return record + "\n\x1e\n" + outcome.trace_events;
}

bool write_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

struct ChildResult {
  bool ok = false;  // exited 0: ran and every check passed
  std::string record;
  std::string trace_events;
  double seconds = 0.0;
};

/// Forks a child for the workload and collects its record over a pipe.
/// The parent has started no threads, so forking is safe.
ChildResult run_child(const Workload& workload, const RunConfig& config) {
  ChildResult result;
  int fds[2];
  if (::pipe(fds) != 0) return result;
  std::fflush(stdout);
  const Clock::time_point start = Clock::now();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return result;
  if (pid == 0) {
    // Dies with the parent, so a killed fcm_bench leaves nothing running.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(3);
    ::close(fds[0]);
    ::setenv("FCM_THREADS", workload.threads, 1);
    int code = 3;
    try {
      bool correct = false;
      const std::string out = run_workload(workload, config, correct);
      code = write_all(fds[1], out) ? (correct ? 0 : 1) : 3;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "fcm_bench: %s: %s\n", workload.name,
                   error.what());
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  result.seconds = seconds_since(start);
  const std::size_t split = data.find("\n\x1e\n");
  if (split == std::string::npos) return result;
  result.record = data.substr(0, split);
  result.trace_events = data.substr(split + 3);
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return result;
}

int usage(const char* error) {
  std::fprintf(stderr,
               "fcm_bench: %s\nusage: fcm_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--out FILE] [--trace FILE] [--smoke] "
               "[--list]\n",
               error);
  return 2;
}

bool parse_seed(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && errno == 0 && text[0] != '-';
}

bool parse_seconds(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && errno == 0 && out >= 0.0 &&
         out <= 3600.0;
}

int main_impl(int argc, char** argv) {
  RunConfig config;
  std::string only;
  std::string out_path;
  std::string trace_path;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" || arg == "--out" || arg == "--trace" ||
               arg == "--seed" || arg == "--seconds") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        only = v;
      } else if (arg == "--out") {
        out_path = v;
      } else if (arg == "--trace") {
        trace_path = v;
      } else if (arg == "--seed" ? !parse_seed(v, config.seed)
                                 : !parse_seconds(v, config.seconds)) {
        return usage(("malformed value for " + arg).c_str());
      }
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (list) {
    std::fputs(list_json().c_str(), stdout);
    return 0;
  }
  config.trace = !trace_path.empty();

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (only.empty() || only == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return usage(("unknown workload " + only).c_str());

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  std::printf("fcm_bench: seed %llu, %s, %s; nproc %d, hardware threads %u, "
              "SIMD %s, build %s\n",
              static_cast<unsigned long long>(config.seed),
              config.smoke ? "smoke sizes"
                           : (json_number(config.seconds) + " s per workload")
                                 .c_str(),
              config.trace ? "traced" : "untraced", nproc,
              std::thread::hardware_concurrency(),
              simd::backend_name(simd::active_backend()),
              FCM_BENCH_BUILD_TYPE);

  bool all_ok = true;
  std::string records;
  std::string run_seconds;
  std::string events;
  int pid = 0;
  for (const Workload* w : selected) {
    ++pid;
    std::printf("\n== %s (FCM_THREADS=%s)\n", w->name, w->threads);
    const ChildResult child = run_child(*w, config);
    std::printf("  ran %.1f s\n", child.seconds);
    if (child.record.empty()) {
      std::printf("  FAILED: the workload process produced no result\n");
      all_ok = false;
      continue;
    }
    all_ok = all_ok && child.ok;
    if (!records.empty()) records += ",\n";
    records += "    " + json_string(w->name) + ": " + child.record;
    if (!run_seconds.empty()) run_seconds += ",";
    run_seconds += json_string(w->name) + ":" + json_number(child.seconds);
    if (!child.trace_events.empty()) {
      if (!events.empty()) events += ",\n";
      events += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                std::to_string(pid) + ",\"args\":{\"name\":" +
                json_string(w->name) + "}},\n" + child.trace_events;
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n  \"manifest\": {\"seed\": " << config.seed
        << ", \"seconds\": " << json_number(config.seconds)
        << ", \"smoke\": " << (config.smoke ? "true" : "false")
        << ", \"traced\": " << (config.trace ? "true" : "false")
        << ", \"nproc\": " << nproc
        << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ", \"simd_backend\": "
        << json_string(simd::backend_name(simd::active_backend()))
        << ", \"build_type\": " << json_string(FCM_BENCH_BUILD_TYPE)
        << ", \"run_seconds\": {" << run_seconds << "}},\n"
        << "  \"workloads\": {\n" << records << "\n  }\n}\n";
    if (!out) {
      std::fprintf(stderr, "fcm_bench: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (config.trace) {
    std::ofstream trace(trace_path);
    trace << "{\"traceEvents\":[\n" << events << "\n]}\n";
    if (!trace) {
      std::fprintf(stderr, "fcm_bench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  std::printf("\nfcm_bench: %s\n",
              all_ok ? "every check passed" : "SOME CHECKS FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace fcm::e2e

int main(int argc, char** argv) { return fcm::e2e::main_impl(argc, argv); }
