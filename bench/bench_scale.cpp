// Scalability — the paper's example has 8 processes; a real integration
// campaign (the Boeing 777 AIMS footnote) has dozens, and a fleet-level
// study needs thousands. This bench scales seeded synthetic systems
// (core/synthetic.h — shared with `fcm_tool plan --synthetic` and the
// serve daemon) through two regimes:
//
//   * 32–256 processes: per-phase timings of the Eq. 3 separation series
//     (reference loop vs the kernel fast path), H1 clustering (the
//     lazy-deletion pair heap) and assignment + quality;
//   * 512–4096 processes (cap via FCM_SCALE_MAX): the large-instance
//     pipeline — SW-graph build, the Eq. 3 series, hierarchical H1
//     (partition → cluster within parts → merge
//     across), assignment + quality — with per-phase wall times,
//     allocation counts, and peak RSS.
//
// The headline series speedup, the bitwise series-vs-reference checks and
// the clustering thread-identity checks are recorded to BENCH_scale.json.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>

#include "bench_util.h"
#include "common/error.h"
#include "common/table.h"
#include "core/synthetic.h"
#include "graph/series.h"
#include "mapping/planner.h"
#include "obs/metrics.h"
#include "obs/obs.h"

FCM_BENCH_DEFINE_ALLOC_HOOKS()

namespace {

using namespace fcm;
using namespace fcm::mapping;
using core::synthetic::System;
using core::synthetic::make_system;

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Median wall time over max(reps, --repeat) passes after one warmup
/// (single-shot phases are noisy at small sizes; --repeat raises the
/// sample count for stable recorded speedups).
double phase_seconds(int reps, const std::function<void()>& fn) {
  return fcm::bench::timed_median_seconds(std::max(reps, fcm::bench::repeat()),
                                          fn);
}

graph::Matrix influence_matrix(const SwGraph& sw) {
  graph::Matrix p(sw.node_count());
  for (const graph::Edge& e : sw.influence_graph().edges()) {
    p.at(e.from, e.to) = e.weight;
  }
  return p;
}

bool bitwise_equal(const graph::Matrix& a, const graph::Matrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * a.size() * sizeof(double)) == 0;
}

struct PhaseRow {
  std::size_t processes = 0;
  std::size_t sw_nodes = 0;
  double series_ref_seconds = 0.0;
  double series_fast_seconds = 0.0;
  double h1_seconds = 0.0;
  double assign_seconds = 0.0;
  bool series_identical = false;
};

PhaseRow measure(std::size_t processes) {
  PhaseRow row;
  row.processes = processes;
  const System sys = make_system(processes, 42);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  row.sw_nodes = sw.node_count();
  const std::size_t hw_nodes = std::max<std::size_t>(4, processes / 3);
  const int reps = processes >= 128 ? 2 : 3;

  // Phase 1: separation series. Reference loop vs the CSR kernel, which
  // must match it bitwise.
  const graph::Matrix p = influence_matrix(sw);
  graph::Matrix ref(0);
  row.series_ref_seconds = phase_seconds(
      reps, [&] { ref = graph::power_series_sum_reference(p, 6, 1e-9); });
  graph::SeriesOptions sopts;
  sopts.epsilon = 1e-9;
  graph::Matrix fast(0);
  row.series_fast_seconds =
      phase_seconds(reps, [&] { fast = graph::power_series_sum(p, sopts); });
  row.series_identical = bitwise_equal(ref, fast);

  // Phase 2: H1 clustering. Schedulability is skipped so the timing
  // isolates the merge-selection machinery.
  ClusteringOptions copts;
  copts.target_clusters = hw_nodes;
  copts.enforce_schedulability = false;
  ClusteringResult clustering;
  row.h1_seconds = phase_seconds(reps, [&] {
    ClusterEngine engine(sw, copts);
    clustering = engine.h1_greedy();
  });

  // Phase 3: assignment + quality on that clustering.
  row.assign_seconds = phase_seconds(reps, [&] {
    const HwGraph hw = HwGraph::complete(hw_nodes);
    const Assignment assignment = assign_by_importance(sw, clustering, hw);
    core::SeparationCache cache;
    QualityOptions qopts;
    qopts.separation_cache = &cache;
    benchmark::DoNotOptimize(evaluate(sw, clustering, assignment, hw, qopts));
  });
  return row;
}

// One 512+-process run through the planning pipeline, with per-phase wall
// time and allocation counts plus the process peak RSS after the row.
struct ScaleRow {
  std::size_t processes = 0;
  std::size_t sw_nodes = 0;
  std::size_t clusters = 0;
  double build_seconds = 0.0;
  double series_seconds = 0.0;
  double cluster_seconds = 0.0;
  double h1_flat_seconds = 0.0;  // flat heap H1, only run up to 1024
  double assign_seconds = 0.0;
  std::uint64_t build_allocs = 0;
  std::uint64_t series_allocs = 0;
  std::uint64_t cluster_allocs = 0;
  std::uint64_t row_alloc_mb = 0;   // bytes requested across the whole row
  std::uint64_t peak_rss_mb = 0;
  bool series_identical = false;   // Eq. 3 series, kernel vs reference
  bool cluster_identical = false;  // hierarchical H1, 1 vs 4 threads
};

ScaleRow measure_scale(std::size_t processes) {
  auto& alloc = fcm::bench::alloc_counters();
  const std::uint64_t allocs0 = alloc.allocations.load();
  const std::uint64_t bytes0 = alloc.bytes.load();
  auto allocs_since = [&](std::uint64_t from) {
    return alloc.allocations.load() - from;
  };

  ScaleRow row;
  row.processes = processes;
  const System sys = make_system(processes, 42);

  std::uint64_t mark = alloc.allocations.load();
  std::optional<SwGraph> sw;
  row.build_seconds = seconds_of([&] {
    sw.emplace(SwGraph::build(sys.hierarchy, sys.influence, sys.processes));
  });
  row.build_allocs = allocs_since(mark);
  row.sw_nodes = sw->node_count();

  // Series phase: Eq. 3 over the influence matrix (checked against the
  // reference loop at the end of the row).
  graph::SeriesOptions sopts;
  sopts.epsilon = 1e-9;
  mark = alloc.allocations.load();
  graph::Matrix separation(0);
  row.series_seconds = seconds_of([&] {
    separation = graph::power_series_sum(influence_matrix(*sw), sopts);
  });
  row.series_allocs = allocs_since(mark);

  // Clustering phase: hierarchical H1 (partition via min-cut/BFS, H1
  // within parts, merge across). Bitwise thread-identity is asserted by
  // re-running with 4 workers.
  ClusteringOptions copts;
  copts.target_clusters = std::max<std::size_t>(4, processes / 3);
  copts.enforce_schedulability = false;
  copts.threads = 1;
  ClusteringResult hier;
  mark = alloc.allocations.load();
  row.cluster_seconds = seconds_of([&] {
    ClusterEngine engine(*sw, copts);
    hier = engine.h1_hierarchical();
  });
  row.cluster_allocs = allocs_since(mark);
  row.clusters = hier.partition.cluster_count;
  {
    copts.threads = 4;
    ClusterEngine engine(*sw, copts);
    const ClusteringResult again = engine.h1_hierarchical();
    row.cluster_identical =
        hier.partition.cluster_of == again.partition.cluster_of &&
        hier.steps == again.steps;
    copts.threads = 1;
  }

  // Flat heap H1 for scale comparison; above 1024 its all-pairs seeding
  // and merge loop dominate the whole bench, so it is skipped there.
  if (processes <= 1024) {
    row.h1_flat_seconds = seconds_of([&] {
      ClusterEngine engine(*sw, copts);
      benchmark::DoNotOptimize(engine.h1_greedy());
    });
  }

  row.assign_seconds = seconds_of([&] {
    const HwGraph hw = HwGraph::complete(copts.target_clusters);
    const Assignment assignment = assign_by_importance(*sw, hier, hw);
    core::SeparationCache cache;
    QualityOptions qopts;
    qopts.separation_cache = &cache;
    benchmark::DoNotOptimize(evaluate(*sw, hier, assignment, hw, qopts));
  });

  row.row_alloc_mb = (alloc.bytes.load() - bytes0) >> 20;
  row.peak_rss_mb = fcm::bench::peak_rss_bytes() >> 20;
  (void)allocs0;
  // After the readings above, which describe the pipeline alone: the
  // reference loop allocates a matrix per order.
  row.series_identical = bitwise_equal(
      separation, graph::power_series_sum_reference(influence_matrix(*sw),
                                                    sopts.max_order,
                                                    sopts.epsilon));
  return row;
}

bool plans_identical_across_threads() {
  // The full pipeline at 64 processes: the best_plan sweep must pick the
  // same plan sequentially and with 4 workers.
  const HwGraph hw = HwGraph::complete(12);
  auto best = [&](std::uint32_t threads) {
    const System sys = make_system(64, 7);
    PlanOptions options;
    options.sweep_threads = threads;
    IntegrationPlanner planner(sys.hierarchy, sys.influence, sys.processes,
                               hw, options);
    return planner.best_plan();
  };
  const Plan sequential = best(1);
  const Plan parallel = best(4);
  return sequential.heuristic == parallel.heuristic &&
         sequential.clustering.partition.cluster_of ==
             parallel.clustering.partition.cluster_of &&
         sequential.assignment.hw_of == parallel.assignment.hw_of &&
         sequential.quality.score() == parallel.quality.score();
}

std::size_t scale_cap() {
  const char* env = std::getenv("FCM_SCALE_MAX");
  if (env == nullptr || *env == '\0') return 4096;
  const unsigned long value = std::strtoul(env, nullptr, 10);
  return value == 0 ? 4096 : static_cast<std::size_t>(value);
}

void print_reproduction() {
  bench::banner("Per-phase planning cost, 32 -> 256 processes");
  TextTable table({"processes", "SW nodes", "series ref", "series fast",
                   "series x", "H1", "assign+qual", "identical"});
  PhaseRow headline;
  std::vector<PhaseRow> rows;
  for (const std::size_t n : {32u, 64u, 128u, 256u}) {
    const PhaseRow row = measure(n);
    rows.push_back(row);
    if (n == 256) headline = row;
    table.add_row({std::to_string(row.processes),
                   std::to_string(row.sw_nodes),
                   fmt(row.series_ref_seconds, 4),
                   fmt(row.series_fast_seconds, 4),
                   fmt(row.series_ref_seconds / row.series_fast_seconds, 1),
                   fmt(row.h1_seconds, 4), fmt(row.assign_seconds, 4),
                   row.series_identical ? "yes" : "NO"});
  }
  std::cout << table.render();
  std::cout << "(series fast path = CSR kernel of graph/series.h; identity "
               "is bitwise against the\n reference loop — speedups here are "
               "algorithmic, not core-count)\n";

  const std::size_t cap = scale_cap();
  std::vector<ScaleRow> scale_rows;
  bench::banner("Large-instance pipeline, 512 -> " + std::to_string(cap) +
                " processes (FCM_SCALE_MAX)");
  TextTable scale_table({"processes", "SW nodes", "clusters", "build",
                         "series", "H1 hier", "H1 flat", "assign+qual",
                         "alloc MB", "peak RSS MB", "identical"});
  for (const std::size_t n : {512u, 1024u, 4096u}) {
    if (n > cap) continue;
    const ScaleRow row = measure_scale(n);
    scale_rows.push_back(row);
    scale_table.add_row(
        {std::to_string(row.processes), std::to_string(row.sw_nodes),
         std::to_string(row.clusters), fmt(row.build_seconds, 3),
         fmt(row.series_seconds, 3), fmt(row.cluster_seconds, 3),
         row.h1_flat_seconds > 0.0 ? fmt(row.h1_flat_seconds, 3) : "-",
         fmt(row.assign_seconds, 3), std::to_string(row.row_alloc_mb),
         std::to_string(row.peak_rss_mb),
         row.series_identical && row.cluster_identical ? "yes" : "NO"});
  }
  std::cout << scale_table.render();
  std::cout << "(series bitwise-identical to the reference loop; H1 hier = "
               "hierarchical H1,\n bitwise-identical for 1 vs 4 workers; H1 "
               "flat skipped above 1024)\n";

  const bool plans_identical = plans_identical_across_threads();
  std::cout << "best_plan(64 processes): sweep_threads 1 vs 4 pick "
            << (plans_identical ? "identical" : "DIFFERENT") << " plans\n";

  // One instrumented pipeline pass: the obs registry snapshot rides along
  // in the JSON record so a perf regression can be traced to which phase
  // changed behavior (series orders, heap churn, cache misses).
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  (void)measure(64);
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::global().snapshot();
  obs::set_enabled(false);

  std::ofstream json("BENCH_scale.json");
  json << "{\n"
       << "  \"bench\": \"scale_phases\",\n"
       << "  \"repeat\": " << bench::repeat() << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"processes\": " << headline.processes << ",\n"
       << "  \"sw_nodes\": " << headline.sw_nodes << ",\n"
       << "  \"series_ref_seconds\": " << headline.series_ref_seconds << ",\n"
       << "  \"series_fast_seconds\": " << headline.series_fast_seconds
       << ",\n"
       << "  \"series_speedup\": "
       << headline.series_ref_seconds / headline.series_fast_seconds << ",\n"
       << "  \"h1_seconds\": " << headline.h1_seconds << ",\n"
       << "  \"assign_seconds\": " << headline.assign_seconds << ",\n"
       << "  \"series_bitwise_identical\": "
       << (headline.series_identical ? "true" : "false") << ",\n"
       << "  \"max_processes\": "
       << (scale_rows.empty() ? headline.processes
                              : scale_rows.back().processes)
       << ",\n"
       << "  \"scale_rows\": [";
  for (std::size_t i = 0; i < scale_rows.size(); ++i) {
    const ScaleRow& row = scale_rows[i];
    json << (i == 0 ? "" : ",") << "\n    {\"processes\": " << row.processes
         << ", \"sw_nodes\": " << row.sw_nodes
         << ", \"clusters\": " << row.clusters
         << ", \"build_seconds\": " << row.build_seconds
         << ", \"series_seconds\": " << row.series_seconds
         << ", \"cluster_seconds\": " << row.cluster_seconds
         << ", \"h1_flat_seconds\": " << row.h1_flat_seconds
         << ", \"assign_seconds\": " << row.assign_seconds
         << ", \"build_allocs\": " << row.build_allocs
         << ", \"series_allocs\": " << row.series_allocs
         << ", \"cluster_allocs\": " << row.cluster_allocs
         << ", \"alloc_mb\": " << row.row_alloc_mb
         << ", \"peak_rss_mb\": " << row.peak_rss_mb
         << ", \"series_identical\": "
         << (row.series_identical ? "true" : "false")
         << ", \"cluster_thread_identical\": "
         << (row.cluster_identical ? "true" : "false") << "}";
  }
  json << (scale_rows.empty() ? "" : "\n  ") << "],\n"
       << "  \"plans_identical_across_threads\": "
       << (plans_identical ? "true" : "false") << ",\n"
       << "  \"metrics\": " << obs::metrics_json(metrics) << "\n}\n";
  std::cout << "(per-phase record written to BENCH_scale.json)\n";
}

void BM_SeriesReference(benchmark::State& state) {
  const System sys = make_system(static_cast<std::size_t>(state.range(0)), 7);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  const graph::Matrix p = influence_matrix(sw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::power_series_sum_reference(p, 6, 1e-9));
  }
}
BENCHMARK(BM_SeriesReference)->Arg(32)->Arg(64);

void BM_SeriesFast(benchmark::State& state) {
  const System sys = make_system(static_cast<std::size_t>(state.range(0)), 7);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  const graph::Matrix p = influence_matrix(sw);
  graph::SeriesOptions options;
  options.epsilon = 1e-9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::power_series_sum(p, options));
  }
}
BENCHMARK(BM_SeriesFast)->Arg(32)->Arg(64)->Arg(256);

void BM_H1AtScale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const System sys = make_system(n, 7);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  for (auto _ : state) {
    ClusteringOptions options;
    options.target_clusters = std::max<std::size_t>(4, n / 3);
    ClusterEngine engine(sw, options);
    try {
      benchmark::DoNotOptimize(engine.h1_greedy());
    } catch (const fcm::FcmError&) {
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sw.node_count()));
}
BENCHMARK(BM_H1AtScale)->Arg(16)->Arg(64);

void BM_H1Hierarchical(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const System sys = make_system(n, 7);
  const SwGraph sw =
      SwGraph::build(sys.hierarchy, sys.influence, sys.processes);
  for (auto _ : state) {
    ClusteringOptions options;
    options.target_clusters = std::max<std::size_t>(4, n / 3);
    options.enforce_schedulability = false;
    options.threads = 1;
    ClusterEngine engine(sw, options);
    try {
      benchmark::DoNotOptimize(engine.h1_hierarchical());
    } catch (const fcm::FcmError&) {
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sw.node_count()));
}
BENCHMARK(BM_H1Hierarchical)->Arg(64)->Arg(256);

void BM_SwGraphBuildAtScale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const System sys = make_system(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SwGraph::build(sys.hierarchy, sys.influence, sys.processes));
  }
}
BENCHMARK(BM_SwGraphBuildAtScale)->Arg(8)->Arg(64);

}  // namespace

FCM_BENCH_MAIN(print_reproduction)
