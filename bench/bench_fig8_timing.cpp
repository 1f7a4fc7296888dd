// Figure 8 — "A refined HW-SW mapping to 4 HW nodes": the §6.2 closing
// technique ("compute an ordered list of SW nodes ... map SW nodes onto a
// HW node starting at the top of the list maintaining their compliance to
// the specified constraints") packs the 12 replicas into four nodes:
// {p1a,p2a,p3a} {p1b,p2b,p3b} {p1c,p4,p5} {p6,p7,p8}.
#include "bench_util.h"
#include "common/error.h"
#include "core/example98.h"
#include "mapping/assignment.h"
#include "mapping/clustering.h"
#include "mapping/quality.h"

namespace {

using namespace fcm;
using namespace fcm::mapping;

struct Setup {
  core::example98::Instance instance = core::example98::make_instance();
  SwGraph sw = SwGraph::build(instance.hierarchy, instance.influence,
                              instance.processes);
  HwGraph hw = HwGraph::complete(core::example98::kHwNodesFig8);
};

void print_reproduction() {
  bench::banner("Figure 8: timing-ordered packing onto 4 HW nodes");
  Setup setup;
  ClusteringOptions options;
  options.target_clusters = setup.hw.node_count();
  options.log_steps = true;  // the figure prints the steps
  ClusterEngine engine(setup.sw, options);
  const ClusteringResult result = engine.timing_ordered();

  std::cout << "packing steps:\n";
  for (const std::string& step : result.steps) {
    std::cout << "  " << step << '\n';
  }
  const Assignment assignment =
      assign_by_importance(setup.sw, result, setup.hw);
  std::cout << "\nmapped SW nodes per HW node:\n";
  const auto names = result.cluster_names(setup.sw);
  for (std::uint32_t c = 0; c < names.size(); ++c) {
    std::cout << "  " << setup.hw.node(assignment.hw_of[c]).name << " <- {";
    for (std::size_t i = 0; i < names[c].size(); ++i) {
      if (i > 0) std::cout << ',';
      std::cout << names[c][i];
    }
    std::cout << "}\n";
  }
  std::cout << "\ncondensed influence graph:\n";
  bench::print_edges(result.quotient);
  const MappingQuality quality =
      evaluate(setup.sw, result, assignment, setup.hw);
  std::cout << '\n' << quality.report();
}

void BM_TimingOrderedPacking(benchmark::State& state) {
  Setup setup;
  for (auto _ : state) {
    ClusteringOptions options;
    options.target_clusters = setup.hw.node_count();
    ClusterEngine engine(setup.sw, options);
    benchmark::DoNotOptimize(engine.timing_ordered());
  }
}
BENCHMARK(BM_TimingOrderedPacking);

void BM_PackingOrderVariants(benchmark::State& state) {
  Setup setup;
  const auto key = static_cast<OrderKey>(state.range(0));
  for (auto _ : state) {
    ClusteringOptions options;
    options.target_clusters = setup.hw.node_count();
    ClusterEngine engine(setup.sw, options);
    try {
      benchmark::DoNotOptimize(
          engine.timing_ordered(key, setup.sw.node_count()));
    } catch (const Infeasible&) {
      // Some orders cannot pack this instance; cost still measured.
    }
  }
}
BENCHMARK(BM_PackingOrderVariants)
    ->Arg(static_cast<int>(OrderKey::kCriticality))
    ->Arg(static_cast<int>(OrderKey::kEst))
    ->Arg(static_cast<int>(OrderKey::kUrgency));

}  // namespace

FCM_BENCH_MAIN(print_reproduction)
