// Figure 6 — "Reducing SW graph to match HW resources": the full H1 run on
// the 12-node replicated graph down to the 6-node strongly connected HW
// network, with replicas landing on distinct nodes and the condensed
// influence graph printed (the figure's right-hand side).
#include "bench_util.h"
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
  HwGraph hw = HwGraph::complete(core::example98::kHwNodes);
};

void print_reproduction() {
  bench::banner("Figure 6: H1 reduction of the 12-node SW graph to 6 HW nodes");
  Setup setup;
  ClusteringOptions options;
  options.target_clusters = setup.hw.node_count();
  options.log_steps = true;  // the figure prints the steps
  ClusterEngine engine(setup.sw, options);
  const ClusteringResult result = engine.h1_greedy();

  std::cout << "combination steps:\n";
  for (const std::string& step : result.steps) {
    std::cout << "  " << step << '\n';
  }
  std::cout << "\nmapped SW nodes per HW node:\n";
  const Assignment assignment =
      assign_by_importance(setup.sw, result, setup.hw);
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

void BM_H1Greedy(benchmark::State& state) {
  Setup setup;
  for (auto _ : state) {
    ClusteringOptions options;
    options.target_clusters = setup.hw.node_count();
    ClusterEngine engine(setup.sw, options);
    benchmark::DoNotOptimize(engine.h1_greedy());
  }
}
BENCHMARK(BM_H1Greedy);

void BM_H1GreedyNoSchedCheck(benchmark::State& state) {
  // Isolates the graph work from the schedulability oracle.
  Setup setup;
  for (auto _ : state) {
    ClusteringOptions options;
    options.target_clusters = setup.hw.node_count();
    options.enforce_schedulability = false;
    ClusterEngine engine(setup.sw, options);
    benchmark::DoNotOptimize(engine.h1_greedy());
  }
}
BENCHMARK(BM_H1GreedyNoSchedCheck);

void BM_QualityEvaluation(benchmark::State& state) {
  Setup setup;
  ClusteringOptions options;
  options.target_clusters = setup.hw.node_count();
  ClusterEngine engine(setup.sw, options);
  const ClusteringResult result = engine.h1_greedy();
  const Assignment assignment =
      assign_by_importance(setup.sw, result, setup.hw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluate(setup.sw, result, assignment, setup.hw));
  }
}
BENCHMARK(BM_QualityEvaluation);

}  // namespace

FCM_BENCH_MAIN(print_reproduction)
