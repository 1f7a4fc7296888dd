// Figure 7 — "Factoring criticality into integration": §6.2's Approach B
// pairs the most critical process with the least critical, hits the
// narrated replicate conflict between the p3 copies, and resolves it by
// dissolving the previous pair — producing the six clusters of the figure.
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
  bench::banner("Figure 7: criticality-driven integration (Approach B)");
  Setup setup;
  ClusteringOptions options;
  options.target_clusters = setup.hw.node_count();
  options.log_steps = true;  // the figure prints the steps
  ClusterEngine engine(setup.sw, options);
  const ClusteringResult result = engine.criticality_pairing();

  std::cout << "pairing steps:\n";
  for (const std::string& step : result.steps) {
    std::cout << "  " << step << '\n';
  }
  const Assignment assignment =
      assign_lexicographic(setup.sw, result, setup.hw);
  std::cout << "\nmapped SW processes per HW node:\n";
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

void BM_CriticalityPairing(benchmark::State& state) {
  Setup setup;
  for (auto _ : state) {
    ClusteringOptions options;
    options.target_clusters = setup.hw.node_count();
    ClusterEngine engine(setup.sw, options);
    benchmark::DoNotOptimize(engine.criticality_pairing());
  }
}
BENCHMARK(BM_CriticalityPairing);

void BM_LexicographicAssignment(benchmark::State& state) {
  Setup setup;
  ClusteringOptions options;
  options.target_clusters = setup.hw.node_count();
  ClusterEngine engine(setup.sw, options);
  const ClusteringResult result = engine.criticality_pairing();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_lexicographic(setup.sw, result, setup.hw));
  }
}
BENCHMARK(BM_LexicographicAssignment);

}  // namespace

FCM_BENCH_MAIN(print_reproduction)
