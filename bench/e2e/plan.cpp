// plan_large and plan_sweep: cold integration plans, the way `fcm_tool
// plan` computes them.
//
// The untraced pass times QueryEngine::one_shot(kMapping, payload) — the
// exact bytes `fcm_tool plan` prints. The traced pass re-plans the same
// models through the public pipeline functions one_shot runs internally
// (make_system, SwGraph::build, ClusterEngine, assignment, evaluate,
// Plan::report) with a span around each, and must reproduce one_shot's
// bytes exactly; otherwise it would be measuring a different program.
#include <algorithm>
#include <optional>
#include <set>

#include "common/error.h"
#include "core/example98.h"
#include "core/separation.h"
#include "core/synthetic.h"
#include "mapping/planner.h"
#include "serve/query.h"
#include "workloads.h"

namespace fcm::e2e {

namespace {

using mapping::Approach;
using mapping::Heuristic;
using serve::QueryEngine;
namespace protocol = serve::protocol;

constexpr int kSetupReps = 5;

/// One model to plan: its serve/CLI model name and platform size.
struct Model {
  std::string name;  // "example98" or "synthetic-N-S"
  std::size_t processes = 0;  // 0 for example98
  std::uint64_t seed = 0;
  int hw = 0;
};

Model synthetic(std::size_t processes, std::uint64_t seed, int hw) {
  return {"synthetic-" + std::to_string(processes) + "-" +
              std::to_string(seed),
          processes, seed, hw};
}

Model example98() {
  return {"example98", 0, 0, core::example98::kHwNodes};
}

std::string payload(const Model& model, const std::string& heuristic,
                    Approach approach) {
  return "model=" + model.name + " hw=" + std::to_string(model.hw) +
         " heuristic=" + heuristic + " approach=" +
         (approach == Approach::kAImportance ? "a" : "b");
}

const char* span_suffix(Heuristic heuristic) {
  switch (heuristic) {
    case Heuristic::kH1Greedy:
      return "h1";
    case Heuristic::kH1Rounds:
      return "h1r";
    case Heuristic::kH2MinCut:
      return "h2";
    case Heuristic::kH2StCut:
      return "h2st";
    case Heuristic::kH3Importance:
      return "h3";
    case Heuristic::kCriticalityPairing:
      return "crit";
    case Heuristic::kTimingOrdered:
      return "timing";
    case Heuristic::kH1Hierarchical:
      return "h1h";
  }
  return "?";
}

/// The best_plan sweep order (IntegrationPlanner::best_plan).
constexpr Heuristic kSweep[] = {
    Heuristic::kH1Greedy,     Heuristic::kH1Rounds,
    Heuristic::kH2MinCut,     Heuristic::kH2StCut,
    Heuristic::kH3Importance, Heuristic::kCriticalityPairing,
    Heuristic::kTimingOrdered,
};

/// A generated system plus the SW graph and platform planned onto.
struct Platform {
  mapping::HwGraph hw;
  std::optional<mapping::SwGraph> sw;
};

/// make_system (or the example98 instance) and SwGraph::build, as the
/// serve engine's platform() does for a first-time model, under spans.
Platform build_platform(SpanRecorder& spans, std::uint64_t op,
                        const Model& model) {
  Platform platform{mapping::HwGraph::complete(model.hw), std::nullopt};
  if (model.processes == 0) {
    std::optional<core::example98::Instance> instance;
    {
      SpanRecorder::Scope span(&spans, "core.make_system", op);
      instance = core::example98::make_instance();
    }
    SpanRecorder::Scope span(&spans, "mapping.swgraph_build", op);
    platform.sw = mapping::SwGraph::build(
        instance->hierarchy, instance->influence, instance->processes);
  } else {
    std::optional<core::synthetic::System> system;
    {
      SpanRecorder::Scope span(&spans, "core.make_system", op);
      system = core::synthetic::make_system(model.processes, model.seed);
    }
    SpanRecorder::Scope span(&spans, "mapping.swgraph_build", op);
    platform.sw = mapping::SwGraph::build(system->hierarchy, system->influence,
                                          system->processes);
  }
  return platform;
}

/// One heuristic + approach candidate, exactly as
/// IntegrationPlanner::plan_with builds it from default PlanOptions.
mapping::Plan traced_plan(SpanRecorder& spans, std::uint64_t op,
                          const Platform& platform, Heuristic heuristic,
                          Approach approach, core::SeparationCache* cache) {
  const mapping::SwGraph& sw = *platform.sw;
  const mapping::HwGraph& hw = platform.hw;
  const mapping::PlanOptions defaults;
  mapping::ClusteringOptions copts;
  copts.target_clusters = hw.node_count();
  copts.policy = defaults.policy;
  copts.threads = defaults.cluster_threads;
  copts.incremental_quotient = defaults.incremental_quotient;
  copts.hierarchy_parts = defaults.hierarchy_parts;
  copts.resource_check = [&hw](const std::set<std::string>& required) {
    for (const mapping::HwNode& node : hw.nodes()) {
      if (std::includes(node.resources.begin(), node.resources.end(),
                        required.begin(), required.end())) {
        return true;
      }
    }
    return false;
  };

  mapping::Plan plan;
  plan.heuristic = heuristic;
  plan.approach = approach;
  {
    SpanRecorder::Scope span(
        &spans, std::string("mapping.cluster_") + span_suffix(heuristic), op);
    mapping::ClusterEngine engine(sw, copts);
    switch (heuristic) {
      case Heuristic::kH1Greedy:
        plan.clustering = engine.h1_greedy();
        break;
      case Heuristic::kH1Rounds:
        plan.clustering = engine.h1_rounds();
        break;
      case Heuristic::kH2MinCut:
        plan.clustering = engine.h2_mincut();
        break;
      case Heuristic::kH2StCut:
        plan.clustering = engine.h2_st_cut();
        break;
      case Heuristic::kH3Importance:
        plan.clustering = engine.h3_importance();
        break;
      case Heuristic::kCriticalityPairing:
        plan.clustering = engine.criticality_pairing();
        break;
      case Heuristic::kTimingOrdered:
        plan.clustering = engine.timing_ordered();
        break;
      case Heuristic::kH1Hierarchical:
        plan.clustering = engine.h1_hierarchical();
        break;
    }
  }
  {
    SpanRecorder::Scope span(&spans, "mapping.assign", op);
    plan.assignment =
        approach == Approach::kAImportance
            ? mapping::assign_by_importance(sw, plan.clustering, hw)
            : mapping::assign_lexicographic(sw, plan.clustering, hw);
  }
  {
    SpanRecorder::Scope span(&spans, "mapping.quality", op);
    mapping::QualityOptions qopts = defaults.quality;
    if (qopts.separation_cache == nullptr) qopts.separation_cache = cache;
    plan.quality = mapping::evaluate(sw, plan.clustering, plan.assignment, hw,
                                     qopts);
  }
  return plan;
}

std::string traced_report(SpanRecorder& spans, std::uint64_t op,
                          const Platform& platform, const mapping::Plan& plan) {
  SpanRecorder::Scope span(&spans, "mapping.report", op);
  return plan.report(*platform.sw, platform.hw);
}

/// best_plan's sequential path: every heuristic in sweep order through one
/// separation memo; the first feasible candidate with a strictly greater
/// score wins; FcmError candidates are skipped.
std::string traced_best_report(SpanRecorder& spans, std::uint64_t op,
                               const Model& model, Approach approach,
                               core::CacheStats& separation_stats) {
  const Platform platform = build_platform(spans, op, model);
  core::SeparationCache cache;
  std::optional<mapping::Plan> best;
  for (const Heuristic heuristic : kSweep) {
    try {
      mapping::Plan candidate =
          traced_plan(spans, op, platform, heuristic, approach, &cache);
      if (!candidate.quality.constraints_satisfied()) continue;
      if (!best || candidate.quality.score() > best->quality.score()) {
        best = std::move(candidate);
      }
    } catch (const FcmError&) {
    }
  }
  separation_stats.hits += cache.stats().hits;
  separation_stats.misses += cache.stats().misses;
  if (!best) return "no feasible plan";
  return traced_report(spans, op, platform, *best);
}

/// The obs-counter ratios both plan workloads report from a traced pass.
void set_planner_counter_metrics(Outcome& outcome,
                                 const core::CacheStats& separation) {
  outcome.metrics["core.separation_cache_hit_ratio"] =
      ratio(static_cast<double>(separation.hits),
            static_cast<double>(separation.hits + separation.misses));
  const double qhits =
      static_cast<double>(library_counter("quotient_cache.hits"));
  const double qmisses =
      static_cast<double>(library_counter("quotient_cache.misses"));
  outcome.metrics["mapping.quotient_cache_hit_ratio"] =
      ratio(qhits, qhits + qmisses);
  outcome.metrics["mapping.h1_stale_pop_ratio"] =
      ratio(static_cast<double>(library_counter("h1.heap.stale_pops")),
            static_cast<double>(library_counter("h1.heap.pops")));
  outcome.metrics["exec.tasks_per_submission"] =
      ratio(static_cast<double>(library_counter("exec.tasks")),
            static_cast<double>(library_counter("exec.submissions")));
}

}  // namespace

Outcome run_plan_large(const RunConfig& config) {
  // A 512-process synthetic system (170 HW nodes) planned with
  // hierarchical H1, a fresh model per operation: model-to-model cost
  // varies by ~5%, so many models per run keep the median steady across
  // seeds. At 512 processes SW-graph build and assignment still take ~80%
  // of a plan; 1024-process plans are memory-bandwidth bound and on a
  // shared VM their median moved by a quarter from one minute to the
  // next. Smoke runs plan one 256-process model.
  const std::size_t processes = config.smoke ? 256 : 512;
  const int hw = config.smoke ? 85 : 170;
  auto model_for = [&](std::size_t i) {
    return synthetic(processes, model_seed(config.seed, 1000 + i), hw);
  };
  auto one_shot = [](const Model& model) {
    return QueryEngine::one_shot(protocol::Opcode::kMapping,
                                 payload(model, "h1h", Approach::kAImportance));
  };

  Outcome outcome;
  const Model warmup = synthetic(64, model_seed(config.seed, 1), 21);
  outcome.metrics["setup_s"] =
      median_setup_seconds(config.smoke ? 1 : kSetupReps,
                           [&] { (void)one_shot(warmup); });

  const double window = config.smoke ? 0.0
                        : config.trace ? config.seconds / 2
                                       : config.seconds;
  // Reports are kept for the traced replay to compare against; without
  // tracing only the first is kept, for the repeat check.
  std::vector<std::string> reports;
  std::uint64_t correct = 0;
  std::vector<Clock::time_point> starts;
  std::vector<Clock::time_point> ends;
  const std::vector<double> op_s =
      run_closed_loop(window, 1, starts, ends, [&](std::size_t i) {
        serve::QueryResult result = one_shot(model_for(i));
        ++outcome.attempted;
        if (result.feasible) {
          ++correct;
        } else {
          ++outcome.failed;
        }
        if (config.trace || reports.empty()) {
          reports.push_back(std::move(result.text));
        }
      });
  outcome.check(outcome.failed == 0, "every plan_large plan is feasible");
  set_closed_loop_metrics(outcome, op_s, correct, starts, ends);
  set_closed_loop_lag(outcome, starts, ends);

  if (!config.trace) {
    // Same model, same bytes: re-plan the first model once more.
    ++outcome.attempted;
    const bool same = one_shot(model_for(0)).text == reports.front();
    if (!same) ++outcome.failed;
    outcome.check(same, "plan bytes repeat for the same model");
    return outcome;
  }

  SpanRecorder spans;
  core::CacheStats separation;
  const Clock::time_point origin = Clock::now();
  start_traced_pass();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Model model = model_for(i);
    std::string report;
    {
      SpanRecorder::Scope root(&spans, "plan_large.op", i);
      const Platform platform = build_platform(spans, i, model);
      core::SeparationCache cache;
      const mapping::Plan plan =
          traced_plan(spans, i, platform, Heuristic::kH1Hierarchical,
                      Approach::kAImportance, &cache);
      report = traced_report(spans, i, platform, plan);
      separation.hits += cache.stats().hits;
      separation.misses += cache.stats().misses;
    }
    ++outcome.attempted;
    if (report != reports[i]) ++outcome.failed;
    outcome.check(report == reports[i],
                  "decomposed plan equals one_shot for " + model.name);
  }
  set_alloc_counting(false);
  set_layer_metrics(outcome, spans, "plan_large.op", quantile(op_s, 0.5));
  set_planner_counter_metrics(outcome, separation);
  outcome.trace_events = spans.chrome_events(1, origin);
  return outcome;
}

Outcome run_plan_sweep(const RunConfig& config) {
  // One operation is a heuristic=best sweep (approaches a and b) over the
  // paper's example98 and kSweepModels fresh synthetic-64 systems (21 HW
  // nodes). Sweep cost varies ~20% from model to model, so each pass
  // averages several models and every pass draws new ones.
  constexpr std::size_t kSweepModels = 4;
  const std::size_t models = config.smoke ? 1 : kSweepModels;
  auto pass_models = [&](std::size_t pass) {
    std::vector<Model> list = {example98()};
    for (std::size_t m = 0; m < models; ++m) {
      list.push_back(
          synthetic(64, model_seed(config.seed, 2000 + pass * models + m), 21));
    }
    return list;
  };
  constexpr Approach kApproaches[] = {Approach::kAImportance,
                                      Approach::kBLexicographic};
  auto one_pass = [&](std::size_t pass) {
    std::vector<serve::QueryResult> results;
    for (const Model& model : pass_models(pass)) {
      for (const Approach approach : kApproaches) {
        results.push_back(QueryEngine::one_shot(
            protocol::Opcode::kMapping, payload(model, "best", approach)));
      }
    }
    return results;
  };

  Outcome outcome;
  const Model warmup = synthetic(64, model_seed(config.seed, 1), 21);
  outcome.metrics["setup_s"] = median_setup_seconds(
      config.smoke ? 1 : kSetupReps, [&] {
        (void)QueryEngine::one_shot(
            protocol::Opcode::kMapping,
            payload(example98(), "best", Approach::kAImportance));
        (void)QueryEngine::one_shot(
            protocol::Opcode::kMapping,
            payload(warmup, "best", Approach::kAImportance));
      });

  const double window = config.smoke ? 0.0
                        : config.trace ? config.seconds / 2
                                       : config.seconds;
  // As in plan_large: every pass kept when tracing, else only the first.
  std::vector<std::vector<serve::QueryResult>> passes;
  std::uint64_t correct = 0;
  std::vector<Clock::time_point> starts;
  std::vector<Clock::time_point> ends;
  const std::vector<double> op_s =
      run_closed_loop(window, 1, starts, ends, [&](std::size_t pass) {
        std::vector<serve::QueryResult> results = one_pass(pass);
        ++outcome.attempted;
        bool ok = true;
        for (const serve::QueryResult& result : results) {
          ok = ok && result.feasible;
        }
        if (ok) {
          ++correct;
        } else {
          ++outcome.failed;
        }
        if (config.trace || passes.empty()) {
          passes.push_back(std::move(results));
        }
      });
  outcome.check(outcome.failed == 0, "every plan_sweep plan is feasible");
  set_closed_loop_metrics(outcome, op_s, correct, starts, ends);
  set_closed_loop_lag(outcome, starts, ends);

  if (!config.trace) {
    ++outcome.attempted;
    const std::vector<serve::QueryResult> again = one_pass(0);
    bool same = again.size() == passes.front().size();
    for (std::size_t i = 0; same && i < again.size(); ++i) {
      same = again[i].text == passes.front()[i].text;
    }
    if (!same) ++outcome.failed;
    outcome.check(same, "sweep bytes repeat for the same models");
    return outcome;
  }

  SpanRecorder spans;
  core::CacheStats separation;
  const Clock::time_point origin = Clock::now();
  start_traced_pass();
  for (std::size_t pass = 0; pass < passes.size(); ++pass) {
    std::vector<std::string> reports;
    {
      SpanRecorder::Scope root(&spans, "plan_sweep.op", pass);
      for (const Model& model : pass_models(pass)) {
        for (const Approach approach : kApproaches) {
          reports.push_back(
              traced_best_report(spans, pass, model, approach, separation));
        }
      }
    }
    ++outcome.attempted;
    bool same = reports.size() == passes[pass].size();
    for (std::size_t i = 0; same && i < reports.size(); ++i) {
      same = reports[i] == passes[pass][i].text;
    }
    if (!same) ++outcome.failed;
    outcome.check(same, "best traced candidate equals best_plan, pass " +
                            std::to_string(pass));
  }
  set_alloc_counting(false);
  set_layer_metrics(outcome, spans, "plan_sweep.op", quantile(op_s, 0.5));
  set_planner_counter_metrics(outcome, separation);
  outcome.trace_events = spans.chrome_events(2, origin);
  return outcome;
}

}  // namespace fcm::e2e
