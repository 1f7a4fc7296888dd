// assess: the Monte Carlo, fault-injection campaign, rare-event and
// adversary engines on finished plans. Mapping runs only in setup, so the
// measured operation is all dependability/resilience work (and the SIMD
// kernels and executor underneath it).
#include <cstdio>
#include <optional>

#include "core/example98.h"
#include "core/synthetic.h"
#include "dependability/montecarlo.h"
#include "mapping/planner.h"
#include "resilience/adversary.h"
#include "resilience/bounds.h"
#include "resilience/campaign.h"
#include "resilience/rare_event.h"
#include "workloads.h"

namespace fcm::e2e {

namespace {

constexpr int kSetupReps = 5;
constexpr double kRareQ = 0.01;

/// A planned system: its SW graph, platform, best plan and scenario grid.
struct Planned {
  mapping::HwGraph hw;
  std::optional<mapping::SwGraph> sw;
  mapping::Plan plan;
  std::vector<resilience::Scenario> grid;
};

Planned plan_best(const core::FcmHierarchy& hierarchy,
                  const core::InfluenceModel& influence,
                  const std::vector<FcmId>& processes, int hw_nodes) {
  Planned planned{mapping::HwGraph::complete(hw_nodes), std::nullopt, {}, {}};
  mapping::IntegrationPlanner planner(hierarchy, influence, processes,
                                      planned.hw);
  planned.plan = planner.best_plan();
  planned.sw = planner.sw_graph();
  planned.grid = resilience::standard_grid(
      *planned.sw, planned.plan.clustering.partition,
      planned.plan.assignment, planned.hw);
  return planned;
}

struct Sizes {
  std::uint32_t mc_trials;
  std::uint32_t campaign98_trials;
  std::uint32_t campaign64_trials;
  std::uint32_t rare_trials;
};

/// What one assessment produced; `text` is every result rendered
/// deterministically, for the repeat and thread-count checks.
struct Assessment {
  std::string text;
  std::string thread_invariant;  // campaign, rare-event and adversary JSON
  double mc_critical_survival = 0.0;
  resilience::SurvivalBounds mc_bounds;
  std::uint32_t mc_trials = 0;
  bool rare_consistent = false;
  double ess_ratio = 0.0;
  std::uint64_t campaign_trials = 0;
  std::uint64_t adversary_evaluations = 0;
  std::uint64_t adversary_cache_hits = 0;
};

Assessment assess(const Planned& e98, const Planned& s64, const Sizes& sizes,
                  std::uint64_t seed, std::uint32_t threads,
                  SpanRecorder* spans, std::uint64_t op) {
  Assessment out;
  const auto& sw = *e98.sw;
  const auto& partition = e98.plan.clustering.partition;
  {
    SpanRecorder::Scope span(spans, "dependability.evaluate_mapping", op);
    dependability::MissionModel mission;
    mission.hw_failure = Probability(0.05);
    mission.trials = sizes.mc_trials;
    mission.threads = threads;
    const dependability::DependabilityReport report =
        dependability::evaluate_mapping(sw, e98.plan.clustering,
                                        e98.plan.assignment, e98.hw, mission,
                                        derive_seed(seed, 3001));
    char line[160];
    std::snprintf(line, sizeof line, "mc %.17g %.17g %.17g\n",
                  report.system_survival, report.critical_survival,
                  report.expected_criticality_loss);
    out.text += line;
    out.mc_critical_survival = report.critical_survival;
    out.mc_trials = report.trials;
  }
  {
    SpanRecorder::Scope span(spans, "resilience.campaign", op);
    resilience::CampaignOptions options;
    options.threads = threads;
    options.trials = sizes.campaign98_trials;
    const resilience::ResilienceReport r98 = resilience::run_campaign(
        sw, partition, e98.plan.assignment, e98.hw, e98.grid,
        derive_seed(seed, 3002), options);
    options.trials = sizes.campaign64_trials;
    const resilience::ResilienceReport r64 = resilience::run_campaign(
        *s64.sw, s64.plan.clustering.partition, s64.plan.assignment, s64.hw,
        s64.grid, derive_seed(seed, 3003), options);
    out.thread_invariant += resilience::to_json(r98) + resilience::to_json(r64);
    out.campaign_trials =
        static_cast<std::uint64_t>(sizes.campaign98_trials) * e98.grid.size() +
        static_cast<std::uint64_t>(sizes.campaign64_trials) * s64.grid.size();
  }
  {
    SpanRecorder::Scope span(spans, "resilience.rare_event", op);
    resilience::RareEventOptions options;
    options.hw_failure = Probability(kRareQ);
    options.trials = sizes.rare_trials;
    options.threads = threads;
    const resilience::RareEventEstimate estimate =
        resilience::estimate_rare_event(sw, e98.plan.clustering,
                                        e98.plan.assignment, e98.hw, options,
                                        derive_seed(seed, 3004));
    out.thread_invariant += resilience::to_json(estimate);
    out.rare_consistent = estimate.bound_consistent;
    out.ess_ratio =
        ratio(estimate.effective_samples, static_cast<double>(estimate.trials));
  }
  {
    SpanRecorder::Scope span(spans, "resilience.bounds", op);
    resilience::MissionBoundOptions options;
    options.hw_failure = Probability(0.05);
    out.mc_bounds =
        resilience::mission_bounds(sw, partition, e98.plan.assignment, options)
            .critical;
  }
  {
    SpanRecorder::Scope span(spans, "resilience.adversary", op);
    resilience::AdversaryOptions options;
    options.campaign.threads = threads;
    const resilience::AdversaryResult worst = resilience::find_worst_case(
        sw, partition, e98.plan.assignment, e98.hw, derive_seed(seed, 3005),
        options);
    out.thread_invariant += resilience::to_json(worst);
    out.adversary_evaluations = worst.evaluations;
    out.adversary_cache_hits = worst.cache_hits;
  }
  out.text += out.thread_invariant;
  return out;
}

}  // namespace

Outcome run_assess(const RunConfig& config) {
  // Sized so that one assessment takes about a second on two threads and
  // no engine hides the others: the campaigns take about half, Monte Carlo
  // a fifth, the adversary and rare-event search the rest.
  const Sizes sizes = config.smoke ? Sizes{200'000, 32, 8, 20'000}
                                   : Sizes{2'000'000, 256, 32, 200'000};
  Outcome outcome;
  std::optional<Planned> e98;
  std::optional<Planned> s64;
  outcome.metrics["setup_s"] =
      median_setup_seconds(config.smoke ? 1 : kSetupReps, [&] {
        const core::example98::Instance instance =
            core::example98::make_instance();
        e98 = plan_best(instance.hierarchy, instance.influence,
                        instance.processes, core::example98::kHwNodes);
        const core::synthetic::System system = core::synthetic::make_system(
            64, model_seed(config.seed, 3100));
        s64 = plan_best(system.hierarchy, system.influence, system.processes,
                        21);
      });

  const double window = config.smoke ? 0.0
                        : config.trace ? config.seconds / 2
                                       : config.seconds;
  // Only the first result is kept; every later one is compared with it as
  // it finishes, so the benchmark's own storage does not grow with the run.
  std::optional<Assessment> first;
  std::uint64_t correct = 0;
  auto record = [&](const Assessment& a, const char* what) {
    if (!first) first = a;
    const double tolerance = resilience::binomial_halfwidth(
        a.mc_critical_survival, a.mc_trials);
    const bool ok = a.text == first->text && a.rare_consistent &&
                    a.mc_bounds.contains(a.mc_critical_survival, tolerance);
    ++outcome.attempted;
    if (ok) {
      ++correct;
    } else {
      ++outcome.failed;
    }
    outcome.check(ok, what);
  };
  std::vector<Clock::time_point> starts;
  std::vector<Clock::time_point> ends;
  // threads = 0 resolves through FCM_THREADS, which fcm_bench sets to 2
  // for this workload.
  const std::vector<double> op_s =
      run_closed_loop(window, 1, starts, ends, [&](std::size_t) {
        record(assess(*e98, *s64, sizes, config.seed, 0, nullptr, 0),
               "assessments repeat and lie inside their bounds");
      });
  set_closed_loop_metrics(outcome, op_s, correct, starts, ends);
  set_closed_loop_lag(outcome, starts, ends);

  if (!config.trace) {
    // One untimed assessment on one thread: campaign, rare-event and
    // adversary JSON must not depend on the thread count.
    ++outcome.attempted;
    const bool same =
        assess(*e98, *s64, sizes, config.seed, 1, nullptr, 0)
            .thread_invariant == first->thread_invariant;
    if (!same) ++outcome.failed;
    outcome.check(same, "resilience JSON identical at threads 1 and 2");
    return outcome;
  }

  SpanRecorder spans;
  const Clock::time_point origin = Clock::now();
  start_traced_pass();
  for (std::size_t i = 0; i < op_s.size(); ++i) {
    std::optional<Assessment> traced;
    {
      SpanRecorder::Scope root(&spans, "assess.op", i);
      traced = assess(*e98, *s64, sizes, config.seed, 0, &spans, i);
    }
    record(*traced, "traced assessment equals the untraced one");
  }
  set_alloc_counting(false);
  set_layer_metrics(outcome, spans, "assess.op", quantile(op_s, 0.5));

  double evaluate_s = 0.0;
  double campaign_s = 0.0;
  const SpanRecorder::SelfTotals self = spans.self_totals();
  for (std::size_t i = 0; i < self.names.size(); ++i) {
    if (self.names[i] == "dependability.evaluate_mapping") {
      evaluate_s = self.seconds[i];
    } else if (self.names[i] == "resilience.campaign") {
      campaign_s = self.seconds[i];
    }
  }
  const auto n = static_cast<double>(op_s.size());
  outcome.metrics["dependability.trials_per_s"] =
      ratio(n * first->mc_trials, evaluate_s);
  outcome.metrics["resilience.campaign_trials_per_s"] =
      ratio(n * static_cast<double>(first->campaign_trials), campaign_s);
  outcome.metrics["resilience.rare_event_ess_ratio"] = first->ess_ratio;
  outcome.metrics["resilience.adversary_cache_hit_ratio"] =
      ratio(static_cast<double>(first->adversary_cache_hits),
            static_cast<double>(first->adversary_cache_hits +
                                first->adversary_evaluations));
  outcome.metrics["exec.tasks_per_submission"] =
      ratio(static_cast<double>(library_counter("exec.tasks")),
            static_cast<double>(library_counter("exec.submissions")));
  outcome.trace_events = spans.chrome_events(3, origin);
  return outcome;
}

}  // namespace fcm::e2e
