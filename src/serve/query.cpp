#include "serve/query.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/cliopt.h"
#include "common/probability.h"
#include "common/table.h"
#include "core/influence_analysis.h"
#include "core/synthetic.h"
#include "dependability/montecarlo.h"
#include "graph/digraph.h"
#include "mapping/replanner.h"
#include "obs/obs.h"
#include "resilience/adversary.h"
#include "resilience/rare_event.h"

namespace fcm::serve {

namespace {

// Fixed constants shared with the one-shot fcm_tool commands. The Monte
// Carlo seed is part of the byte-identity contract: a depend query is a
// pure function of its parameters only because the seed is pinned.
constexpr std::uint64_t kDependSeed = 2026;
constexpr int kDefaultTrials = 20'000;
constexpr double kDefaultHwFailure = 0.05;

/// Splits "key=value key=value ..." into strict options. Unknown keys and
/// tokens without '=' are request errors — silently ignoring them would
/// let a typo'd query return the wrong (default-parameter) answer.
cli::Options parse_params(std::string_view payload,
                          std::initializer_list<std::string_view> allowed) {
  cli::Options options;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t end = payload.find(' ', pos);
    const std::string_view token = payload.substr(
        pos, end == std::string_view::npos ? std::string_view::npos
                                           : end - pos);
    pos = end == std::string_view::npos ? payload.size() : end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw QueryError("malformed parameter '" + std::string(token) +
                       "' (expected key=value)");
    }
    const std::string_view key = token.substr(0, eq);
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw QueryError("unknown parameter '" + std::string(key) + "'");
    }
    options.set_value(std::string(key), std::string(token.substr(eq + 1)));
  }
  return options;
}

/// Typed getters below throw CliError on malformed numbers; surface those
/// as request errors so the server answers kBadRequest instead of dying.
template <typename Fn>
auto as_query_error(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const cli::CliError& error) {
    throw QueryError(error.what());
  }
}

/// Strict base-10 parse; rejects empty, non-digit, and overflowing text.
bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Recognizes "synthetic-<processes>-<seed>" model names — the deterministic
/// systems of core::synthetic::make_system, shared with the scale bench and
/// `fcm_tool plan --synthetic`, so plans can be byte-compared across tools.
bool parse_synthetic(const std::string& name, std::size_t* processes,
                     std::uint64_t* seed) {
  constexpr std::string_view kPrefix = "synthetic-";
  const std::string_view view(name);
  if (view.substr(0, kPrefix.size()) != kPrefix) return false;
  const std::size_t dash = view.find('-', kPrefix.size());
  if (dash == std::string_view::npos) return false;
  std::uint64_t n = 0;
  std::uint64_t s = 0;
  if (!parse_u64(view.substr(kPrefix.size(), dash - kPrefix.size()), &n) ||
      !parse_u64(view.substr(dash + 1), &s)) {
    return false;
  }
  if (n < 2 || n > 8192) return false;
  *processes = static_cast<std::size_t>(n);
  *seed = s;
  return true;
}

/// Model registry lookup for opcodes that can plan any model: "example98"
/// or "synthetic-N-S" with N in [2, 8192].
std::string model_name(const cli::Options& params) {
  const std::string model = params.get("model", "example98");
  std::size_t n = 0;
  std::uint64_t s = 0;
  if (model != "example98" && !parse_synthetic(model, &n, &s)) {
    throw QueryError("unknown model '" + model +
                     "' (want example98 or synthetic-<processes>-<seed> "
                     "with processes in [2, 8192])");
  }
  return model;
}

/// Opcodes whose renderers read the example98 fleet directly still demand
/// it explicitly.
void check_model(const cli::Options& params) {
  const std::string model = params.get("model", "example98");
  if (model != "example98") {
    throw QueryError("unknown model '" + model + "'");
  }
}

int hw_nodes(const cli::Options& params) {
  const int hw = as_query_error(
      [&] { return params.get_int("hw", core::example98::kHwNodes); });
  if (hw < 1 || hw > 4096) {
    throw QueryError("hw must be in [1, 4096], got " + std::to_string(hw));
  }
  return hw;
}

/// A probability parameter (q); NaN and values outside [0, 1] are request
/// errors, not the Probability constructor's precondition failure.
Probability probability_param(const cli::Options& params,
                              const std::string& key, double fallback) {
  const double value =
      as_query_error([&] { return params.get_double(key, fallback); });
  if (!(value >= 0.0 && value <= 1.0)) {
    throw QueryError(key + " must be in [0, 1], got " + params.get(key, ""));
  }
  return Probability(value);
}

/// A non-negative count parameter (trials, threads, restarts, ...);
/// negative values are request errors rather than 32-bit wraparounds.
std::uint32_t count_param(const cli::Options& params, const std::string& key,
                          int fallback) {
  return as_query_error([&] { return params.get_count(key, fallback); });
}

mapping::Heuristic parse_heuristic(const std::string& name) {
  if (name == "h1") return mapping::Heuristic::kH1Greedy;
  if (name == "h1r") return mapping::Heuristic::kH1Rounds;
  if (name == "h1h") return mapping::Heuristic::kH1Hierarchical;
  if (name == "h2") return mapping::Heuristic::kH2MinCut;
  if (name == "h3") return mapping::Heuristic::kH3Importance;
  if (name == "crit") return mapping::Heuristic::kCriticalityPairing;
  if (name == "timing") return mapping::Heuristic::kTimingOrdered;
  throw QueryError("unknown heuristic: " + name);
}

mapping::Approach parse_approach(const std::string& name) {
  if (name == "a") return mapping::Approach::kAImportance;
  if (name == "b") return mapping::Approach::kBLexicographic;
  throw QueryError("unknown approach: " + name + " (want a|b)");
}

/// Parses "0,2,5" into sorted, deduplicated HW node ids within the
/// platform.
std::vector<HwNodeId> parse_failed(const std::string& list,
                                            std::size_t hw_count) {
  std::vector<HwNodeId> failed;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t end = list.find(',', pos);
    const std::string item = list.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    pos = end == std::string::npos ? list.size() + 1 : end + 1;
    if (item.empty()) {
      throw QueryError("malformed fail list '" + list + "'");
    }
    std::size_t parsed = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(item, &parsed);
    } catch (const std::exception&) {
      throw QueryError("malformed fail entry '" + item + "'");
    }
    if (parsed != item.size()) {
      throw QueryError("malformed fail entry '" + item + "'");
    }
    if (value >= hw_count) {
      throw QueryError("fail entry " + item + " out of range (platform has " +
                       std::to_string(hw_count) + " nodes)");
    }
    failed.emplace_back(static_cast<std::uint32_t>(value));
    if (end == std::string::npos) break;
  }
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  if (failed.size() >= hw_count) {
    throw QueryError("fail list removes every HW node");
  }
  return failed;
}

}  // namespace

/// One model×platform resident state: the planner plus every plan it has
/// computed. `mutex` serializes planning; evaluation of a cached plan runs
/// outside the lock.
struct QueryEngine::PlatformState {
  mapping::HwGraph hw;
  mapping::IntegrationPlanner planner;
  std::mutex mutex;
  std::map<std::pair<std::string, char>, mapping::Plan> plans;

  PlatformState(const core::FcmHierarchy& hierarchy,
                const core::InfluenceModel& influence,
                std::vector<FcmId> processes, int nodes)
      : hw(mapping::HwGraph::complete(nodes)),
        planner(hierarchy, influence, std::move(processes), hw,
                resident_options()) {}

  /// The resident planner sweeps heuristics on every core.
  static mapping::PlanOptions resident_options() {
    mapping::PlanOptions options;
    options.sweep_threads = 0;
    return options;
  }

  /// Computes (or replays) the plan for one heuristic+approach pair.
  const mapping::Plan& plan_for(const std::string& heuristic,
                                mapping::Approach approach) {
    const char approach_key =
        approach == mapping::Approach::kBLexicographic ? 'b' : 'a';
    const std::lock_guard<std::mutex> lock(mutex);
    const auto key = std::make_pair(heuristic, approach_key);
    auto it = plans.find(key);
    if (it != plans.end()) {
      FCM_OBS_COUNT("serve.plan_cache.hits", 1);
      return it->second;
    }
    FCM_OBS_COUNT("serve.plan_cache.misses", 1);
    mapping::Plan plan = heuristic == "best"
                             ? planner.best_plan(approach)
                             : planner.plan(parse_heuristic(heuristic),
                                            approach);
    return plans.emplace(key, std::move(plan)).first->second;
  }
};

QueryEngine::QueryEngine() : instance_(core::example98::make_instance()) {}
QueryEngine::~QueryEngine() = default;

QueryEngine::PlatformState& QueryEngine::platform(const std::string& model,
                                                  int hw) {
  const std::lock_guard<std::mutex> lock(platforms_mutex_);
  const auto key = std::make_pair(model, hw);
  auto it = platforms_.find(key);
  if (it == platforms_.end()) {
    std::unique_ptr<PlatformState> state;
    std::size_t n = 0;
    std::uint64_t seed = 0;
    if (parse_synthetic(model, &n, &seed)) {
      // Generated fresh per (model, hw) platform; the planner's SwGraph
      // keeps everything it needs, so the System itself is transient.
      const core::synthetic::System sys = core::synthetic::make_system(n, seed);
      state = std::make_unique<PlatformState>(sys.hierarchy, sys.influence,
                                              sys.processes, hw);
    } else {
      state = std::make_unique<PlatformState>(
          instance_.hierarchy, instance_.influence, instance_.processes, hw);
    }
    it = platforms_.emplace(key, std::move(state)).first;
  }
  return *it->second;
}

QueryResult QueryEngine::run(protocol::Opcode opcode,
                             std::string_view payload) {
  // Ping echoes and metrics snapshots are live by design; everything else
  // is a pure function of (opcode, payload) and replays from the memo.
  if (opcode == protocol::Opcode::kPing ||
      opcode == protocol::Opcode::kMetrics) {
    return evaluate(opcode, payload);
  }
  const auto key = std::make_pair(static_cast<std::uint16_t>(opcode),
                                  std::string(payload));
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++memo_stats_.hits;
      FCM_OBS_COUNT("serve.memo.hits", 1);
      return it->second;
    }
  }
  QueryResult result = evaluate(opcode, payload);
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    // A racing worker may have evaluated the same query; both results are
    // byte-identical by the determinism contract, so first insert wins.
    const auto inserted = memo_.emplace(key, result);
    if (inserted.second) {
      ++memo_stats_.misses;
      FCM_OBS_COUNT("serve.memo.misses", 1);
    } else {
      ++memo_stats_.hits;
      FCM_OBS_COUNT("serve.memo.hits", 1);
    }
  }
  return result;
}

QueryResult QueryEngine::one_shot(protocol::Opcode opcode,
                                  std::string_view payload) {
  QueryEngine engine;
  return engine.evaluate(opcode, payload);
}

QueryResult QueryEngine::evaluate(protocol::Opcode opcode,
                                  std::string_view payload) {
  FCM_OBS_COUNT("serve.query." + protocol::opcode_name(opcode), 1);
  switch (opcode) {
    case protocol::Opcode::kInfluence: {
      const cli::Options params = parse_params(payload, {"model"});
      check_model(params);
      std::ostringstream out;
      const graph::Digraph g = instance_.influence.to_graph();
      for (const graph::Edge& e : g.edges()) {
        out << instance_.influence.member_name(e.from) << " -> "
            << instance_.influence.member_name(e.to) << "  " << e.weight
            << '\n';
      }
      out << "\nroles (threshold 0.3):\n";
      for (const auto& s : core::summarize_influence(instance_.influence)) {
        out << "  " << s.name << "  out=" << fmt(s.out_influence)
            << " in=" << fmt(s.in_influence) << "  "
            << core::to_string(core::classify(s)) << '\n';
      }
      return {out.str(), true};
    }

    case protocol::Opcode::kMapping: {
      const cli::Options params = parse_params(
          payload, {"model", "hw", "heuristic", "approach"});
      const std::string model = model_name(params);
      const int hw = hw_nodes(params);
      const mapping::Approach approach =
          parse_approach(params.get("approach", "a"));
      const std::string heuristic = params.get("heuristic", "best");
      if (heuristic != "best") (void)parse_heuristic(heuristic);  // validate
      PlatformState& state = platform(model, hw);
      const mapping::Plan& plan = state.plan_for(heuristic, approach);
      return {plan.report(state.planner.sw_graph(), state.hw),
              plan.quality.constraints_satisfied()};
    }

    case protocol::Opcode::kDepend: {
      const cli::Options params = parse_params(
          payload, {"model", "hw", "q", "trials", "threads"});
      check_model(params);
      const int hw = hw_nodes(params);
      PlatformState& state = platform("example98", hw);
      const mapping::Plan& plan =
          state.plan_for("best", mapping::Approach::kAImportance);
      dependability::MissionModel mission;
      mission.hw_failure = probability_param(params, "q", kDefaultHwFailure);
      mission.trials = count_param(params, "trials", kDefaultTrials);
      mission.threads = count_param(params, "threads", 0);
      if (mission.trials == 0) throw QueryError("trials must be positive");
      const auto report = dependability::evaluate_mapping(
          state.planner.sw_graph(), plan.clustering, plan.assignment,
          state.hw, mission, kDependSeed);
      std::ostringstream out;
      TextTable table({"process", "survival"});
      for (std::size_t p = 0; p < report.process_survival.size(); ++p) {
        table.add_row({"p" + std::to_string(p + 1),
                       fmt(report.process_survival[p], 4)});
      }
      out << table.render();
      out << "system survival:      " << fmt(report.system_survival, 4)
          << "\ncritical survival:    " << fmt(report.critical_survival, 4)
          << "\nE[criticality loss]:  "
          << fmt(report.expected_criticality_loss, 3)
          << "\nworkers / blocks:     " << report.threads_used << " / "
          << report.blocks << '\n';
      return {out.str(), true};
    }

    case protocol::Opcode::kReplan: {
      const cli::Options params = parse_params(
          payload, {"model", "hw", "fail", "heuristic", "approach"});
      check_model(params);
      const int hw = hw_nodes(params);
      PlatformState& state = platform("example98", hw);
      const mapping::Approach approach =
          parse_approach(params.get("approach", "a"));
      const mapping::Plan& plan =
          state.plan_for(params.get("heuristic", "best"), approach);
      const std::vector<HwNodeId> failed =
          parse_failed(params.get("fail", "0"), state.hw.node_count());
      const mapping::ReplanResult result = mapping::replan_after_loss(
          state.planner.sw_graph(), plan.clustering.partition,
          plan.assignment, state.hw, failed);
      return {result.report(state.hw, failed), result.feasible};
    }

    case protocol::Opcode::kAdversary: {
      const cli::Options params = parse_params(
          payload, {"model", "hw", "trials", "threads", "restarts",
                    "iterations", "neighbors", "max_events", "max_crashes",
                    "anneal", "seed"});
      const std::string model = model_name(params);
      const int hw = hw_nodes(params);
      PlatformState& state = platform(model, hw);
      const mapping::Plan& plan =
          state.plan_for("best", mapping::Approach::kAImportance);
      resilience::AdversaryOptions options;
      std::uint64_t seed = kDependSeed;
      options.campaign.trials = count_param(params, "trials", 96);
      options.campaign.threads = count_param(params, "threads", 0);
      options.restarts = count_param(params, "restarts", 3);
      options.iterations = count_param(params, "iterations", 16);
      options.neighbors = count_param(params, "neighbors", 6);
      options.max_events = count_param(params, "max_events", 3);
      options.max_crashes = count_param(params, "max_crashes", 2);
      as_query_error([&] {
        options.anneal = params.get_int("anneal", 0) != 0;
        seed = static_cast<std::uint64_t>(
            params.get_int("seed", static_cast<int>(kDependSeed)));
        return 0;
      });
      if (options.campaign.trials == 0) {
        throw QueryError("trials must be positive");
      }
      if (options.restarts == 0) throw QueryError("restarts must be positive");
      const resilience::AdversaryResult result = resilience::find_worst_case(
          state.planner.sw_graph(), plan.clustering.partition,
          plan.assignment, state.hw, seed, options);
      return {resilience::to_json(result) + "\n", result.bound_consistent};
    }

    case protocol::Opcode::kRareEvent: {
      const cli::Options params = parse_params(
          payload, {"model", "hw", "q", "trials", "threads", "tilt", "pilot",
                    "levels", "seed"});
      const std::string model = model_name(params);
      const int hw = hw_nodes(params);
      PlatformState& state = platform(model, hw);
      const mapping::Plan& plan =
          state.plan_for("best", mapping::Approach::kAImportance);
      resilience::RareEventOptions options;
      std::uint64_t seed = kDependSeed;
      options.trials = count_param(params, "trials", 10'000);
      options.threads = count_param(params, "threads", 0);
      options.pilot_trials = count_param(params, "pilot", 512);
      options.max_levels = count_param(params, "levels", 6);
      options.hw_failure = probability_param(params, "q", kDefaultHwFailure);
      as_query_error([&] {
        options.tilt = params.get_double("tilt", 0.0);
        seed = static_cast<std::uint64_t>(
            params.get_int("seed", static_cast<int>(kDependSeed)));
        return 0;
      });
      if (options.trials == 0) throw QueryError("trials must be positive");
      // Written so that NaN fails it too.
      if (!(options.tilt >= 0.0 && options.tilt < 1.0)) {
        throw QueryError("tilt must be in [0, 1)");
      }
      const resilience::RareEventEstimate estimate =
          resilience::estimate_rare_event(state.planner.sw_graph(),
                                          plan.clustering, plan.assignment,
                                          state.hw, options, seed);
      return {resilience::to_json(estimate) + "\n", estimate.bound_consistent};
    }

    case protocol::Opcode::kPing:
      return {std::string(payload), true};

    case protocol::Opcode::kMetrics:
      return {obs::metrics_json(obs::MetricsRegistry::global().snapshot()),
              true};
  }
  throw QueryError("unknown opcode " +
                   std::to_string(static_cast<std::uint16_t>(opcode)));
}

QueryEngine::MemoStats QueryEngine::memo_stats() const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_stats_;
}

}  // namespace fcm::serve
