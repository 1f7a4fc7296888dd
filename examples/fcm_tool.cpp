// fcm_tool — a small command-line driver over the framework, operating on
// the paper's §6 example system. Useful for exploring heuristics and
// platform sizes without writing code:
//
//   fcm_tool plan  [--hw N] [--heuristic h1|h1r|h1h|h2|h3|crit|timing]
//                  [--approach a|b] [--synthetic P] [--seed S]
//   fcm_tool table                       # print Table 1
//   fcm_tool influence                   # print the Fig. 3 graph + roles
//   fcm_tool separation [--order K]      # Eq. 3 separation matrix
//   fcm_tool depend [--hw N] [--q P] [--trials N]
//   fcm_tool replan [--hw N] [--fail LIST] [--heuristic H] [--approach a|b]
//   fcm_tool resilience [--hw N] [--trials N] [--horizon-ms M] [--seed S]
//   fcm_tool serve [--port P] [--workers N] [--port-file F] ...
//   fcm_tool query --port P --op OP [--params "k=v ..."]
//
// The influence / plan / depend / replan commands evaluate through
// serve::QueryEngine::one_shot — the same renderer the resident `fcm_tool
// serve` daemon answers socket queries with — so the daemon's responses
// are byte-identical to this tool's stdout by construction (and CI
// cmp(1)s them to keep it that way).
//
// Every command also accepts --metrics (dump the fcm::obs registry after
// the run) and --trace FILE (write a chrome://tracing span file). Options
// are validated strictly: unknown options, missing values, malformed
// numbers, out-of-range values and options the selected resilience mode
// does not read print a one-line error plus usage and exit 2. Parallel work runs on FCM_THREADS lanes, or on every hardware
// core when it is unset; only depend's `workers / blocks` line shows it.
#include <atomic>
#include <csignal>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "fcm.h"
#include "common/cliopt.h"
#include "common/table.h"
#include "core/report.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/query.h"
#include "serve/server.h"

using namespace fcm;

namespace {

struct CommandSpec {
  std::string name;
  std::vector<cli::OptionSpec> options;
};

// Declared per command so a typo'd or misplaced option fails loudly instead
// of being silently ignored. --metrics/--trace are shared by every command.
const std::vector<CommandSpec> kCommands = {
    {"table", {}},
    {"report", {}},
    {"influence", {}},
    {"separation", {{"order"}}},
    {"plan",
     {{"hw"}, {"heuristic"}, {"approach"}, {"synthetic"}, {"seed"}}},
    {"depend", {{"hw"}, {"q"}, {"trials"}}},
    {"replan", {{"hw"}, {"fail"}, {"heuristic"}, {"approach"}}},
    {"resilience",
     {{"hw"}, {"trials"}, {"horizon-ms"}, {"seed"},
      {"synthetic"}, {"adversary", /*takes_value=*/false},
      {"rare-event", /*takes_value=*/false}, {"restarts"}, {"iterations"},
      {"neighbors"}, {"max-events"}, {"max-crashes"},
      {"anneal", /*takes_value=*/false}, {"q"}, {"tilt"}, {"pilot"},
      {"levels"}}},
    {"serve",
     {{"host"}, {"port"}, {"workers"}, {"port-file"}, {"idle-timeout-ms"},
      {"max-frame-kb"}, {"max-connections"}, {"max-queued"},
      {"max-queued-per-conn"}}},
    {"query",
     {{"host"}, {"port"}, {"op"}, {"params"}, {"timeout-ms"}, {"retries"}}},
};

int usage() {
  std::cout <<
      "usage: fcm_tool <command> [options]\n"
      "  table                               print Table 1\n"
      "  report                              full system report\n"
      "  influence                           Fig. 3 graph + 4.2.4 roles\n"
      "  separation [--order K]              Eq. 3 separation matrix\n"
      "  plan [--hw N] [--heuristic H] [--approach a|b] [--synthetic P]\n"
      "       [--seed S]\n"
      "       H in {h1, h1r, h1h, h2, h3, crit, timing, best}; --synthetic\n"
      "       plans a deterministic seeded random system of P processes\n"
      "       instead of example98 (h1h scales to thousands)\n"
      "  depend [--hw N] [--q P] [--trials N]\n"
      "       Monte Carlo evaluation\n"
      "  replan [--hw N] [--fail LIST] [--heuristic H] [--approach a|b]\n"
      "       graceful degradation after losing the HW nodes in LIST\n"
      "       (comma-separated indices, default 0); exit 1 if infeasible\n"
      "  resilience [--hw N] [--trials N] [--horizon-ms M] [--seed S]\n"
      "       fault-scenario campaign + graceful-degradation replanning;\n"
      "       JSON on stdout\n"
      "  resilience --adversary [--restarts R] [--iterations I]\n"
      "             [--neighbors K] [--max-events E] [--max-crashes C]\n"
      "             [--anneal] [--synthetic P] [--hw N] [--trials N]\n"
      "             [--seed S]\n"
      "       adversarial search for the worst-case fault schedule of the\n"
      "       best plan; certifies the minimizing scenario against the\n"
      "       compositional bounds; exit 1 if the bound check fails\n"
      "  resilience --rare-event [--q P] [--tilt Q] [--pilot N]\n"
      "             [--levels L] [--synthetic P] [--hw N] [--trials N]\n"
      "             [--seed S]\n"
      "       importance-sampled survival estimate with a 99% CI, tilt\n"
      "       chosen by a pilot ladder when --tilt is omitted; exit 1 if\n"
      "       the estimate is inconsistent with the compositional bounds\n"
      "  serve [--host H] [--port P] [--workers N] [--port-file F]\n"
      "        [--idle-timeout-ms M] [--max-frame-kb K]\n"
      "        [--max-connections N] [--max-queued N]\n"
      "        [--max-queued-per-conn N]\n"
      "       resident planning daemon answering mapping/influence/depend/\n"
      "       replan queries over a length-prefixed socket protocol;\n"
      "       P=0 picks an ephemeral port (printed, and written to F);\n"
      "       the --max-* bounds are admission control (0 disables one;\n"
      "       overflow answers kOverloaded, shedding heavy opcodes first);\n"
      "       SIGINT/SIGTERM drain in-flight requests and exit 0, printing\n"
      "       the terminal-outcome ledger and its balance verdict\n"
      "  query --port P --op OP [--host H] [--params \"k=v ...\"]\n"
      "        [--timeout-ms M] [--retries R]\n"
      "       one client request against a running daemon; OP in\n"
      "       {mapping, influence, depend, replan, ping, metrics,\n"
      "        adversary, rare-event};\n"
      "       the response payload is printed verbatim; --retries R\n"
      "       re-sends on connection failure/kOverloaded/kShuttingDown\n"
      "       with exponential backoff (safe: queries are pure)\n"
      "global options (any command):\n"
      "  --metrics                           dump the fcm::obs registry\n"
      "  --trace FILE                        write chrome://tracing spans\n"
      "parallel work runs on FCM_THREADS lanes (all hardware cores when\n"
      "unset); only depend's workers / blocks line depends on it\n";
  return 2;
}

int cmd_table() {
  TextTable table({"Process", "C", "FT", "EST", "TCD", "CT"});
  for (const auto& spec : core::example98::table1()) {
    table.add_row({spec.name, std::to_string(spec.criticality),
                   std::to_string(spec.replication),
                   std::to_string(spec.est_ms), std::to_string(spec.tcd_ms),
                   std::to_string(spec.ct_ms)});
  }
  std::cout << table.render();
  return 0;
}

int cmd_report() {
  const auto instance = core::example98::make_instance();
  std::cout << core::system_report(instance.hierarchy, instance.influence);
  return 0;
}

int cmd_separation(const cli::Options& args) {
  const auto instance = core::example98::make_instance();
  core::SeparationOptions options;
  options.max_order = args.get_int("order", 6);
  if (options.max_order < 1) throw cli::CliError("--order must be >= 1");
  const core::SeparationAnalysis analysis(instance.influence, options);
  std::vector<std::string> headers{"sep"};
  for (int k = 1; k <= 8; ++k) headers.push_back("p" + std::to_string(k));
  TextTable table(headers);
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<std::string> row{"p" + std::to_string(i + 1)};
    for (std::size_t j = 0; j < 8; ++j) {
      row.push_back(i == j ? "-" : fmt(analysis.separation(i, j).value(), 2));
    }
    table.add_row(row);
  }
  std::cout << table.render();
  return 0;
}

// Forwards one CLI option into the query payload when it was given,
// letting serve::QueryEngine apply the (single, shared) defaults.
void forward(const cli::Options& args, const std::string& cli_name,
             const std::string& param_name, std::string& payload) {
  const std::string value = args.get(cli_name, "");
  if (value.empty()) return;
  if (!payload.empty()) payload += ' ';
  payload += param_name + "=" + value;
}

// Evaluates one query through the shared one-shot renderer — exactly what
// the serve daemon would answer — and prints it. Exit 1 when the result is
// infeasible (plan constraints violated / replan failed).
int run_one_shot(serve::protocol::Opcode opcode, const cli::Options& args,
                 const std::vector<std::pair<std::string, std::string>>&
                     forwards) {
  std::string payload;
  for (const auto& [cli_name, param_name] : forwards) {
    forward(args, cli_name, param_name, payload);
  }
  const serve::QueryResult result =
      serve::QueryEngine::one_shot(opcode, payload);
  std::cout << result.text;
  return result.feasible ? 0 : 1;
}

int cmd_influence() {
  return run_one_shot(serve::protocol::Opcode::kInfluence, {}, {});
}

int cmd_plan(const cli::Options& args) {
  std::string payload;
  // --synthetic P [--seed S] selects the deterministic generated model
  // "synthetic-P-S"; the QueryEngine model registry does the strict
  // validation so daemon queries and this tool reject identically.
  const std::string synthetic = args.get("synthetic", "");
  const std::string seed = args.get("seed", "42");
  if (!synthetic.empty()) {
    payload = "model=synthetic-" + synthetic + "-" + seed;
  } else if (!args.get("seed", "").empty()) {
    throw cli::CliError("--seed requires --synthetic");
  }
  for (const auto& [cli_name, param_name] :
       std::vector<std::pair<std::string, std::string>>{
           {"hw", "hw"},
           {"heuristic", "heuristic"},
           {"approach", "approach"}}) {
    forward(args, cli_name, param_name, payload);
  }
  const serve::QueryResult result =
      serve::QueryEngine::one_shot(serve::protocol::Opcode::kMapping, payload);
  std::cout << result.text;
  return result.feasible ? 0 : 1;
}

int cmd_depend(const cli::Options& args) {
  return run_one_shot(serve::protocol::Opcode::kDepend, args,
                      {{"hw", "hw"},
                       {"q", "q"},
                       {"trials", "trials"}});
}

int cmd_replan(const cli::Options& args) {
  return run_one_shot(serve::protocol::Opcode::kReplan, args,
                      {{"hw", "hw"},
                       {"fail", "fail"},
                       {"heuristic", "heuristic"},
                       {"approach", "approach"}});
}

// Rejects options the selected resilience mode never reads, so a
// misplaced one fails loudly instead of running a different experiment
// than the command line describes (e.g. the example98 campaign under
// --synthetic).
void reject_unread(const cli::Options& args, const std::string& mode,
                   std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (args.given(name)) {
      throw cli::CliError("--" + std::string(name) + " does not apply to " +
                          mode);
    }
  }
}

int cmd_resilience(const cli::Options& args) {
  const bool adversary = args.flag("adversary");
  const bool rare_event = args.flag("rare-event");
  if (adversary && rare_event) {
    throw cli::CliError("--adversary and --rare-event are exclusive");
  }
  if (adversary) {
    reject_unread(args, "--adversary",
                  {"horizon-ms", "q", "tilt", "pilot", "levels"});
  } else if (rare_event) {
    reject_unread(args, "--rare-event",
                  {"horizon-ms", "restarts", "iterations", "neighbors",
                   "max-events", "max-crashes", "anneal"});
  } else {
    reject_unread(args, "the campaign",
                  {"synthetic", "restarts", "iterations", "neighbors",
                   "max-events", "max-crashes", "anneal", "q", "tilt",
                   "pilot", "levels"});
  }
  if (adversary || rare_event) {
    // Evaluated through the shared one-shot renderer, so daemon responses
    // to the same query are byte-identical (the plan/depend contract).
    std::string payload;
    const std::string synthetic = args.get("synthetic", "");
    if (!synthetic.empty()) {
      payload =
          "model=synthetic-" + synthetic + "-" + args.get("seed", "42");
    }
    forward(args, "hw", "hw", payload);
    forward(args, "trials", "trials", payload);
    forward(args, "seed", "seed", payload);
    serve::protocol::Opcode opcode;
    if (adversary) {
      opcode = serve::protocol::Opcode::kAdversary;
      forward(args, "restarts", "restarts", payload);
      forward(args, "iterations", "iterations", payload);
      forward(args, "neighbors", "neighbors", payload);
      forward(args, "max-events", "max_events", payload);
      forward(args, "max-crashes", "max_crashes", payload);
      if (args.flag("anneal")) {
        if (!payload.empty()) payload += ' ';
        payload += "anneal=1";
      }
    } else {
      opcode = serve::protocol::Opcode::kRareEvent;
      forward(args, "q", "q", payload);
      forward(args, "tilt", "tilt", payload);
      forward(args, "pilot", "pilot", payload);
      forward(args, "levels", "levels", payload);
    }
    const serve::QueryResult result =
        serve::QueryEngine::one_shot(opcode, payload);
    std::cout << result.text;
    return result.feasible ? 0 : 1;
  }
  // The same bounds the one-shot modes apply through the query engine.
  const int hw_nodes = args.get_int("hw", core::example98::kHwNodes);
  if (hw_nodes < 1 || hw_nodes > 4096) {
    throw cli::CliError("hw must be in [1, 4096], got " +
                        std::to_string(hw_nodes));
  }
  resilience::CampaignOptions options;
  options.trials = args.get_count("trials", 96);
  if (options.trials == 0) throw cli::CliError("trials must be positive");
  const int horizon_ms = args.get_int("horizon-ms", 200);
  if (horizon_ms < 1) throw cli::CliError("horizon-ms must be positive");
  options.horizon = Duration::millis(horizon_ms);
  options.threads = 0;

  auto instance = core::example98::make_instance();
  const mapping::HwGraph hw = mapping::HwGraph::complete(hw_nodes);
  mapping::IntegrationPlanner planner(instance.hierarchy, instance.influence,
                                      instance.processes, hw);
  const mapping::Plan plan = planner.best_plan();
  const std::vector<resilience::Scenario> grid = resilience::standard_grid(
      planner.sw_graph(), plan.clustering.partition, plan.assignment, hw);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2026));
  const resilience::ResilienceReport report = resilience::run_campaign(
      planner.sw_graph(), plan.clustering.partition, plan.assignment, hw,
      grid, seed, options);
  std::cout << resilience::to_json(report) << '\n';
  return 0;
}

// The daemon being told to stop by the process's signal set. One atomic
// pointer hand-off keeps the handler async-signal-safe: request_stop only
// writes a byte to the server's self-pipe.
std::atomic<serve::Server*> g_signal_server{nullptr};

void handle_stop_signal(int) {
  if (serve::Server* server = g_signal_server.load()) server->request_stop();
}

int cmd_serve(const cli::Options& args) {
  serve::ServerOptions options;
  options.host = args.get("host", "127.0.0.1");
  const int port = args.get_int("port", 0);
  if (port < 0 || port > 65535) {
    throw cli::CliError("port must be in [0, 65535]");
  }
  options.port = static_cast<std::uint16_t>(port);
  options.workers = args.get_count("workers", 1);
  options.idle_timeout =
      Duration::millis(args.get_int("idle-timeout-ms", 30'000));
  const int max_frame_kb = args.get_int("max-frame-kb", 1024);
  if (max_frame_kb < 1) throw cli::CliError("max-frame-kb must be >= 1");
  options.max_frame_bytes = static_cast<std::uint32_t>(max_frame_kb) * 1024;
  const int max_connections =
      args.get_int("max-connections",
                   static_cast<int>(options.max_connections));
  const int max_queued = args.get_int(
      "max-queued", static_cast<int>(options.max_queued_requests));
  const int max_queued_per_conn = args.get_int(
      "max-queued-per-conn",
      static_cast<int>(options.max_queued_per_connection));
  if (max_connections < 0 || max_queued < 0 || max_queued_per_conn < 0) {
    throw cli::CliError("admission bounds must be >= 0 (0 disables one)");
  }
  options.max_connections = static_cast<std::uint32_t>(max_connections);
  options.max_queued_requests = static_cast<std::uint32_t>(max_queued);
  options.max_queued_per_connection =
      static_cast<std::uint32_t>(max_queued_per_conn);

  serve::QueryEngine engine;
  serve::Server server(engine, options);

  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
    if (!out) {
      std::cerr << "error: cannot write port file '" << port_file << "'\n";
      return 1;
    }
  }

  g_signal_server.store(&server);
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  std::cout << "fcm serve: listening on " << options.host << ":"
            << server.port() << " (workers=" << options.workers << ")\n"
            << std::flush;
  server.start();
  server.join();
  g_signal_server.store(nullptr);

  const serve::ServerStats stats = server.stats();
  // The terminal-outcome ledger must balance exactly after a drain; the CI
  // chaos job greps for "ledger=balanced" on the daemon's way out.
  const bool balanced =
      stats.requests_accepted ==
          stats.requests_served + stats.requests_abandoned &&
      stats.requests_served ==
          stats.requests_ok + stats.requests_errored +
              stats.requests_rejected + stats.requests_shed +
              stats.requests_expired;
  std::cout << "fcm serve: drained and stopped  (connections="
            << stats.connections_accepted << " conn-rejected="
            << stats.connections_rejected << " accepted="
            << stats.requests_accepted << " served="
            << stats.requests_served << " ok=" << stats.requests_ok
            << " errored=" << stats.requests_errored << " rejected="
            << stats.requests_rejected << " shed=" << stats.requests_shed
            << " expired=" << stats.requests_expired << " abandoned="
            << stats.requests_abandoned << " protocol-errors="
            << stats.protocol_errors << " io-errors=" << stats.io_errors
            << " conn-expired=" << stats.connections_expired
            << " ledger=" << (balanced ? "balanced" : "UNBALANCED") << ")\n";
  return balanced ? 0 : 1;
}

int cmd_query(const cli::Options& args) {
  const int port = args.get_int("port", 0);
  if (port <= 0 || port > 65535) {
    throw cli::CliError("query needs --port in [1, 65535]");
  }
  const std::string op_name = args.get("op", "");
  serve::protocol::Opcode opcode;
  if (!serve::protocol::parse_opcode(op_name, opcode)) {
    throw cli::CliError("unknown --op '" + op_name +
                        "' (want mapping|influence|depend|replan|ping|"
                        "metrics)");
  }
  const int retries = args.get_int("retries", 0);
  if (retries < 0) throw cli::CliError("--retries must be >= 0");
  serve::RetryPolicy policy;
  policy.max_attempts = 1 + static_cast<std::uint32_t>(retries);
  serve::Client client(
      args.get("host", "127.0.0.1"), static_cast<std::uint16_t>(port),
      Duration::millis(args.get_int("timeout-ms", 10'000)), policy);
  const serve::Client::Response response =
      client.request(opcode, args.get("params", ""));
  if (response.status != serve::protocol::Status::kOk) {
    std::cerr << "error: server answered "
              << serve::protocol::status_name(response.status) << ": "
              << response.payload << '\n';
    return 1;
  }
  std::cout << response.payload;
  return 0;
}

int run_command(const std::string& command, const cli::Options& args) {
  if (command == "table") return cmd_table();
  if (command == "report") return cmd_report();
  if (command == "influence") return cmd_influence();
  if (command == "separation") return cmd_separation(args);
  if (command == "plan") return cmd_plan(args);
  if (command == "depend") return cmd_depend(args);
  if (command == "replan") return cmd_replan(args);
  if (command == "resilience") return cmd_resilience(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "query") return cmd_query(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  const CommandSpec* spec = nullptr;
  for (const CommandSpec& candidate : kCommands) {
    if (candidate.name == command) spec = &candidate;
  }
  if (spec == nullptr) return usage();

  cli::Options args;
  try {
    std::vector<cli::OptionSpec> options = spec->options;
    options.push_back({"metrics", /*takes_value=*/false});
    options.push_back({"trace", /*takes_value=*/true});
    args = cli::parse_options(argc, argv, 2, options);
  } catch (const cli::CliError& error) {
    std::cerr << "error: " << error.what() << '\n';
    return usage();
  }

  const bool dump_metrics = args.flag("metrics");
  const std::string trace_path = args.get("trace", "");
  if (dump_metrics || !trace_path.empty()) obs::set_enabled(true);

  try {
    const int status = run_command(command, args);
    if (!trace_path.empty() && !obs::write_trace_file(trace_path)) {
      std::cerr << "error: cannot write trace file '" << trace_path << "'\n";
      return 1;
    }
    if (dump_metrics) {
      std::cout << "metrics: "
                << obs::metrics_json(
                       obs::MetricsRegistry::global().snapshot())
                << '\n';
    }
    return status;
  } catch (const cli::CliError& error) {
    // Malformed option values surface here from the typed getters.
    std::cerr << "error: " << error.what() << '\n';
    return usage();
  } catch (const serve::QueryError& error) {
    std::cerr << "error: " << error.what() << '\n';
    return usage();
  } catch (const FcmError& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
