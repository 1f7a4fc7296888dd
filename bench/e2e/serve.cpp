// serve_mixed: an open-loop request mix against an in-process serve::Server.
//
// One client thread multiplexes two pipelined connections with ppoll and
// sends each request when it is due (Poisson arrivals at fixed rate steps),
// whether or not earlier answers have come back, so a stalled server
// builds a backlog instead of slowing the generator down. Every request is
// timed from when it was due, not from when it was sent.
//
// The mix: ~97% light reads answered from the response memo (example98
// plans for six heuristics and both approaches, the influence report,
// replans for each lost node, ping), 2.5% `depend` queries with a unique
// trial count (a memo miss plus a Monte Carlo run) and 0.5% plans of a
// fresh synthetic-128 model, each of which builds a new platform inside
// the engine and grows its memo and platform map.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "common/error.h"
#include "serve/client.h"
#include "serve/query.h"
#include "serve/server.h"
#include "workloads.h"

namespace fcm::e2e {

namespace {

namespace protocol = serve::protocol;
using protocol::Opcode;
using protocol::Status;

constexpr int kSetupReps = 5;
constexpr std::uint32_t kWorkers = 2;
constexpr int kConnections = 2;
constexpr double kRates[] = {500, 1000, 2000, 4000};
constexpr double kReferenceRate = 1000;
/// Heavy requests per block of kBlock consecutive requests (2.5% depend,
/// 0.5% fresh-model plans) at random positions within the block: every
/// step carries the same heavy share, only where it falls varies.
constexpr std::size_t kBlock = 200;
constexpr std::size_t kDependPerBlock = 5;
constexpr std::size_t kMappingPerBlock = 1;
/// Latency limit for goodput and max_rate_rps (light p99 must stay under
/// it). A heavy request holds up the light ones queued behind it on its
/// connection, so light p99 is several heavy service times: on a shared
/// 4-core x86-64 VM it read ~12 ms at 1000 req/s and ~24 ms at 4000.
constexpr double kLimitMs = 20.0;
/// A step that has not drained this long after its last due time failed.
constexpr double kDrainTimeoutS = 10.0;
/// Idle ping round trips measured before the traced step.
constexpr int kPings = 200;

/// One (opcode, payload) the light class draws from, with the bytes
/// QueryEngine::one_shot renders for it.
struct Key {
  Opcode opcode;
  std::string payload;
  std::string expected;
};

std::vector<Key> light_keys() {
  std::vector<Key> keys;
  for (const char* heuristic : {"h1", "h1r", "h2", "h3", "crit", "timing"}) {
    for (const char* approach : {"a", "b"}) {
      keys.push_back({Opcode::kMapping,
                      std::string("model=example98 heuristic=") + heuristic +
                          " approach=" + approach,
                      {}});
    }
  }
  keys.push_back({Opcode::kInfluence, "", {}});
  for (int fail = 0; fail < 6; ++fail) {
    keys.push_back({Opcode::kReplan, "fail=" + std::to_string(fail), {}});
  }
  keys.push_back({Opcode::kPing, "x", {}});
  for (Key& key : keys) {
    key.expected =
        serve::QueryEngine::one_shot(key.opcode, key.payload).text;
  }
  return keys;
}

struct Request {
  double due_s = 0.0;  // offset from the step start
  Opcode opcode = Opcode::kPing;
  std::string payload;
  int light = -1;  // index into the light keys; -1 for heavy
  int conn = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point received;
  Status status = Status::kOk;
  bool answered = false;
  bool correct = false;   // light: bytes checked on arrival
  std::string response;   // heavy kOk payloads, verified after the run
};

/// Uniform in [0, 1) from the top 53 bits (the same on every platform,
/// unlike std::uniform_real_distribution).
double uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Poisson arrivals at `rate` for `duration_s`. `heavy_counter` numbers the
/// heavy requests across the whole run so each one is a fresh memo key.
std::vector<Request> schedule(std::uint64_t stream, double rate,
                              double duration_s, const std::vector<Key>& keys,
                              std::uint64_t seed,
                              std::uint64_t& heavy_counter) {
  std::mt19937_64 rng(stream);
  std::vector<Request> requests;
  std::vector<Opcode> block;  // kPing marks a light slot
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-uniform(rng)) / rate;
    if (t >= duration_s) break;
    const std::size_t slot = requests.size() % kBlock;
    if (slot == 0) {
      block.assign(kBlock, Opcode::kPing);
      for (std::size_t h = 0; h < kDependPerBlock + kMappingPerBlock; ++h) {
        std::size_t at = rng() % kBlock;
        while (block[at] != Opcode::kPing) at = (at + 1) % kBlock;
        block[at] = h < kDependPerBlock ? Opcode::kDepend : Opcode::kMapping;
      }
    }
    Request r;
    r.due_s = t;
    r.conn = static_cast<int>(requests.size() % kConnections);
    r.opcode = block[slot];
    if (r.opcode == Opcode::kDepend) {
      r.payload = "trials=" + std::to_string(20'000 + heavy_counter++);
    } else if (r.opcode == Opcode::kMapping) {
      r.payload = "model=synthetic-128-" +
                  std::to_string(model_seed(seed, 5000 + heavy_counter++)) +
                  " heuristic=h1h hw=42";
    } else {
      r.light = static_cast<int>(rng() % keys.size());
      r.opcode = keys[static_cast<std::size_t>(r.light)].opcode;
      r.payload = keys[static_cast<std::size_t>(r.light)].payload;
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

/// A non-blocking loopback connection with its own framing state.
struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_sent = 0;
  protocol::FrameDecoder decoder;
  std::deque<std::size_t> in_flight;  // request indices, FIFO

  explicit Connection(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    FCM_REQUIRE(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw FcmError("connect() to the serve daemon failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends what the socket accepts; false on a hard error.
  bool flush() {
    while (out_sent < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_sent,
                               out.size() - out_sent, MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      out_sent += static_cast<std::size_t>(n);
    }
    out.clear();
    out_sent = 0;
    return true;
  }
};

/// A running daemon: engine, server and the load connections.
struct Daemon {
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<Connection>> conns;
};

/// Engine + server start, every light key warmed through the public
/// client (and checked), then the load connections opened.
void start_daemon(Daemon& daemon, const std::vector<Key>& keys,
                  Outcome& outcome) {
  daemon.conns.clear();
  if (daemon.server) daemon.server->stop();
  daemon.server.reset();
  daemon.engine = std::make_unique<serve::QueryEngine>();
  serve::ServerOptions options;
  options.workers = kWorkers;
  daemon.server = std::make_unique<serve::Server>(*daemon.engine, options);
  daemon.server->start();
  {
    serve::Client client("127.0.0.1", daemon.server->port());
    for (const Key& key : keys) {
      const serve::Client::Response response =
          client.request(key.opcode, key.payload);
      outcome.check(response.status == Status::kOk &&
                        response.payload == key.expected,
                    "warm-up answer equals one_shot for " +
                        protocol::opcode_name(key.opcode) + " " + key.payload);
    }
  }
  for (int c = 0; c < kConnections; ++c) {
    daemon.conns.push_back(
        std::make_unique<Connection>(daemon.server->port()));
  }
}

struct StepResult {
  double rate = 0.0;
  double duration_s = 0.0;
  std::vector<double> light_ms;
  std::vector<double> heavy_ms;
  std::vector<double> all_ms;
  std::vector<double> lag_ms;
  std::uint64_t good = 0;  // correct kOk within the limit
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;  // non-kOk other than refusals, or wrong bytes
  std::uint64_t outstanding_at_end = 0;
  bool drained = true;
};

StepResult run_step(Daemon& daemon, std::vector<Request>& requests,
                    const std::vector<Key>& keys, double rate,
                    double duration_s) {
  StepResult result;
  result.rate = rate;
  result.duration_s = duration_s;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(requests[i].due_s));
  };
  const Clock::time_point step_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(duration_s));
  const Clock::time_point give_up =
      step_end + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(kDrainTimeoutS));
  std::size_t next = 0;
  std::size_t done = 0;
  bool end_counted = false;
  std::vector<pollfd> fds(daemon.conns.size());
  char buffer[1 << 16];

  while (done < requests.size()) {
    Clock::time_point now = Clock::now();
    while (next < requests.size() && due(next) <= now) {
      Request& r = requests[next];
      Connection& conn = *daemon.conns[static_cast<std::size_t>(r.conn)];
      conn.out += protocol::encode_request(r.opcode, r.payload);
      conn.in_flight.push_back(next);
      r.due = due(next);
      r.sent = now;
      ++next;
    }
    for (const auto& conn : daemon.conns) {
      if (!conn->flush()) {
        result.drained = false;
        return result;
      }
    }
    if (!end_counted && now >= step_end) {
      result.outstanding_at_end = next - done;
      end_counted = true;
    }
    if (now >= give_up) {
      result.drained = false;
      return result;
    }
    Clock::duration wait = std::chrono::milliseconds(50);
    if (next < requests.size()) wait = std::min(wait, due(next) - now);
    if (!end_counted) wait = std::min(wait, step_end - now);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::max(wait, Clock::duration::zero()))
                        .count();
    const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                           static_cast<long>(ns % 1'000'000'000)};
    for (std::size_t c = 0; c < fds.size(); ++c) {
      fds[c] = {daemon.conns[c]->fd,
                static_cast<short>(POLLIN | (daemon.conns[c]->out.empty()
                                                 ? 0
                                                 : POLLOUT)),
                0};
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = *daemon.conns[c];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          result.drained = false;  // the daemon dropped the connection
          return result;
        }
        if (n < 0) break;
        conn.decoder.feed(
            std::string_view(buffer, static_cast<std::size_t>(n)));
      }
      const Clock::time_point arrived = Clock::now();
      protocol::Frame frame;
      while (conn.decoder.next(frame) ==
             protocol::FrameDecoder::Result::kFrame) {
        if (conn.in_flight.empty()) {
          result.drained = false;  // an answer nobody asked for
          return result;
        }
        Request& r = requests[conn.in_flight.front()];
        conn.in_flight.pop_front();
        r.received = arrived;
        r.answered = true;
        r.status = static_cast<Status>(frame.code);
        if (r.status == Status::kOk) {
          if (r.light >= 0) {
            const std::size_t key = static_cast<std::size_t>(r.light);
            r.correct = frame.payload == keys[key].expected;
          } else {
            r.response = std::move(frame.payload);
            r.correct = true;  // until verify_heavy says otherwise
          }
        }
        ++done;
      }
    }
  }
  return result;
}

/// Latencies, goodput, refusals and wrong answers of a finished step (after
/// verify_heavy has checked the heavy answers).
void tally(const std::vector<Request>& requests, StepResult& result) {
  for (const Request& r : requests) {
    if (!r.answered) {
      ++result.wrong;
      continue;
    }
    const double ms = seconds_between(r.due, r.received) * 1e3;
    result.lag_ms.push_back(seconds_between(r.due, r.sent) * 1e3);
    if (r.status == Status::kOverloaded) {
      ++result.refused;
      continue;
    }
    if (r.status != Status::kOk || !r.correct) {
      ++result.wrong;
      continue;
    }
    result.all_ms.push_back(ms);
    (r.light >= 0 ? result.light_ms : result.heavy_ms).push_back(ms);
    if (ms <= kLimitMs) ++result.good;
  }
}

/// Re-renders every heavy kOk answer with QueryEngine::one_shot on two
/// threads (after the server has stopped) and counts mismatches.
std::uint64_t verify_heavy(std::vector<std::vector<Request>*>& steps) {
  std::vector<Request*> heavy;
  for (std::vector<Request>* step : steps) {
    for (Request& r : *step) {
      if (r.light < 0 && r.answered && r.status == Status::kOk) {
        heavy.push_back(&r);
      }
    }
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> wrong{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < heavy.size(); i = next++) {
      Request& r = *heavy[i];
      const bool same =
          serve::QueryEngine::one_shot(r.opcode, r.payload).text == r.response;
      r.correct = same;
      if (!same) ++wrong;
    }
  };
  std::thread helper(worker);
  worker();
  helper.join();
  return wrong.load();
}

double per_second(std::uint64_t count, double seconds) {
  return ratio(static_cast<double>(count), seconds);
}

std::string step_json(const StepResult& s) {
  return "{\"rate\":" + json_number(s.rate) +
         ",\"seconds\":" + json_number(s.duration_s) +
         ",\"all_ms\":" + quartiles_json(s.all_ms) +
         ",\"light_ms\":" + quartiles_json(s.light_ms) +
         ",\"light_p99_ms\":" + json_number(quantile(s.light_ms, 0.99)) +
         ",\"heavy_ms\":" + quartiles_json(s.heavy_ms) +
         ",\"heavy_p90_ms\":" + json_number(quantile(s.heavy_ms, 0.9)) +
         ",\"goodput_per_s\":" + json_number(per_second(s.good, s.duration_s)) +
         ",\"refused\":" + std::to_string(s.refused) +
         ",\"wrong\":" + std::to_string(s.wrong) +
         ",\"outstanding_at_end\":" + std::to_string(s.outstanding_at_end) +
         ",\"gen_lag_p99_ms\":" + json_number(quantile(s.lag_ms, 0.99)) + "}";
}

/// Whether a step meets the latency limit without a growing backlog.
bool meets_limit(const StepResult& s) {
  return s.refused == 0 && s.wrong == 0 && s.drained &&
         quantile(s.light_ms, 0.99) <= kLimitMs &&
         s.outstanding_at_end <= 2 * kWorkers;
}

}  // namespace

Outcome run_serve_mixed(const RunConfig& config) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // wake the generator within ~1 us
  Outcome outcome;
  const std::vector<Key> keys = light_keys();
  Daemon daemon;
  outcome.metrics["setup_s"] = median_setup_seconds(
      config.smoke ? 1 : kSetupReps,
      [&] { start_daemon(daemon, keys, outcome); });

  // Untraced: every rate step for a quarter of the window (an eighth when
  // tracing, whose traced half reruns the reference step). Smoke: one
  // 2-second step at the reference rate.
  std::vector<double> rates(std::begin(kRates), std::end(kRates));
  double step_s = config.trace ? config.seconds / 8 : config.seconds / 4;
  if (config.smoke) {
    rates = {kReferenceRate};
    step_s = 2.0;
  }
  std::uint64_t heavy_counter = 0;
  std::vector<std::vector<Request>> schedules;
  std::vector<StepResult> steps;
  for (std::size_t k = 0; k < rates.size(); ++k) {
    schedules.push_back(schedule(derive_seed(config.seed, 4000 + k), rates[k],
                                 step_s, keys, config.seed,
                                 heavy_counter));
    steps.push_back(
        run_step(daemon, schedules.back(), keys, rates[k], step_s));
    if (!steps.back().drained) break;  // the connections are unusable now
  }

  std::optional<std::vector<Request>> traced_schedule;
  StepResult traced_step;
  double rtt_s = 0.0;
  serve::QueryEngine::MemoStats memo_before;
  serve::QueryEngine::MemoStats memo_after;
  if (config.trace && steps.back().drained) {
    {
      serve::Client client("127.0.0.1", daemon.server->port());
      std::vector<double> rtt;
      for (int i = 0; i < kPings; ++i) {
        const Clock::time_point start = Clock::now();
        (void)client.request(Opcode::kPing, "x");
        rtt.push_back(seconds_since(start));
      }
      rtt_s = quantile(rtt, 0.5);
    }
    start_library_counters();
    memo_before = daemon.engine->memo_stats();
    const double traced_s = config.smoke ? 2.0 : config.seconds / 4;
    traced_schedule =
        schedule(derive_seed(config.seed, 4100), kReferenceRate, traced_s,
                 keys, config.seed, heavy_counter);
    traced_step = run_step(daemon, *traced_schedule, keys, kReferenceRate,
                           traced_s);
    memo_after = daemon.engine->memo_stats();
  }

  daemon.conns.clear();
  daemon.server->stop();
  const serve::ServerStats stats = daemon.server->stats();
  outcome.check(stats.requests_accepted ==
                        stats.requests_served + stats.requests_abandoned &&
                    stats.requests_served ==
                        stats.requests_ok + stats.requests_errored +
                            stats.requests_rejected + stats.requests_shed +
                            stats.requests_expired,
                "server ledger balances");

  std::vector<std::vector<Request>*> all;
  for (auto& s : schedules) all.push_back(&s);
  if (traced_schedule) all.push_back(&*traced_schedule);
  outcome.check(verify_heavy(all) == 0, "every heavy answer equals one_shot");

  // Client ledger: every request sent got exactly one answer, and the
  // server's kOk count matches the client's (warm-up of the last setup and
  // idle pings included).
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t client_ok = keys.size() + (config.trace ? kPings : 0);
  for (const std::vector<Request>* s : all) {
    for (const Request& r : *s) {
      ++sent;
      answered += r.answered;
      client_ok += r.answered && r.status == Status::kOk;
    }
  }
  outcome.check(sent == answered, "client ledger balances");
  outcome.check(stats.requests_ok == client_ok,
                "server and client agree on the kOk count");

  std::string steps_json = "[";
  std::uint64_t max_rate = 0;
  const StepResult* reference = nullptr;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    StepResult& s = steps[k];
    tally(schedules[k], s);
    outcome.attempted += schedules[k].size();
    // Refusals count as failures only up to the reference rate; above it
    // they show in goodput and max_rate instead.
    outcome.failed += s.wrong + (s.rate <= kReferenceRate ? s.refused : 0);
    outcome.check(s.drained,
                  "step at " + json_number(s.rate) + " req/s drained");
    if (meets_limit(s)) max_rate = static_cast<std::uint64_t>(s.rate);
    if (k > 0) steps_json += ",";
    steps_json += step_json(s);
    if (s.rate == kReferenceRate) reference = &s;
  }
  // A step that did not drain ends the run; its metrics read 0.
  outcome.metrics["latency_p50_ms"] =
      reference ? quantile(reference->all_ms, 0.5) : 0.0;
  outcome.metrics["goodput_per_s"] =
      steps.size() == rates.size()
          ? per_second(steps.back().good, steps.back().duration_s)
          : 0.0;
  outcome.detail["steps"] = steps_json + "]";
  outcome.detail["max_rate_rps"] = std::to_string(max_rate);
  outcome.detail["limit_ms"] = json_number(kLimitMs);
  outcome.detail["ledger"] =
      "{\"accepted\":" + std::to_string(stats.requests_accepted) +
      ",\"ok\":" + std::to_string(stats.requests_ok) +
      ",\"rejected\":" + std::to_string(stats.requests_rejected) +
      ",\"expired\":" + std::to_string(stats.requests_expired) +
      ",\"abandoned\":" + std::to_string(stats.requests_abandoned) + "}";
  outcome.check(outcome.failed == 0,
                "no failed request up to the reference rate");
  if (!traced_schedule) return outcome;

  std::vector<Request>& traced = *traced_schedule;
  tally(traced, traced_step);
  outcome.attempted += traced.size();
  outcome.failed += traced_step.wrong + traced_step.refused;
  outcome.check(traced_step.drained && traced_step.wrong == 0 &&
                    traced_step.refused == 0,
                "traced step answered every request correctly");

  // Replay the traced step's requests in order through a fresh, warmed
  // engine on this thread, without sockets: the engine's part of each
  // latency. The transport part is the idle ping round trip; the queue is
  // what remains.
  SpanRecorder spans;
  const Clock::time_point origin = traced.front().due;
  double total_s = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    spans.add("serve.request", traced[i].due, traced[i].received, -1, i);
    total_s += seconds_between(traced[i].due, traced[i].received);
  }
  serve::QueryEngine replay;
  for (const Key& key : keys) (void)replay.run(key.opcode, key.payload);
  double light_s = 0.0;
  double heavy_s = 0.0;
  std::uint64_t platforms = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Request& r = traced[i];
    const bool light = r.light >= 0;
    const Clock::time_point start = Clock::now();
    (void)replay.run(r.opcode, r.payload);
    const Clock::time_point end = Clock::now();
    spans.add(light ? "serve.engine_light" : "serve.engine_heavy", start, end,
              -1, i);
    (light ? light_s : heavy_s) += seconds_between(start, end);
    platforms += !light && r.opcode == Opcode::kMapping;
  }
  const double n = static_cast<double>(traced.size());
  const double transport_s = n * rtt_s;
  const double queue_s = total_s - transport_s - light_s - heavy_s;
  outcome.metrics["serve.transport_frac"] = ratio(transport_s, total_s);
  outcome.metrics["serve.engine_light_frac"] = ratio(light_s, total_s);
  outcome.metrics["serve.engine_heavy_frac"] = ratio(heavy_s, total_s);
  outcome.metrics["serve.queue_frac"] = ratio(queue_s, total_s);
  outcome.metrics["bench.unattributed_frac"] = 0.0;  // the queue is the rest
  set_attribution_detail(outcome, total_s,
                         {"serve.transport", "serve.engine_light",
                          "serve.engine_heavy", "serve.queue"},
                         {transport_s, light_s, heavy_s, queue_s}, 0.0);

  const double untraced_mean_s = mean(reference->all_ms) / 1e3;
  const double traced_mean_s = ratio(total_s, n);
  outcome.metrics["bench.traced_op_ms"] = traced_mean_s * 1e3;
  outcome.metrics["bench.trace_overhead_frac"] =
      ratio(traced_mean_s - untraced_mean_s, untraced_mean_s);
  outcome.metrics["bench.gen_lag_p99_ms"] = quantile(traced_step.lag_ms, 0.99);
  outcome.metrics["serve.memo_hit_ratio"] =
      ratio(static_cast<double>(memo_after.hits - memo_before.hits),
            static_cast<double>(memo_after.hits - memo_before.hits +
                                memo_after.misses - memo_before.misses));
  outcome.metrics["serve.platforms_built"] = static_cast<double>(platforms);
  outcome.metrics["serve.worker_util"] =
      ratio(light_s + heavy_s, kWorkers * traced_step.duration_s);
  outcome.metrics["serve.rejected"] =
      static_cast<double>(stats.requests_rejected);
  outcome.metrics["serve.expired"] =
      static_cast<double>(stats.requests_expired);
  outcome.metrics["exec.tasks_per_submission"] =
      ratio(static_cast<double>(library_counter("exec.tasks")),
            static_cast<double>(library_counter("exec.submissions")));
  outcome.detail["ping_rtt_us"] = json_number(rtt_s * 1e6);
  outcome.detail["traced_step"] = step_json(traced_step);
  outcome.trace_events = spans.chrome_events(4, origin);
  return outcome;
}

}  // namespace fcm::e2e
