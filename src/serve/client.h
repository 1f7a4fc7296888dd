// Blocking client for the `fcm serve` protocol.
//
// Used by `fcm_tool query`, the load generator, bench_serve, and the serve
// test battery. Deliberately minimal: one connection, blocking sends and
// receives with socket-level timeouts, plus raw-byte access so the protocol
// tests can speak malformed dialects on purpose.
//
// Retries (DESIGN.md §15): a RetryPolicy makes `request()` retry
// connection-level failures (connect/send/recv errors, EOF before a
// response) and the two explicitly-retryable statuses, kOverloaded and
// kShuttingDown, with exponential backoff and seeded deterministic jitter.
// This is safe by construction — every query is a pure, cached function of
// its payload, so a retried kOk response is byte-identical to what the
// first attempt would have returned. Statuses that signal a defect in the
// request itself (kBadRequest, kUnknownOpcode, ...) are never retried.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "common/time.h"
#include "serve/protocol.h"

namespace fcm::serve {

/// Retry budget and backoff shape for Client. The default (max_attempts
/// == 1) means "no retries" — existing callers keep their one-shot
/// semantics unless they opt in.
struct RetryPolicy {
  /// Total attempts, including the first (1 = never retry).
  std::uint32_t max_attempts = 1;
  /// Backoff before the first retry; doubles (see multiplier) per retry.
  Duration initial_backoff = Duration::millis(10);
  /// Backoff ceiling.
  Duration max_backoff = Duration::millis(1'000);
  /// Geometric backoff growth factor.
  double multiplier = 2.0;
  /// Seed for the jitter PRNG: sleep = backoff * (0.5 + 0.5 * u), u from a
  /// seeded mt19937_64 — deterministic per client, decorrelated across
  /// clients with distinct seeds.
  std::uint64_t jitter_seed = 2026;
};

/// What the retry machinery did on this client's behalf (diagnostic;
/// fcm_loadgen reports these separately from hard errors).
struct RetryStats {
  std::uint64_t retries = 0;     ///< request attempts after the first
  std::uint64_t reconnects = 0;  ///< sockets re-established
};

class Client {
 public:
  /// Connects to host:port. Throws FcmError when the connection cannot be
  /// established within `timeout` (also the send/receive timeout) after
  /// exhausting the policy's attempt budget.
  Client(const std::string& host, std::uint16_t port,
         Duration timeout = Duration::millis(10'000),
         RetryPolicy policy = {});
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One request/response round trip, retried per the RetryPolicy. Throws
  /// FcmError on socket failure or a connection closed before the full
  /// response arrived, once the attempt budget is spent.
  struct Response {
    protocol::Status status = protocol::Status::kOk;
    std::string payload;
  };
  Response request(protocol::Opcode opcode, std::string_view payload);

  /// Sends arbitrary bytes verbatim (protocol tests). Not retried.
  void send_raw(std::string_view bytes);

  /// Reads the next response frame. Returns false on clean EOF before any
  /// byte of a frame; throws on timeout, error, or EOF mid-frame.
  bool read_response(Response& out);

  /// Half-closes the write side so the server sees EOF while the read side
  /// stays open.
  void shutdown_write() noexcept;

  /// Drops the connection (if any) and resets the frame decoder. The next
  /// `request()` reconnects; `connect()` forces it immediately. The chaos
  /// driver uses these to model client kills and resets.
  void disconnect() noexcept;
  void connect();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  [[nodiscard]] const RetryStats& retry_stats() const noexcept {
    return retry_stats_;
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  void connect_once();
  void backoff_sleep(std::uint32_t retry_index);

  std::string host_;
  std::uint16_t port_ = 0;
  Duration timeout_ = Duration::millis(10'000);
  RetryPolicy policy_;
  std::mt19937_64 jitter_rng_;
  RetryStats retry_stats_;
  int fd_ = -1;
  protocol::FrameDecoder decoder_;
};

}  // namespace fcm::serve
