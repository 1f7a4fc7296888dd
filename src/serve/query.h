// Resident query evaluation for `fcm serve`.
//
// A `QueryEngine` is the daemon's brain: it loads the model fleet once,
// then answers mapping / influence / depend / replan queries as rendered
// text. Two cache layers make the resident path fast without ever changing
// semantics:
//
//   * a plan cache per model×platform — the `IntegrationPlanner` (and its
//     separation memo) is built once and every computed `Plan` is
//     kept, so the heuristic sweep runs once per distinct (hw, heuristic,
//     approach) instead of once per request;
//   * a response memo keyed on the exact (opcode, payload) pair — every
//     query handler is a pure deterministic function of its parameters
//     (Monte Carlo seeds are fixed constants, exactly as in `fcm_tool`), so
//     replaying the rendered bytes is sound.
//
// The byte-identity contract: `run` returns exactly the bytes the
// equivalent one-shot `fcm_tool` command writes to stdout, cold or warm
// cache, for any `FCM_THREADS`. `one_shot` builds a throwaway engine — it
// is what `fcm_tool` itself calls, so the contract holds by construction
// and the differential tests pin it against real socket round trips.
//
// Thread safety: `run` may be called concurrently from any number of
// server workers. Model state is guarded per model; the memo has its own
// lock; the underlying evaluation entry points take const references and
// shard through `fcm::exec`.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "core/example98.h"
#include "mapping/hw.h"
#include "mapping/planner.h"
#include "serve/protocol.h"

namespace fcm::serve {

/// Thrown for malformed query parameters (unknown key, bad number, unknown
/// model). The server maps it to Status::kBadRequest; `fcm_tool` prints it
/// as a CLI error.
class QueryError : public FcmError {
 public:
  using FcmError::FcmError;
};

/// One rendered query result. `feasible` is only meaningful for kMapping
/// (`fcm_tool plan` exits 1 on an infeasible plan) and kReplan.
struct QueryResult {
  std::string text;
  bool feasible = true;
};

class QueryEngine {
 public:
  QueryEngine();
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answers one query; caches deterministic opcodes. Throws QueryError
  /// on malformed parameters.
  [[nodiscard]] QueryResult run(protocol::Opcode opcode,
                                std::string_view payload);

  /// Cold-path evaluation through a fresh engine — the one-shot `fcm_tool`
  /// semantics. Same bytes as `run`, never cached.
  [[nodiscard]] static QueryResult one_shot(protocol::Opcode opcode,
                                            std::string_view payload);

  /// Response-memo telemetry (also mirrored to the `serve.memo.*`
  /// obs counters).
  struct MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] MemoStats memo_stats() const;

 private:
  struct PlatformState;  // one model×hw platform: planner + plan cache
  [[nodiscard]] PlatformState& platform(const std::string& model, int hw);
  [[nodiscard]] QueryResult evaluate(protocol::Opcode opcode,
                                     std::string_view payload);

  /// The example98 fleet; synthetic models ("synthetic-N-S") are generated
  /// on first use and live inside their PlatformState's planner.
  core::example98::Instance instance_;
  std::mutex platforms_mutex_;
  std::map<std::pair<std::string, int>, std::unique_ptr<PlatformState>>
      platforms_;

  mutable std::mutex memo_mutex_;
  std::map<std::pair<std::uint16_t, std::string>, QueryResult> memo_;
  MemoStats memo_stats_;
};

}  // namespace fcm::serve
