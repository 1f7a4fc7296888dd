// Request-parameter validation on both evaluation paths: the one-shot
// renderer `fcm_tool` prints through throws QueryError, and a live server
// answers kBadRequest and keeps the connection usable. Covers negative
// counts, which a plain uint32 cast used to turn into 4294967295 (a
// depend of "-1" trials ran none and printed every survival as 0), the
// mapping keys `quotient=` and `sweep_threads=`, which went away with the
// full-rebuild quotient mode and as a value nothing read, the `threads=`
// key, and probabilities outside their ranges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"

namespace fcm::serve {
namespace {

struct BadQuery {
  protocol::Opcode opcode;
  std::string payload;
  std::string message;  ///< expected fragment of the error text
};

// The first case fails fast even where negative counts are accepted; the
// later ones (e.g. 4294963200 depend trials) would run for a long time.
const std::vector<BadQuery>& bad_queries() {
  static const std::vector<BadQuery> kQueries = {
      {protocol::Opcode::kDepend, "trials=-1", "--trials must be >= 0"},
      {protocol::Opcode::kDepend, "trials=-4096", "--trials must be >= 0"},
      {protocol::Opcode::kAdversary, "trials=-1", "--trials must be >= 0"},
      {protocol::Opcode::kAdversary, "restarts=-1",
       "--restarts must be >= 0"},
      {protocol::Opcode::kAdversary, "iterations=-1",
       "--iterations must be >= 0"},
      {protocol::Opcode::kAdversary, "neighbors=-2",
       "--neighbors must be >= 0"},
      {protocol::Opcode::kAdversary, "max_events=-1",
       "--max_events must be >= 0"},
      {protocol::Opcode::kAdversary, "max_crashes=-1",
       "--max_crashes must be >= 0"},
      {protocol::Opcode::kRareEvent, "trials=-1", "--trials must be >= 0"},
      {protocol::Opcode::kRareEvent, "pilot=-1", "--pilot must be >= 0"},
      {protocol::Opcode::kRareEvent, "levels=-1", "--levels must be >= 0"},
      {protocol::Opcode::kMapping, "quotient=rebuild",
       "unknown parameter 'quotient'"},
      {protocol::Opcode::kMapping, "quotient=incremental",
       "unknown parameter 'quotient'"},
  };
  return kQueries;
}

// Removed keys and out-of-range probabilities. `sweep_threads=` was parsed
// and dropped (the resident planner sweeps on every core); `threads=` grew
// the process-wide pool, which never shrinks, to whatever a request asked
// (FCM_THREADS sizes it instead); and q or tilt outside their ranges, NaN
// included, reached a library precondition and came back as a server error
// instead of a request error.
const std::vector<BadQuery>& bad_values() {
  static const std::vector<BadQuery> kQueries = {
      {protocol::Opcode::kMapping, "sweep_threads=3",
       "unknown parameter 'sweep_threads'"},
      {protocol::Opcode::kDepend, "threads=2", "unknown parameter 'threads'"},
      {protocol::Opcode::kAdversary, "threads=2",
       "unknown parameter 'threads'"},
      {protocol::Opcode::kRareEvent, "threads=2",
       "unknown parameter 'threads'"},
      {protocol::Opcode::kDepend, "q=1.5", "q must be in [0, 1]"},
      {protocol::Opcode::kDepend, "q=-0.1", "q must be in [0, 1]"},
      {protocol::Opcode::kDepend, "q=nan", "q must be in [0, 1]"},
      {protocol::Opcode::kRareEvent, "q=1.5", "q must be in [0, 1]"},
      {protocol::Opcode::kRareEvent, "q=nan", "q must be in [0, 1]"},
      {protocol::Opcode::kRareEvent, "tilt=nan", "tilt must be in [0, 1)"},
  };
  return kQueries;
}

void expect_one_shot_rejects(const std::vector<BadQuery>& queries) {
  for (const BadQuery& query : queries) {
    SCOPED_TRACE(protocol::opcode_name(query.opcode) + " '" + query.payload +
                 "'");
    try {
      (void)QueryEngine::one_shot(query.opcode, query.payload);
      FAIL() << "accepted";
    } catch (const QueryError& error) {
      EXPECT_NE(std::string(error.what()).find(query.message),
                std::string::npos)
          << error.what();
    }
  }
}

void expect_server_rejects(const std::vector<BadQuery>& queries) {
  QueryEngine engine;
  Server server(engine);
  server.start();
  Client client("127.0.0.1", server.port(), Duration::millis(10'000));
  for (const BadQuery& query : queries) {
    SCOPED_TRACE(protocol::opcode_name(query.opcode) + " '" + query.payload +
                 "'");
    const Client::Response response =
        client.request(query.opcode, query.payload);
    ASSERT_EQ(response.status, protocol::Status::kBadRequest)
        << response.payload;
    EXPECT_NE(response.payload.find(query.message), std::string::npos)
        << response.payload;
  }
  const Client::Response pong = client.request(protocol::Opcode::kPing, "ok");
  EXPECT_EQ(pong.status, protocol::Status::kOk);
  EXPECT_EQ(pong.payload, "ok");
  server.stop();
}

TEST(QueryParams, OneShotRejectsNegativeCountsAndTheQuotientKey) {
  expect_one_shot_rejects(bad_queries());
}

TEST(QueryParams, ServerAnswersBadRequestAndStaysUsable) {
  expect_server_rejects(bad_queries());
}

TEST(QueryParams, OneShotRejectsBadProbabilitiesAndTheSweepThreadsKey) {
  expect_one_shot_rejects(bad_values());
}

TEST(QueryParams, ServerAnswersBadRequestForBadProbabilities) {
  expect_server_rejects(bad_values());
}

}  // namespace
}  // namespace fcm::serve
