// fcm_tool's usage-error path, driven through the real binary: removed
// options, out-of-range values and negative counts must print a one-line
// error plus usage and exit 2. Negative counts used to be cast straight to
// uint32, so `resilience --trials -1` ran zero blocks and exited 0, and
// `serve --workers -1` asked for 4294967295 workers.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr together
};

ToolRun run_tool(const std::string& args) {
  const std::string command =
      std::string(FCM_TOOL_PATH) + " " + args + " 2>&1";
  ToolRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  for (std::size_t n; (n = fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(FcmToolCli, RemovedQuotientOptionIsAUsageError) {
  const ToolRun run = run_tool("plan --quotient rebuild");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown option '--quotient'"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("usage: fcm_tool"), std::string::npos);
}

TEST(FcmToolCli, RemovedOptionsAreUsageErrors) {
  // --sweep-threads set nothing the plan could show; --simd chose between
  // kernel backends that no longer exist; --threads sized a pool that no
  // report depends on, which FCM_THREADS already sizes.
  for (const char* args :
       {"plan --sweep-threads 3", "plan --sweep-threads -5",
        "depend --simd scalar", "depend --threads 2",
        "resilience --threads 2", "resilience --rare-event --threads 2",
        "separation --threads 2"}) {
    const ToolRun run = run_tool(args);
    ASSERT_EQ(run.exit_code, 2) << args << '\n' << run.output;
    EXPECT_NE(run.output.find("unknown option '--"), std::string::npos)
        << args << '\n' << run.output;
    EXPECT_NE(run.output.find("usage: fcm_tool"), std::string::npos) << args;
  }
}

TEST(FcmToolCli, OutOfRangeValuesAreUsageErrors) {
  // These reached a library precondition and exited 1 with its file and
  // line; they are malformed input, reported as such.
  for (const auto& [args, message] :
       {std::pair{"depend --q 1.5", "q must be in [0, 1]"},
        std::pair{"depend --q nan", "q must be in [0, 1]"},
        std::pair{"resilience --rare-event --q 2", "q must be in [0, 1]"},
        std::pair{"resilience --rare-event --tilt nan",
                  "tilt must be in [0, 1)"},
        std::pair{"separation --order 0", "--order must be >= 1"},
        std::pair{"resilience --trials 0", "trials must be positive"},
        std::pair{"resilience --hw 0", "hw must be in [1, 4096]"},
        std::pair{"resilience --horizon-ms 0", "horizon-ms must be positive"},
        std::pair{"resilience --horizon-ms -5",
                  "horizon-ms must be positive"}}) {
    const ToolRun run = run_tool(args);
    ASSERT_EQ(run.exit_code, 2) << args << '\n' << run.output;
    EXPECT_NE(run.output.find(message), std::string::npos)
        << args << '\n' << run.output;
    EXPECT_EQ(run.output.find("precondition failed"), std::string::npos)
        << args << '\n' << run.output;
    EXPECT_NE(run.output.find("usage: fcm_tool"), std::string::npos) << args;
  }
}

TEST(FcmToolCli, OptionsAResilienceModeDoesNotReadAreUsageErrors) {
  // Each mode used to accept the others' options and ignore them: the
  // campaign ran example98 under --synthetic 64 and printed the same bytes
  // as without it.
  const char* search[] = {"--restarts 2", "--iterations 2", "--neighbors 2",
                          "--max-events 2", "--max-crashes 1", "--anneal"};
  const char* sampler[] = {"--q 0.01", "--tilt 0.2", "--pilot 64",
                           "--levels 2"};
  std::vector<std::pair<std::string, std::string>> cases = {
      {"resilience --trials 4 --hw 21 --synthetic 64 --seed 5",
       "--synthetic does not apply to the campaign"},
      {"resilience --adversary --horizon-ms 100",
       "--horizon-ms does not apply to --adversary"},
      {"resilience --rare-event --horizon-ms 100",
       "--horizon-ms does not apply to --rare-event"}};
  for (const char* option : search) {
    cases.emplace_back(std::string("resilience ") + option,
                       "does not apply to the campaign");
    cases.emplace_back(std::string("resilience --rare-event ") + option,
                       "does not apply to --rare-event");
  }
  for (const char* option : sampler) {
    cases.emplace_back(std::string("resilience ") + option,
                       "does not apply to the campaign");
    cases.emplace_back(std::string("resilience --adversary ") + option,
                       "does not apply to --adversary");
  }
  for (const auto& [args, message] : cases) {
    const ToolRun run = run_tool(args);
    ASSERT_EQ(run.exit_code, 2) << args << '\n' << run.output;
    EXPECT_NE(run.output.find(message), std::string::npos)
        << args << '\n' << run.output;
    EXPECT_NE(run.output.find("usage: fcm_tool"), std::string::npos) << args;
  }
}

TEST(FcmToolCli, NegativeCountsAreUsageErrors) {
  // The first cases fail fast where negative counts are accepted; `serve`
  // comes last because accepting its count would start a daemon.
  for (const char* args :
       {"resilience --trials -1", "depend --trials -1",
        "resilience --adversary --trials -1",
        "resilience --adversary --restarts -1",
        "resilience --rare-event --pilot -1", "serve --workers -1"}) {
    const ToolRun run = run_tool(args);
    ASSERT_EQ(run.exit_code, 2) << args << '\n' << run.output;
    EXPECT_NE(run.output.find("must be >= 0"), std::string::npos)
        << args << '\n' << run.output;
    EXPECT_NE(run.output.find("usage: fcm_tool"), std::string::npos) << args;
  }
}

}  // namespace
