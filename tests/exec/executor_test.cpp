// fcm::exec executor semantics: every block runs exactly once, lanes are
// exclusive, nested submissions run inline, exceptions propagate and leave
// the pool reusable, resolve_threads honors the FCM_THREADS override, and
// the deterministic work metrics are invariant under the thread count.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/trace.h"

namespace fcm::exec {
namespace {

// RAII FCM_THREADS override: tests must not leak the env var into each
// other (or into resolve_threads calls made by unrelated tests).
class ScopedEnvThreads {
 public:
  explicit ScopedEnvThreads(const char* value) {
    if (value == nullptr) {
      ::unsetenv("FCM_THREADS");
    } else {
      ::setenv("FCM_THREADS", value, 1);
    }
  }
  ~ScopedEnvThreads() { ::unsetenv("FCM_THREADS"); }
};

TEST(ResolveThreads, ExplicitRequestWinsOverEverything) {
  const ScopedEnvThreads env("7");
  EXPECT_EQ(resolve_threads(3, 100), 3u);
}

TEST(ResolveThreads, ClampsToParallelWidth) {
  EXPECT_EQ(resolve_threads(8, 5), 5u);
  EXPECT_EQ(resolve_threads(8, 1), 1u);
  // Zero-width regions still resolve to one lane (the serial path).
  EXPECT_EQ(resolve_threads(8, 0), 1u);
}

TEST(ResolveThreads, ZeroFallsBackToEnvThenHardware) {
  {
    const ScopedEnvThreads env("6");
    EXPECT_EQ(resolve_threads(0, 100), 6u);
  }
  {
    const ScopedEnvThreads env(nullptr);
    const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(resolve_threads(0, 1'000'000), hw);
  }
}

TEST(ResolveThreads, MalformedEnvIsIgnored) {
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const char* bad : {"", "0", "-2", "abc", "3x", "99999999999999"}) {
    const ScopedEnvThreads env(bad);
    EXPECT_EQ(resolve_threads(0, 1'000'000), hw) << "FCM_THREADS=" << bad;
  }
}

TEST(ParallelForBlocks, EveryBlockRunsExactlyOnce) {
  for (const std::uint32_t threads : {1u, 2u, 3u, 8u}) {
    constexpr std::uint64_t kBlocks = 333;
    std::vector<std::atomic<std::uint32_t>> runs(kBlocks);
    parallel_for_blocks(kBlocks, threads,
                        [&](std::uint64_t block, std::uint32_t /*lane*/) {
                          runs[block].fetch_add(1);
                        });
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      EXPECT_EQ(runs[b].load(), 1u) << "block " << b << " threads " << threads;
    }
  }
}

TEST(ParallelForBlocks, ZeroBlocksIsANoop) {
  bool ran = false;
  parallel_for_blocks(
      0, 8, [&](std::uint64_t, std::uint32_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForBlocks, LanesAreDenseAndExclusive) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kBlocks = 256;
  std::vector<std::atomic<std::uint32_t>> occupancy(kThreads);
  std::atomic<bool> overlap{false};
  std::atomic<std::uint32_t> max_lane{0};
  parallel_for_blocks(
      kBlocks, kThreads, [&](std::uint64_t /*block*/, std::uint32_t lane) {
        ASSERT_LT(lane, kThreads);
        std::uint32_t seen = max_lane.load();
        while (lane > seen && !max_lane.compare_exchange_weak(seen, lane)) {
        }
        // A lane is exclusive: no two threads may be inside the same lane
        // index simultaneously, or per-lane scratch would race.
        if (occupancy[lane].fetch_add(1) != 0) overlap.store(true);
        occupancy[lane].fetch_sub(1);
      });
  EXPECT_FALSE(overlap.load());
  EXPECT_LT(max_lane.load(), kThreads);
}

TEST(ParallelForBlocks, CallerParticipatesAsLaneZero) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> lane0_on_caller{true};
  parallel_for_blocks(64, 4,
                      [&](std::uint64_t /*block*/, std::uint32_t lane) {
                        if (lane == 0 &&
                            std::this_thread::get_id() != caller) {
                          lane0_on_caller.store(false);
                        }
                      });
  EXPECT_TRUE(lane0_on_caller.load());
}

TEST(ParallelForBlocks, NestedCallsRunInlineOnTheOuterLane) {
  constexpr std::uint64_t kOuter = 8;
  constexpr std::uint64_t kInner = 16;
  std::vector<std::atomic<std::uint32_t>> inner_runs(kOuter * kInner);
  std::atomic<bool> inner_inline{true};
  parallel_for_blocks(
      kOuter, 4, [&](std::uint64_t outer, std::uint32_t /*lane*/) {
        const std::thread::id outer_thread = std::this_thread::get_id();
        // The inner call asks for 8 lanes but must not re-enter the pool:
        // it runs every inner block on this thread, as lane 0.
        parallel_for_blocks(
            kInner, 8, [&](std::uint64_t inner, std::uint32_t inner_lane) {
              if (std::this_thread::get_id() != outer_thread ||
                  inner_lane != 0) {
                inner_inline.store(false);
              }
              inner_runs[outer * kInner + inner].fetch_add(1);
            });
      });
  EXPECT_TRUE(inner_inline.load());
  for (std::uint64_t i = 0; i < kOuter * kInner; ++i) {
    EXPECT_EQ(inner_runs[i].load(), 1u) << "inner block " << i;
  }
}

TEST(ParallelForBlocks, ExceptionPropagatesAndPoolStaysUsable) {
  EXPECT_THROW(
      parallel_for_blocks(64, 4,
                          [&](std::uint64_t block, std::uint32_t) {
                            if (block == 17) {
                              throw std::runtime_error("block 17 failed");
                            }
                          }),
      std::runtime_error);
  // The pool must quiesce cleanly: the next submission still runs every
  // block exactly once.
  std::vector<std::atomic<std::uint32_t>> runs(128);
  parallel_for_blocks(128, 4,
                      [&](std::uint64_t block, std::uint32_t) {
                        runs[block].fetch_add(1);
                      });
  for (std::size_t b = 0; b < runs.size(); ++b) {
    EXPECT_EQ(runs[b].load(), 1u) << "block " << b;
  }
}

// Regression: a worker beyond a narrow submission's lane count can wake
// from the epoch change only after that submission has already retired and
// run() cleared job_. It must treat the null job as "sit this one out",
// not dereference it. Alternating wide submissions (which park many
// workers) with narrow, near-empty ones (which retire almost instantly)
// re-opens that window on every iteration.
TEST(ParallelForBlocks, SatOutWorkersTolerateRetiredSubmissions) {
  std::atomic<std::uint64_t> total{0};
  for (int iteration = 0; iteration < 200; ++iteration) {
    parallel_for_blocks(16, 8, [&](std::uint64_t, std::uint32_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    parallel_for_blocks(2, 2, [&](std::uint64_t, std::uint32_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * (16u + 2u));
}

#if FCM_OBS_ENABLED

class ExecObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
    obs::TraceCollector::global().reset();
  }
  void TearDown() override {
    (void)obs::TraceCollector::global().collect();
    obs::TraceCollector::global().reset();
    obs::MetricsRegistry::global().reset();
    obs::set_enabled(false);
  }
};

// The deterministic work metrics (everything except exec.sched.*) must be
// identical whether the region ran serially or on the pool.
TEST_F(ExecObsTest, WorkCountersAreThreadInvariant) {
  auto run_and_snapshot = [](std::uint32_t threads) {
    obs::MetricsRegistry::global().reset();
    parallel_for_blocks(48, threads, [](std::uint64_t, std::uint32_t) {});
    parallel_for_blocks(16, threads, [](std::uint64_t, std::uint32_t) {});
    std::map<std::string, std::uint64_t> counters;
    for (const auto& [name, value] :
         obs::MetricsRegistry::global().snapshot().counters) {
      if (name.find(".sched.") == std::string::npos) counters[name] = value;
    }
    return counters;
  };
  const auto serial = run_and_snapshot(1);
  const auto pooled = run_and_snapshot(4);
  EXPECT_EQ(serial, pooled);
  EXPECT_EQ(serial.at("exec.submissions"), 2u);
  EXPECT_EQ(serial.at("exec.tasks"), 64u);
}

TEST_F(ExecObsTest, NestedInlineIsCounted) {
  parallel_for_blocks(4, 2, [](std::uint64_t, std::uint32_t) {
    parallel_for_blocks(8, 4, [](std::uint64_t, std::uint32_t) {});
  });
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snapshot.counters.at("exec.submissions"), 1u);
  EXPECT_EQ(snapshot.counters.at("exec.nested_inline"), 4u);
  EXPECT_EQ(snapshot.counters.at("exec.tasks"), 4u + 4u * 8u);
}

// Regression: a persistent pool reuses threads across unrelated top-level
// calls. Before spans carried a submission id, two back-to-back workloads
// interleaved in the merged trace (the per-thread buffers were keyed by
// thread alone). They must partition cleanly now.
TEST_F(ExecObsTest, BackToBackWorkloadsKeepDistinctSubmissions) {
  parallel_for_blocks(32, 4, [](std::uint64_t block, std::uint32_t) {
    FCM_OBS_SPAN("workload.alpha", block);
  });
  parallel_for_blocks(32, 4, [](std::uint64_t block, std::uint32_t) {
    FCM_OBS_SPAN("workload.beta", block);
  });
  // Drop scheduling spans (e.g. the pool's first-use resize): whether the
  // pool grew depends on what ran before this test.
  std::vector<obs::SpanRecord> spans;
  for (const obs::SpanRecord& span :
       obs::TraceCollector::global().collect()) {
    if (std::string(span.name).rfind("workload.", 0) == 0) {
      spans.push_back(span);
    }
  }
  ASSERT_EQ(spans.size(), 64u);
  std::map<std::string, std::uint64_t> submission_of;
  for (const obs::SpanRecord& span : spans) {
    ASSERT_NE(span.submission, 0u) << span.name;
    const auto [it, inserted] =
        submission_of.try_emplace(span.name, span.submission);
    // Every span of one workload carries that workload's submission id...
    EXPECT_EQ(it->second, span.submission) << span.name;
  }
  ASSERT_EQ(submission_of.size(), 2u);
  // ...and the two workloads' ids differ, and order the trace correctly.
  EXPECT_LT(submission_of.at("workload.alpha"),
            submission_of.at("workload.beta"));
  // collect() groups by submission, so all alpha spans precede all beta
  // spans even though the same pooled threads recorded both.
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_STREQ(spans[i].name, "workload.alpha");
  }
  for (std::size_t i = 32; i < 64; ++i) {
    EXPECT_STREQ(spans[i].name, "workload.beta");
  }
}

// Spans recorded by nested inline work attribute to the outer submission.
TEST_F(ExecObsTest, NestedSpansInheritTheOuterSubmission) {
  parallel_for_blocks(4, 2, [](std::uint64_t, std::uint32_t) {
    parallel_for_blocks(2, 8, [](std::uint64_t inner, std::uint32_t) {
      FCM_OBS_SPAN("nested.inner", inner);
    });
  });
  std::vector<obs::SpanRecord> spans;
  for (const obs::SpanRecord& span :
       obs::TraceCollector::global().collect()) {
    if (std::string(span.name).rfind("nested.", 0) == 0) {
      spans.push_back(span);
    }
  }
  ASSERT_EQ(spans.size(), 8u);
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.submission, spans[0].submission);
    EXPECT_NE(span.submission, 0u);
  }
}

#endif  // FCM_OBS_ENABLED

}  // namespace
}  // namespace fcm::exec
