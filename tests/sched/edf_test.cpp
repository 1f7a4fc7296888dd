#include "sched/edf.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace fcm::sched {
namespace {

Job make_job(std::uint32_t id, std::int64_t est, std::int64_t tcd,
             std::int64_t ct) {
  Job job;
  job.id = JobId(id);
  job.name = "j" + std::to_string(id);
  job.release = Instant::epoch() + Duration::micros(est);
  job.deadline = Instant::epoch() + Duration::micros(tcd);
  job.cost = Duration::micros(ct);
  return job;
}

TEST(Edf, EmptySetIsFeasible) {
  EXPECT_TRUE(edf_feasible({}));
}

TEST(Edf, SingleJobMeetsDeadline) {
  const Schedule s = edf_schedule({make_job(0, 0, 10, 4)});
  EXPECT_TRUE(s.feasible);
  ASSERT_EQ(s.slices.size(), 1u);
  EXPECT_EQ(s.slices[0].start, Instant::epoch());
  EXPECT_EQ(s.slices[0].end, Instant::epoch() + Duration::micros(4));
}

TEST(Edf, OverloadedSetIsInfeasible) {
  // Two jobs each needing 6 of the same 10-unit window.
  const std::vector<Job> jobs{make_job(0, 0, 10, 6), make_job(1, 0, 10, 6)};
  const Schedule s = edf_schedule(jobs);
  EXPECT_FALSE(s.feasible);
  EXPECT_TRUE(s.first_miss.valid());
}

TEST(Edf, PreemptionRescuesTightJob) {
  // Long job starts first, urgent job arrives and preempts.
  const std::vector<Job> jobs{make_job(0, 0, 100, 50),
                              make_job(1, 10, 20, 5)};
  const Schedule s = edf_schedule(jobs);
  EXPECT_TRUE(s.feasible);
  // Urgent job must complete by 20.
  EXPECT_LE(s.completion(JobId(1)), Instant::epoch() + Duration::micros(20));
}

TEST(Edf, IdleGapBetweenReleases) {
  const std::vector<Job> jobs{make_job(0, 0, 5, 2), make_job(1, 10, 15, 2)};
  const Schedule s = edf_schedule(jobs);
  EXPECT_TRUE(s.feasible);
  ASSERT_EQ(s.slices.size(), 2u);
  EXPECT_EQ(s.slices[1].start, Instant::epoch() + Duration::micros(10));
}

TEST(Edf, TheSection6CollocationDevice) {
  // The paper's example of two processes that cannot share a processor:
  // <0,5,3> and <2,6,4> — total demand 7 in a window of 6.
  const std::vector<Job> jobs{make_job(0, 0, 5, 3), make_job(1, 2, 6, 4)};
  EXPECT_FALSE(edf_feasible(jobs));
}

TEST(Edf, SlicesNeverOverlapAndRespectReleases) {
  const std::vector<Job> jobs{make_job(0, 0, 30, 5), make_job(1, 2, 12, 4),
                              make_job(2, 3, 9, 2), make_job(3, 20, 28, 6)};
  const Schedule s = edf_schedule(jobs);
  EXPECT_TRUE(s.feasible);
  for (std::size_t i = 1; i < s.slices.size(); ++i) {
    EXPECT_LE(s.slices[i - 1].end, s.slices[i].start);
  }
  for (const Slice& slice : s.slices) {
    const auto job = std::find_if(jobs.begin(), jobs.end(), [&](const Job& j) {
      return j.id == slice.job;
    });
    ASSERT_NE(job, jobs.end());
    EXPECT_GE(slice.start, job->release);
  }
}

TEST(Edf, TotalRuntimeEqualsCost) {
  const std::vector<Job> jobs{make_job(0, 0, 40, 7), make_job(1, 1, 25, 9)};
  const Schedule s = edf_schedule(jobs);
  Duration run0 = Duration::zero(), run1 = Duration::zero();
  for (const Slice& slice : s.slices) {
    if (slice.job == JobId(0)) run0 += slice.end - slice.start;
    if (slice.job == JobId(1)) run1 += slice.end - slice.start;
  }
  EXPECT_EQ(run0, Duration::micros(7));
  EXPECT_EQ(run1, Duration::micros(9));
}

TEST(ProcessorDemand, AgreesWithSimpleCases) {
  EXPECT_TRUE(processor_demand_feasible({make_job(0, 0, 10, 4)}));
  EXPECT_FALSE(processor_demand_feasible(
      {make_job(0, 0, 10, 6), make_job(1, 0, 10, 6)}));
}

class EdfVsDemandCriterion : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EdfVsDemandCriterion, SimulationMatchesAnalyticCriterion) {
  // EDF simulation feasibility must coincide with the processor-demand
  // criterion on random job sets (both are exact characterizations).
  Rng rng(GetParam());
  std::vector<Job> jobs;
  const std::size_t n = 2 + rng.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t est = rng.range(0, 30);
    const std::int64_t ct = rng.range(1, 10);
    const std::int64_t tcd = est + ct + rng.range(0, 15);
    jobs.push_back(make_job(static_cast<std::uint32_t>(i), est, tcd, ct));
  }
  EXPECT_EQ(edf_feasible(jobs), processor_demand_feasible(jobs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfVsDemandCriterion,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(EdfFeasible, MatchesScheduleVerdict) {
  // edf_feasible runs the release sweep without recording slices and stops
  // at the first miss; its verdict must be edf_schedule's on every set.
  // Releases and deadlines come from a coarse grid so ties are common,
  // widely spread releases leave idle gaps, and the load varies so that
  // sets miss early, late, or not at all.
  Rng rng(2026);
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Job> jobs;
    const std::size_t n = 1 + rng.below(9);
    const std::int64_t spread = rng.chance(Probability(0.5)) ? 8 : 80;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t est = 4 * rng.range(0, spread / 4);
      const std::int64_t ct = rng.range(1, 12);
      const std::int64_t tcd = est + 4 * rng.range(0, 6) + ct / 2;
      jobs.push_back(make_job(static_cast<std::uint32_t>(i), est, tcd, ct));
    }
    const bool verdict = edf_schedule(jobs).feasible;
    EXPECT_EQ(edf_feasible(jobs), verdict) << "trial " << trial;
    ++(verdict ? feasible : infeasible);
  }
  EXPECT_GT(feasible, 100);
  EXPECT_GT(infeasible, 100);

  // The first job to run misses, and so does only the last one.
  const std::vector<Job> early{make_job(0, 0, 2, 5), make_job(1, 0, 50, 1)};
  const std::vector<Job> late{make_job(0, 0, 10, 3), make_job(1, 0, 20, 4),
                              make_job(2, 30, 31, 2)};
  for (const auto& jobs : {early, late}) {
    EXPECT_FALSE(edf_schedule(jobs).feasible);
    EXPECT_FALSE(edf_feasible(jobs));
  }

  // A non-positive cost is rejected by both, wherever it sits in the set.
  for (const std::int64_t cost : {0, -3}) {
    const std::vector<Job> bad{make_job(0, 0, 10, 2),
                               make_job(1, 0, 10, cost)};
    EXPECT_THROW((void)edf_schedule(bad), InvalidArgument);
    EXPECT_THROW((void)edf_feasible(bad), InvalidArgument);
  }
}

}  // namespace
}  // namespace fcm::sched
