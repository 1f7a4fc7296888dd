#include "sched/feasibility.h"

#include <gtest/gtest.h>

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

TEST(Feasibility, PreemptiveEdfVerdicts) {
  EXPECT_TRUE(feasible(Policy::kPreemptiveEdf, {make_job(0, 0, 10, 4)}));
  EXPECT_FALSE(feasible(Policy::kPreemptiveEdf,
                        {make_job(0, 0, 5, 3), make_job(1, 2, 6, 4)}));
}

TEST(Feasibility, PolicyChangesVerdict) {
  // Preemption-dependent set <0,60,50> and <10,20,5>: preemptive EDF
  // interleaves (j0 0..10, j1 10..15, j0 15..55 <= 60). Non-preemptively,
  // j0 first ends at 50 > 20 (j1 misses); waiting and running j1 first
  // pushes j0 to 15..65 > 60. Infeasible under every dispatch order.
  const std::vector<Job> jobs{make_job(0, 0, 60, 50), make_job(1, 10, 20, 5)};
  EXPECT_TRUE(feasible(Policy::kPreemptiveEdf, jobs));
  EXPECT_FALSE(feasible(Policy::kNonPreemptive, jobs));
}

TEST(Feasibility, NpEdfHeuristicPolicy) {
  // The idle-insertion case NP-EDF cannot solve but exact search can.
  const std::vector<Job> jobs{make_job(0, 0, 20, 10), make_job(1, 5, 9, 4)};
  EXPECT_FALSE(feasible(Policy::kNonPreemptiveEdf, jobs));
  EXPECT_TRUE(feasible(Policy::kNonPreemptive, jobs));
}

TEST(Feasibility, PolicyNames) {
  EXPECT_STREQ(to_string(Policy::kPreemptiveEdf), "preemptive-EDF");
  EXPECT_STREQ(to_string(Policy::kNonPreemptive), "non-preemptive-exact");
  EXPECT_STREQ(to_string(Policy::kNonPreemptiveEdf), "non-preemptive-EDF");
}

}  // namespace
}  // namespace fcm::sched
