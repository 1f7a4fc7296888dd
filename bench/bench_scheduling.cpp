// Ablation — the collocation schedulability oracle: preemptive EDF
// (exact, polynomial) vs exact non-preemptive branch-and-bound vs the
// NP-EDF heuristic, on random job sets of growing size. This is the check
// every clustering step pays for ("several well-known scheduling
// algorithms can be used to check the feasibility", §6).
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "sched/edf.h"
#include "sched/nonpreemptive.h"

namespace {

using namespace fcm;
using namespace fcm::sched;

std::vector<Job> random_jobs(std::size_t n, std::uint64_t seed,
                             double load = 0.7) {
  Rng rng(seed);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    Job job;
    job.id = JobId(static_cast<std::uint32_t>(i));
    job.name = "j" + std::to_string(i);
    const std::int64_t est = rng.range(0, 40);
    const std::int64_t ct = rng.range(1, 10);
    const std::int64_t slack =
        rng.range(0, static_cast<std::int64_t>(12.0 * (1.0 - load)) + 8);
    job.release = Instant::epoch() + Duration::micros(est);
    job.cost = Duration::micros(ct);
    job.deadline = Instant::epoch() + Duration::micros(est + ct + slack);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void print_reproduction() {
  bench::banner("Scheduling oracle comparison (100 random 8-job sets)");
  int edf_yes = 0, np_exact_yes = 0, np_heur_yes = 0, heuristic_misses = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto jobs = random_jobs(8, seed);
    const bool edf = edf_feasible(jobs);
    const bool np = np_feasible(jobs);
    const bool heur = np_edf_schedule(jobs).feasible;
    edf_yes += edf;
    np_exact_yes += np;
    np_heur_yes += heur;
    if (np && !heur) ++heuristic_misses;
  }
  TextTable table({"oracle", "feasible sets / 100"});
  table.add_row({"preemptive EDF (exact)", std::to_string(edf_yes)});
  table.add_row({"non-preemptive exact (B&B)", std::to_string(np_exact_yes)});
  table.add_row({"non-preemptive EDF heuristic", std::to_string(np_heur_yes)});
  std::cout << table.render();
  std::cout << "\npreemption dominates (" << edf_yes << " >= "
            << np_exact_yes << "); the NP-EDF heuristic under-accepts "
            << heuristic_misses << " sets the exact search proves feasible\n";
}

void BM_EdfFeasibility(benchmark::State& state) {
  const auto jobs = random_jobs(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(edf_feasible(jobs));
  }
}
BENCHMARK(BM_EdfFeasibility)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_NpExactFeasibility(benchmark::State& state) {
  const auto jobs = random_jobs(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(np_feasible(jobs));
  }
}
BENCHMARK(BM_NpExactFeasibility)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_NpEdfHeuristic(benchmark::State& state) {
  const auto jobs = random_jobs(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(np_edf_schedule(jobs).feasible);
  }
}
BENCHMARK(BM_NpEdfHeuristic)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

FCM_BENCH_MAIN(print_reproduction)
