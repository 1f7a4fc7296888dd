// Ablation — SIMD backend differential: the three vectorized hot kernels
// (Monte Carlo trial lotteries = PCG uniform fill + threshold compare,
// Eq. 3 power-series dense/CSR row updates, Eq. 3 min-separation folds)
// timed per backend (scalar reference / intrinsics) with every speedup
// gated on a bitwise-identity check, plus one Monte Carlo evaluate_mapping
// call per backend compared against the scalar report. The headline
// speedups vs kScalarRef are recorded to BENCH_simd.json.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/simd.h"
#include "common/table.h"
#include "core/example98.h"
#include "dependability/montecarlo.h"
#include "mapping/assignment.h"

namespace {

using namespace fcm;
using namespace fcm::dependability;

// Raw PCG LCG state/increment for the kernel benches (inc must be odd).
// Arbitrary but fixed: every backend replays the same stream.
constexpr std::uint64_t kState0 = 0x853c49e6748fea9bULL;
constexpr std::uint64_t kInc = 0xda3e39cb94b95bdbULL;

// Work sizes: one "pass" is roughly one Monte Carlo block / one dense row
// sweep, repeated enough times for a stable wall-clock reading.
constexpr std::size_t kDraws = 1u << 11;     // uniforms per lottery chunk
constexpr int kFillPasses = 1024;
constexpr std::size_t kN = 256;              // dense series block dimension
constexpr std::size_t kBlock = 8;            // p rows folded per out row
constexpr int kSeriesPasses = 4;
constexpr std::size_t kCsrEntries = 1u << 14;  // gapped CSR row entries
constexpr int kCsrPasses = 64;
constexpr std::size_t kRowLen = 4096;        // min-separation fold row length

std::vector<simd::Backend> backends() {
  std::vector<simd::Backend> list{simd::Backend::kScalarRef};
  if (simd::simd_available()) list.push_back(simd::Backend::kSimd);
  return list;
}

// --- Kernel workloads (identical inputs per backend; outputs memcmp'd) ---

// Monte Carlo trial lottery: draw kDraws failure flags per chunk through
// the fused bernoulli kernel — the exact shape of montecarlo.cpp step 1
// (BatchRng::bernoulli off the raw stream state). The chunk stays
// L1-resident like the engine's lottery batches.
void mc_pass(const simd::KernelTable& k, std::vector<std::uint8_t>& failed) {
  std::uint64_t state = kState0;
  for (int pass = 0; pass < kFillPasses; ++pass) {
    k.bernoulli(&state, kInc, 0.1, failed.data(), kDraws);
  }
}

// Dense series row updates in the blocked shape of graph/series.h
// dense_rows: out[i,:] += a_ik * p[k,:] over a kBlock-row slab of p that
// stays cache-resident (exactly how P^m reuses P's rows across out rows).
// out is NOT re-zeroed per pass: accumulation is deterministic and every
// backend runs the same pass count, so timings stay comparable without a
// memset diluting the kernel.
void series_pass(const simd::KernelTable& k, const std::vector<double>& p,
                 std::vector<double>& out) {
  const double* rows[kBlock];
  double coeffs[kBlock];
  for (std::size_t r = 0; r < kBlock; ++r) rows[r] = p.data() + r * kN;
  for (int pass = 0; pass < kSeriesPasses; ++pass) {
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t r = 0; r < kBlock; ++r) {
        coeffs[r] = 0.125 + 1e-3 * static_cast<double>(i + r);
      }
      k.axpy_rows(out.data() + i * kN, rows, coeffs, kBlock, kN);
    }
  }
}

// CSR row updates with gapped columns (the lane-blocked SpMV inner loop).
void csr_pass(const simd::KernelTable& k, const std::vector<std::uint32_t>& cols,
              const std::vector<double>& vals, std::vector<double>& out) {
  std::fill(out.begin(), out.end(), 0.0);
  for (int pass = 0; pass < kCsrPasses; ++pass) {
    k.csr_axpy(out.data(), cols.data(), vals.data(), 0.37, kCsrEntries);
  }
}

// Min-separation fold over clamped complements (core/separation.cpp).
double min_pass(const simd::KernelTable& k, const std::vector<double>& s) {
  double acc = 1.0;
  for (std::size_t row = 0; row + kRowLen <= s.size(); row += kRowLen) {
    acc = std::min(acc, k.min_complement(s.data() + row, kRowLen));
  }
  return acc;
}

struct KernelTimes {
  double mc = 0.0;
  double series = 0.0;
  double csr = 0.0;
  double min_fold = 0.0;
  bool identical = true;  // all outputs bitwise equal to kScalarRef's
};

KernelTimes time_backend(simd::Backend backend, const KernelTimes* reference,
                         std::vector<double>& ref_uniforms,
                         std::vector<std::uint8_t>& ref_failed,
                         std::vector<double>& ref_series,
                         std::vector<double>& ref_csr, double& ref_min) {
  const simd::KernelTable& k = simd::kernels(backend);
  const int repeat = bench::repeat();

  std::vector<double> uniforms(kDraws);
  std::vector<std::uint8_t> failed(kDraws);
  std::vector<double> p(kBlock * kN);
  std::vector<double> out(std::max(kN * kN, 3 * kCsrEntries + 2));
  std::vector<std::uint32_t> cols(kCsrEntries);
  std::vector<double> vals(kCsrEntries);
  std::vector<double> separations(64 * kRowLen);

  // Deterministic inputs, same for every backend. The separation buffer
  // includes NaNs and out-of-range values to keep the clamp on the timed
  // path honest.
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = 0.001 * static_cast<double>(i % 997);
  }
  for (std::size_t e = 0; e < kCsrEntries; ++e) {
    cols[e] = static_cast<std::uint32_t>(3 * e + (e % 2));
    vals[e] = 0.002 * static_cast<double>(e % 499);
  }
  for (std::size_t i = 0; i < separations.size(); ++i) {
    separations[i] = i % 8191 == 0
                         ? std::numeric_limits<double>::quiet_NaN()
                         : 1e-4 * static_cast<double>(i % 9973) - 0.01;
  }

  KernelTimes times;
  times.mc =
      bench::timed_median_seconds(repeat, [&] { mc_pass(k, failed); });
  std::fill(out.begin(), out.end(), 0.0);
  times.series =
      bench::timed_median_seconds(repeat, [&] { series_pass(k, p, out); });
  times.csr =
      bench::timed_median_seconds(repeat, [&] { csr_pass(k, cols, vals, out); });
  double min_value = 1.0;
  times.min_fold = bench::timed_median_seconds(
      repeat, [&] { benchmark::DoNotOptimize(min_value = min_pass(k, separations)); });

  // One controlled pass per kernel for the bitwise comparison (plus an
  // untimed fill_uniforms pass so the uniform stream itself stays under
  // differential test alongside the fused lottery flags).
  mc_pass(k, failed);
  std::uint64_t fill_state = kState0;
  k.fill_uniforms(&fill_state, kInc, uniforms.data(), kDraws);
  std::fill(out.begin(), out.end(), 0.0);
  series_pass(k, p, out);
  const double min_final = min_pass(k, separations);
  std::vector<double> csr_out(3 * kCsrEntries + 2);
  csr_pass(k, cols, vals, csr_out);

  if (reference == nullptr) {
    ref_uniforms = uniforms;
    ref_failed = failed;
    ref_series.assign(out.begin(), out.begin() + kN * kN);
    ref_csr = csr_out;
    ref_min = min_final;
  } else {
    times.identical =
        std::memcmp(uniforms.data(), ref_uniforms.data(),
                    kDraws * sizeof(double)) == 0 &&
        std::memcmp(failed.data(), ref_failed.data(), kDraws) == 0 &&
        std::memcmp(out.data(), ref_series.data(),
                    kN * kN * sizeof(double)) == 0 &&
        std::memcmp(csr_out.data(), ref_csr.data(),
                    csr_out.size() * sizeof(double)) == 0 &&
        std::memcmp(&min_final, &ref_min, sizeof(double)) == 0;
  }
  return times;
}

// --- The full Monte Carlo evaluator per backend ---

struct Setup {
  core::example98::Instance instance = core::example98::make_instance();
  mapping::SwGraph sw = mapping::SwGraph::build(
      instance.hierarchy, instance.influence, instance.processes);
  mapping::HwGraph hw = mapping::HwGraph::complete(6);
  mapping::ClusteringResult clustering;
  mapping::Assignment assignment;

  Setup() {
    mapping::ClusteringOptions options;
    options.target_clusters = 6;
    mapping::ClusterEngine engine(sw, options);
    clustering = engine.criticality_pairing();
    assignment = mapping::assign_by_importance(sw, clustering, hw);
  }
};

bool reports_identical(const DependabilityReport& a,
                       const DependabilityReport& b) {
  return a.system_survival == b.system_survival &&
         a.critical_survival == b.critical_survival &&
         a.expected_criticality_loss == b.expected_criticality_loss &&
         a.process_survival == b.process_survival;
}

void print_reproduction() {
  bench::banner("SIMD backend differential: kernels, " +
                std::to_string(bench::repeat()) + " repeat(s), median");
  const simd::Backend saved = simd::active_backend();
  const std::vector<simd::Backend> all = backends();
  if (!simd::simd_available()) {
    std::cout << "(intrinsics backend unavailable on this build/CPU — "
                 "only the scalar reference runs)\n";
  }

  std::vector<double> ref_uniforms;
  std::vector<std::uint8_t> ref_failed;
  std::vector<double> ref_series, ref_csr;
  double ref_min = 0.0;
  std::vector<KernelTimes> times;
  for (std::size_t i = 0; i < all.size(); ++i) {
    times.push_back(time_backend(all[i], i == 0 ? nullptr : &times[0],
                                 ref_uniforms, ref_failed, ref_series,
                                 ref_csr, ref_min));
  }

  const KernelTimes& scalar = times[0];
  const KernelTimes& best = times.back();
  TextTable table({"backend", "mc trials", "series rows", "csr rows",
                   "min fold", "identical"});
  for (std::size_t i = 0; i < all.size(); ++i) {
    table.add_row({simd::backend_name(all[i]), fmt(times[i].mc, 4),
                   fmt(times[i].series, 4), fmt(times[i].csr, 4),
                   fmt(times[i].min_fold, 4),
                   times[i].identical ? "yes" : "NO"});
  }
  std::cout << table.render();
  std::cout << "speedups vs scalar reference ("
            << simd::backend_name(all.back())
            << "): mc trials " << fmt(scalar.mc / best.mc, 1)
            << "x, series rows " << fmt(scalar.series / best.series, 1)
            << "x, csr rows " << fmt(scalar.csr / best.csr, 1)
            << "x, min fold " << fmt(scalar.min_fold / best.min_fold, 1)
            << "x\n(seconds are medians; \"identical\" = every kernel output "
               "memcmp-equal to the scalar row)\n";

  bench::banner("Monte Carlo evaluate_mapping per backend");
  Setup setup;
  MissionModel mission;
  mission.hw_failure = Probability(0.1);
  mission.sw_fault = Probability(0.02);
  mission.propagate = true;
  mission.trials = 200'000;
  mission.threads = 1;

  DependabilityReport scalar_report;
  bool evaluate_identical = true;
  double evaluate_scalar = 0.0, evaluate_best = 0.0;
  TextTable evaluate({"backend", "seconds", "identical report"});
  for (std::size_t i = 0; i < all.size(); ++i) {
    simd::set_backend(all[i]);
    DependabilityReport report;
    const double seconds = bench::timed_median_seconds(bench::repeat(), [&] {
      report = evaluate_mapping(setup.sw, setup.clustering, setup.assignment,
                                setup.hw, mission, 2024);
    });
    if (i == 0) scalar_report = report;
    const bool identical = reports_identical(scalar_report, report);
    evaluate_identical = evaluate_identical && identical;
    if (i == 0) evaluate_scalar = seconds;
    if (i + 1 == all.size()) evaluate_best = seconds;
    evaluate.add_row({simd::backend_name(all[i]), fmt(seconds, 4),
                      identical ? "yes" : "NO"});
  }
  simd::set_backend(saved);
  std::cout << evaluate.render();
  std::cout << "(evaluate_mapping gains are smaller than kernel gains: "
               "propagation and bookkeeping stay scalar)\n";

  bool kernels_identical = true;
  for (const KernelTimes& t : times) {
    kernels_identical = kernels_identical && t.identical;
  }
  const bool bitwise_identical = kernels_identical && evaluate_identical;

  std::ofstream json("BENCH_simd.json");
  json << "{\n"
       << "  \"bench\": \"simd_backends\",\n"
       << "  \"repeat\": " << bench::repeat() << ",\n"
       << "  \"simd_available\": "
       << (simd::simd_available() ? "true" : "false") << ",\n"
       << "  \"best_backend\": \"" << simd::backend_name(all.back())
       << "\",\n"
       << "  \"seconds_mc_scalar\": " << scalar.mc << ",\n"
       << "  \"seconds_mc_best\": " << best.mc << ",\n"
       << "  \"speedup_mc_trials\": " << scalar.mc / best.mc << ",\n"
       << "  \"seconds_series_scalar\": " << scalar.series << ",\n"
       << "  \"seconds_series_best\": " << best.series << ",\n"
       << "  \"speedup_series_rows\": " << scalar.series / best.series
       << ",\n"
       << "  \"speedup_csr_rows\": " << scalar.csr / best.csr << ",\n"
       << "  \"speedup_min_fold\": " << scalar.min_fold / best.min_fold
       << ",\n"
       << "  \"seconds_mc_evaluate_scalar\": " << evaluate_scalar << ",\n"
       << "  \"seconds_mc_evaluate_best\": " << evaluate_best << ",\n"
       << "  \"speedup_mc_evaluate\": " << evaluate_scalar / evaluate_best
       << ",\n"
       << "  \"bitwise_identical\": "
       << (bitwise_identical ? "true" : "false") << "\n}\n";
  std::cout << "(backend record written to BENCH_simd.json)\n";
}

// --- google-benchmark microbenches, one Arg per backend ---

void BM_FillUniforms(benchmark::State& state) {
  const simd::KernelTable& k =
      simd::kernels(static_cast<simd::Backend>(state.range(0)));
  std::vector<double> uniforms(kDraws);
  for (auto _ : state) {
    std::uint64_t rng_state = kState0;
    k.fill_uniforms(&rng_state, kInc, uniforms.data(), kDraws);
    benchmark::DoNotOptimize(uniforms.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDraws));
}
BENCHMARK(BM_FillUniforms)->Arg(0)->Arg(2);

void BM_MinComplement(benchmark::State& state) {
  const simd::KernelTable& k =
      simd::kernels(static_cast<simd::Backend>(state.range(0)));
  std::vector<double> s(kRowLen);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = 1e-4 * static_cast<double>(i % 9973);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.min_complement(s.data(), kRowLen));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRowLen));
}
BENCHMARK(BM_MinComplement)->Arg(0)->Arg(2);

}  // namespace

FCM_BENCH_MAIN(print_reproduction)
