// Runtime-dispatched SIMD kernels for the numeric hot paths.
//
// The three hot kernels (Monte Carlo trial lotteries, Eq. 1-4
// influence/separation products, Eq. 3 power-series row updates) spend their
// time in a handful of elementwise loops. This module restructures those
// loops into structure-of-arrays batches behind a table of function
// pointers, with two interchangeable backends:
//
//   kScalarRef — the kept reference. Compiled with auto-vectorization
//                disabled so it measures (and preserves) the true scalar
//                semantics the other backend is differential-tested
//                against.
//   kSimd      — explicit intrinsics (AVX2 on x86-64, NEON on AArch64),
//                compiled in its own translation unit with the needed -m
//                flags only, and selected at runtime only when the CPU
//                reports the feature.
//
// Every kernel is bitwise-deterministic across backends: batched loops are
// either per-element independent (row updates), reorder-safe for the
// values that can occur (min over clamped probabilities), or reproduce a
// serial recurrence exactly in integer arithmetic (the leapfrogged PCG
// uniform stream). Nothing here may reassociate a floating-point reduction:
// block folds stay Neumaier-compensated in block order on the caller's
// side, exactly as before (DESIGN.md §16).
//
// Backend selection: `FCM_SIMD` environment variable (scalar | simd),
// overridden by an explicit `--simd` CLI flag via set_backend(). Unset or
// unrecognized values pick the best available backend. A build with
// -DFCM_SIMD=OFF (CMake) or a CPU without the feature silently degrades
// kSimd to kScalarRef, never changing results — only speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace fcm::simd {

/// The numeric values are stable identifiers: bench_simd passes them as
/// google-benchmark arguments.
enum class Backend : int {
  kScalarRef = 0,
  kSimd = 2,
};

/// The batched kernels. One table per backend; all tables compute
/// bit-identical results on identical inputs.
struct KernelTable {
  /// Generates `n` uniforms in [0,1) from the PCG-XSH-RR stream whose raw
  /// LCG state is `state` (increment `inc`), writing them to `dst` and
  /// advancing `state` by exactly 2n raw steps. Uniform i consumes raw
  /// outputs 2i (high word) and 2i+1 (low word), matching Rng::uniform().
  void (*fill_uniforms)(std::uint64_t* state, std::uint64_t inc, double* dst,
                        std::size_t n);

  /// Fused row fold: for r in [0, m) apply out[j] += coeffs[r] * rows[r][j],
  /// per element in ascending row order — bit-identical to m sequential
  /// row sweeps, but out is loaded and stored once per element instead of
  /// once per row. This is the dense power-series row update.
  void (*axpy_rows)(double* out, const double* const* rows,
                    const double* coeffs, std::size_t m, std::size_t n);

  /// out[cols[e]] += a * vals[e] for e in [0, n). Columns within the run
  /// are distinct (CSR row invariant), so element order is value-neutral;
  /// stores stay serialized regardless.
  void (*csr_axpy)(double* out, const std::uint32_t* cols, const double* vals,
                   double a, std::size_t n);

  /// Fused lottery: dst[i] = (u_i < threshold) for the next n uniforms u_i
  /// of the PCG stream rooted at `state`, advancing `state` by exactly 2n
  /// raw steps — bit-identical to comparing fill_uniforms' output against
  /// threshold, but backends may decide u_i < threshold in integer space
  /// (u_i = bits_i * 2^-53 exactly, so u_i < t ⟺ bits_i < ceil(t * 2^53))
  /// and never materialize the uniforms. This is the Monte Carlo
  /// failure-lottery batch of montecarlo.cpp step 1.
  void (*bernoulli)(std::uint64_t* state, std::uint64_t inc, double threshold,
                    std::uint8_t* dst, std::size_t n);

  /// min over i of clamp01(1 - s[i]), where clamp01 follows the
  /// Probability::clamped contract (NaN -> 0, then clamp to [0,1]).
  /// Returns 1.0 when n == 0.
  double (*min_complement)(const double* s, std::size_t n);
};

/// True when the kSimd backend is compiled in and the CPU supports it.
bool simd_available() noexcept;

/// The process-wide backend used by kernels(). Defaults to the best
/// available backend, overridden by FCM_SIMD (scalar | simd) at first
/// use, then by set_backend().
Backend active_backend() noexcept;

/// Selects the process-wide backend. Requests for an unavailable kSimd
/// degrade to kScalarRef (results are identical either way).
void set_backend(Backend backend) noexcept;

/// Kernel table of the active backend.
const KernelTable& kernels() noexcept;

/// Kernel table of a specific backend (kSimd degrades to kScalarRef when
/// unavailable; check simd_available() to detect degradation).
const KernelTable& kernels(Backend backend) noexcept;

/// "scalar" or "simd".
const char* backend_name(Backend backend) noexcept;

/// Parses a backend name as accepted by FCM_SIMD / --simd; nullopt when the
/// name is not recognized.
std::optional<Backend> parse_backend(std::string_view name) noexcept;

}  // namespace fcm::simd
