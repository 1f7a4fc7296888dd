// Internal: per-backend kernel tables linked into the dispatcher. Not part
// of the public surface — include "common/simd.h" instead.
#pragma once

#include "common/simd.h"

namespace fcm::simd::detail {

extern const KernelTable kScalarTable;
extern const KernelTable kAutoVecTable;
#if defined(FCM_SIMD_AVX2) || defined(FCM_SIMD_NEON)
extern const KernelTable kSimdTable;
#endif

// The kAutoVec kernels with external linkage so the intrinsics backends can
// reuse them for the lanes they do not reimplement (e.g. NEON has no 64-bit
// vector multiply, so its table keeps the auto-vectorized PCG leapfrog).
namespace autovec {
void fill_uniforms(std::uint64_t* state, std::uint64_t inc, double* dst,
                   std::size_t n);
void axpy(double* out, const double* p, double a, std::size_t n);
void axpy_rows(double* out, const double* const* rows, const double* coeffs,
               std::size_t m, std::size_t n);
void csr_axpy(double* out, const std::uint32_t* cols, const double* vals,
              double a, std::size_t n);
void less_than(const double* u, double threshold, std::uint8_t* dst,
               std::size_t n);
void bernoulli(std::uint64_t* state, std::uint64_t inc, double threshold,
               std::uint8_t* dst, std::size_t n);
double min_complement(const double* s, std::size_t n);
}  // namespace autovec

}  // namespace fcm::simd::detail
