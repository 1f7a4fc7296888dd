// Internal: per-backend kernel tables linked into the dispatcher. Not part
// of the public surface — include "common/simd.h" instead.
#pragma once

#include "common/simd.h"

namespace fcm::simd::detail {

extern const KernelTable kScalarTable;
#if defined(FCM_SIMD_AVX2) || defined(FCM_SIMD_NEON)
extern const KernelTable kSimdTable;
#endif

}  // namespace fcm::simd::detail
