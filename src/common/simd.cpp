// Backend dispatch for the batched SIMD kernels.
//
// Selection order mirrors exec::resolve_threads: an explicit set_backend()
// call (the --simd CLI flag) wins, else the FCM_SIMD environment variable,
// else the best backend this build + CPU supports. Malformed env values are
// ignored rather than fatal, like FCM_THREADS. The choice never affects
// results — both backends are differential-tested to bitwise parity — so
// the scalar fallback is always safe.
#include "common/simd.h"

#include <atomic>
#include <cstdlib>

#include "common/simd_tables.h"

namespace fcm::simd {

namespace {

bool cpu_has_simd() noexcept {
#if defined(FCM_SIMD_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#elif defined(FCM_SIMD_NEON)
  return true;  // NEON is architecturally mandatory on AArch64
#else
  return false;
#endif
}

// kSimd when the build and CPU have it, else the scalar reference.
Backend usable(Backend requested) noexcept {
  return requested == Backend::kSimd && !simd_available()
             ? Backend::kScalarRef
             : requested;
}

Backend initial_backend() noexcept {
  if (const char* env = std::getenv("FCM_SIMD")) {
    if (const auto parsed = parse_backend(env)) return usable(*parsed);
  }
  return usable(Backend::kSimd);
}

std::atomic<Backend>& backend_slot() noexcept {
  static std::atomic<Backend> slot{initial_backend()};
  return slot;
}

}  // namespace

bool simd_available() noexcept {
#if defined(FCM_SIMD_AVX2) || defined(FCM_SIMD_NEON)
  static const bool available = cpu_has_simd();
  return available;
#else
  return cpu_has_simd();
#endif
}

Backend active_backend() noexcept {
  return backend_slot().load(std::memory_order_relaxed);
}

void set_backend(Backend backend) noexcept {
  backend_slot().store(usable(backend), std::memory_order_relaxed);
}

const KernelTable& kernels() noexcept { return kernels(active_backend()); }

const KernelTable& kernels(Backend backend) noexcept {
#if defined(FCM_SIMD_AVX2) || defined(FCM_SIMD_NEON)
  if (usable(backend) == Backend::kSimd) return detail::kSimdTable;
#else
  (void)backend;  // without an intrinsics TU every request is scalar
#endif
  return detail::kScalarTable;
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalarRef:
      return "scalar";
    case Backend::kSimd:
      return "simd";
  }
  return "?";
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
  if (name == "scalar") return Backend::kScalarRef;
  if (name == "simd") return Backend::kSimd;
  return std::nullopt;
}

}  // namespace fcm::simd
