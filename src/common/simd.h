// The kernel backend name the benchmark manifest prints. Every build runs
// one portable kernel path (DESIGN.md §16), so the answer is always
// "scalar"; nothing in the library reads this header.
#pragma once

namespace fcm::simd {

enum class Backend : int { kScalarRef = 0 };

constexpr Backend active_backend() noexcept { return Backend::kScalarRef; }

constexpr const char* backend_name(Backend /*backend*/) noexcept {
  return "scalar";
}

}  // namespace fcm::simd
