// BatchRng must continue an Rng's stream bit-for-bit on every backend: it is
// the bridge that lets the Monte Carlo engines batch uniform generation
// without changing a single sampled value.
#include "common/batch_rng.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/simd.h"

namespace fcm {
namespace {

class BatchRngBackendTest
    : public ::testing::TestWithParam<simd::Backend> {
 protected:
  void SetUp() override {
    previous_ = simd::active_backend();
    simd::set_backend(GetParam());
  }
  void TearDown() override { simd::set_backend(previous_); }

 private:
  simd::Backend previous_;
};

TEST_P(BatchRngBackendTest, UniformMatchesRngStream) {
  Rng reference(2024, 3);
  BatchRng batch(Rng(2024, 3));
  // Beyond one buffer refill (kBufferSize = 256) to cover the refill seam.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(reference.uniform(), batch.uniform()) << "draw " << i;
  }
}

TEST_P(BatchRngBackendTest, ChanceMatchesRngStream) {
  Rng reference(7, 0);
  BatchRng batch(Rng(7, 0));
  const Probability p = Probability::clamped(0.31);
  for (int i = 0; i < 600; ++i) {
    ASSERT_EQ(reference.chance(p), batch.chance(p)) << "draw " << i;
  }
}

TEST_P(BatchRngBackendTest, FillInterleavedWithUniformKeepsStreamOrder) {
  Rng reference(99, 11);
  BatchRng batch(Rng(99, 11));
  // Mix scalar draws and bulk fills of awkward sizes (1, lane remainder,
  // larger than the internal buffer): the concatenation must equal the
  // serial stream.
  const std::size_t fills[] = {1, 3, 17, 63, 300, 5};
  for (const std::size_t n : fills) {
    ASSERT_EQ(reference.uniform(), batch.uniform());
    std::vector<double> got(n, -1.0);
    batch.fill(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(reference.uniform(), got[i]) << "fill n=" << n << " i=" << i;
    }
  }
}

TEST_P(BatchRngBackendTest, SubstreamsStayIndependent) {
  // Substream identity is untouched by batching: block b's batch stream is
  // exactly substream(b)'s serial stream.
  const Rng master(555);
  for (const std::uint64_t block : {0ULL, 1ULL, 42ULL}) {
    Rng reference = master.substream(block);
    BatchRng batch(master.substream(block));
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(reference.uniform(), batch.uniform());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BatchRngBackendTest,
                         ::testing::Values(simd::Backend::kScalarRef,
                                           simd::Backend::kSimd),
                         [](const auto& info) {
                           return simd::backend_name(info.param);
                         });

}  // namespace
}  // namespace fcm
