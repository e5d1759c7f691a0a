// AVX2 + FMA tier of the dense kernels (see kernels/dense_tier.h); the
// dispatcher runs it on CPUs that report both features. x86 builds only.
#include "kernels/dense_tier.h"

#ifdef RIOT_DENSE_X86_TIERS

#include <algorithm>
#include <cstring>

#include "kernels/dense.h"
#include "util/aligned.h"

namespace riot {
namespace dense_internal {
namespace avx2 {

#define RIOT_TIER_TARGET __attribute__((target("avx2,fma")))
#include "kernels/dense_tier.inc"

namespace {

// Tall tile for every output at least three rows high: 8 ymm accumulators
// of 16 registers, the i axis vectorized four doubles wide. One- and
// two-row outputs (covariance's 1'X) would pad the tall tile to 8 rows of
// mostly zeros, so they run a short 2x8 tile instead.
RIOT_TIER_TARGET void Gemm(const DenseView& a, bool trans_a,
                           const DenseView& b, bool trans_b, DenseView* c,
                           bool accumulate, double alpha) {
  if (c->rows <= 2) {
    GemmTiled<2, 8>(a, trans_a, b, trans_b, c, accumulate, alpha);
  } else {
    GemmTiled<8, 4>(a, trans_a, b, trans_b, c, accumulate, alpha);
  }
}

}  // namespace
#undef RIOT_TIER_TARGET
}  // namespace avx2

const DenseTier kAvx2Tier = {"avx2",      &avx2::Gemm,  &avx2::Add,
                             &avx2::Sub,  &avx2::Scale, &avx2::FusedEval,
                             &avx2::SumSquaresRange};

}  // namespace dense_internal
}  // namespace riot

#endif  // RIOT_DENSE_X86_TIERS
