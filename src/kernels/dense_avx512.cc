// AVX-512F + FMA tier of the dense kernels (see kernels/dense_tier.h); the
// dispatcher runs it on CPUs that report both features. x86 builds only.
#include "kernels/dense_tier.h"

#ifdef RIOT_DENSE_X86_TIERS

#include <algorithm>
#include <cstring>

#include "kernels/dense.h"
#include "util/aligned.h"

namespace riot {
namespace dense_internal {
namespace avx512 {

#define RIOT_TIER_TARGET __attribute__((target("avx512f,fma")))
#include "kernels/dense_tier.inc"

namespace {

// Tall tile for outputs more than four rows high: 24x6 holds 18 zmm
// accumulators of 32, the i axis vectorized eight doubles wide. Shorter
// outputs (covariance's 1'X) would pad it to 24 rows of mostly zeros and run
// no faster than on the baseline tier, so they run a short 4x8 tile instead
// (about 1.5x faster on 1'X; README "Kernel microarchitecture").
RIOT_TIER_TARGET void Gemm(const DenseView& a, bool trans_a,
                           const DenseView& b, bool trans_b, DenseView* c,
                           bool accumulate, double alpha) {
  if (c->rows <= 4) {
    GemmTiled<4, 8>(a, trans_a, b, trans_b, c, accumulate, alpha);
  } else {
    GemmTiled<24, 6>(a, trans_a, b, trans_b, c, accumulate, alpha);
  }
}

}  // namespace
#undef RIOT_TIER_TARGET
}  // namespace avx512

const DenseTier kAvx512Tier = {
    "avx512",     &avx512::Gemm,  &avx512::Add,
    &avx512::Sub, &avx512::Scale, &avx512::FusedEval,
    &avx512::SumSquaresRange};

}  // namespace dense_internal
}  // namespace riot

#endif  // RIOT_DENSE_X86_TIERS
