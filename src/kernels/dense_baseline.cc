// Baseline tier of the dense kernels (see kernels/dense_tier.h): the build's
// default ISA — SSE2 on x86-64, whatever the target offers elsewhere. With
// SSE2's 16 xmm registers one 4x4 tile (8 accumulators) serves every shape.
#include <algorithm>
#include <cstring>

#include "kernels/dense.h"
#include "kernels/dense_tier.h"
#include "util/aligned.h"

namespace riot {
namespace dense_internal {
namespace baseline {

#define RIOT_TIER_TARGET
#include "kernels/dense_tier.inc"
#undef RIOT_TIER_TARGET

namespace {

void Gemm(const DenseView& a, bool trans_a, const DenseView& b, bool trans_b,
          DenseView* c, bool accumulate, double alpha) {
  GemmTiled<4, 4>(a, trans_a, b, trans_b, c, accumulate, alpha);
}

}  // namespace
}  // namespace baseline

const DenseTier kBaselineTier = {
    "baseline",     &baseline::Gemm,      &baseline::Add,
    &baseline::Sub, &baseline::Scale,     &baseline::FusedEval,
    &baseline::SumSquaresRange};

}  // namespace dense_internal
}  // namespace riot
