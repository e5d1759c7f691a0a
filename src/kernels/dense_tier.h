// Internal seam between the public dense kernels (kernels/dense.cc) and
// their per-ISA implementations. The hot loops — the packed GEMM, the
// elementwise streams, the fused-tape interpreter and the fixed-lane
// reduction — are written once (kernels/dense_tier.inc) and compiled once
// per x86 tier, each in its own translation unit whose functions carry that
// tier's `target` attribute:
//
//   dense_baseline.cc  the build's default ISA (SSE2 on x86-64), 4x4 tile
//   dense_avx2.cc      AVX2 + FMA
//   dense_avx512.cc    AVX-512F + FMA
//
// Only the tier's own functions get the wider ISA: header inline functions
// instantiated in a tier TU are still compiled for the baseline, so no
// symbol the linker may merge across TUs ever holds AVX code. Each tier picks
// its register tile from the output shape; the tile constants live in the
// tier TU, never in a header. Non-x86 builds compile the baseline tier only.
//
// The public Block* entry points run ActiveTier(): the widest tier the CPU
// supports, chosen once per process. Tests reach every supported tier here.
#ifndef RIOTSHARE_KERNELS_DENSE_TIER_H_
#define RIOTSHARE_KERNELS_DENSE_TIER_H_

#include <cstdint>
#include <vector>

#include "kernels/dense.h"

#if defined(__x86_64__) || defined(__i386__)
#define RIOT_DENSE_X86_TIERS 1
#endif

namespace riot {
namespace dense_internal {

/// \brief One ISA tier's hot kernels, with the semantics of the public
/// kernels of the same name; the public entry points check shapes first.
struct DenseTier {
  const char* name;  // "baseline", "avx2" or "avx512"
  void (*gemm)(const DenseView& a, bool trans_a, const DenseView& b,
               bool trans_b, DenseView* c, bool accumulate, double alpha);
  void (*add)(const double* a, const double* b, double* c, int64_t n);
  void (*sub)(const double* a, const double* b, double* c, int64_t n);
  void (*scale)(const double* a, double alpha, double* c, int64_t n);
  void (*fused_eval)(const FusedOp* tape, int n_ops,
                     const double* const* inputs, double* out, int64_t n);
  /// Fixed-lane sum of squares of p[0, n).
  double (*sum_squares)(const double* p, int64_t n);
};

extern const DenseTier kBaselineTier;
#ifdef RIOT_DENSE_X86_TIERS
extern const DenseTier kAvx2Tier;
extern const DenseTier kAvx512Tier;
#endif

/// The tiers compiled into this build that this CPU can run, narrowest
/// first; the baseline tier is always first.
std::vector<const DenseTier*> SupportedTiers();

/// The widest supported tier, selected on first use. Every public Block*
/// kernel with a tiered implementation runs this one.
const DenseTier& ActiveTier();

}  // namespace dense_internal
}  // namespace riot

#endif  // RIOTSHARE_KERNELS_DENSE_TIER_H_
