// Dense column-major block kernels — the in-memory compute substrate
// standing in for GotoBLAS2. All kernels operate on raw double buffers
// viewed as column-major matrices (the paper's storage scheme: blocks laid
// out column-major, elements within a block column-major).
//
// GEMM follows the GotoBLAS decomposition: op(A)/op(B) panels are packed
// into contiguous 64-byte-aligned buffers (the pack step absorbs both
// transpose flags, so all four flag combinations run the same register-tiled
// microkernel), with kc/mc/nc cache blocking around an mr x nr inner tile.
// Reductions use a fixed lane count and a fixed combine tree so results are
// run-to-run deterministic without -ffast-math.
//
// The hot loops are compiled once per x86 ISA tier (baseline, AVX2+FMA,
// AVX-512) and each call runs the widest tier the CPU supports, chosen once
// per process (kernels/dense_tier.h). Each tier picks its register tile from
// the output shape. Results are deterministic per host. On FMA hosts GEMM
// fuses multiply-adds, so its results on general doubles may differ in the
// last bit across hosts with different ISAs; on integer data that stays below
// 2^53 they are exact everywhere. The elementwise, fused-tape and reduction
// kernels never fuse and give the same bits on every host.
#ifndef RIOTSHARE_KERNELS_DENSE_H_
#define RIOTSHARE_KERNELS_DENSE_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace riot {

/// \brief Non-owning column-major matrix view: element (r, c) is
/// data[c * rows + r].
struct DenseView {
  double* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;

  double& At(int64_t r, int64_t c) { return data[c * rows + r]; }
  double At(int64_t r, int64_t c) const { return data[c * rows + r]; }
  int64_t elems() const { return rows * cols; }
};

/// C = A + B (elementwise); all views same shape.
void BlockAdd(const DenseView& a, const DenseView& b, DenseView* c);

/// C = A - B (elementwise).
void BlockSub(const DenseView& a, const DenseView& b, DenseView* c);

/// C = alpha * A (elementwise).
void BlockScale(const DenseView& a, double alpha, DenseView* c);

/// C = A + alpha * I; A (and C) square.
void BlockAddDiag(const DenseView& a, double alpha, DenseView* c);

/// C = fn(A) elementwise (registered scalar map, by pointer).
void BlockMap(double (*fn)(double), const DenseView& a, DenseView* c);

/// C = fn(A, B) elementwise (registered scalar zip, by pointer).
void BlockZip(double (*fn)(double, double), const DenseView& a,
              const DenseView& b, DenseView* c);

/// \brief One compiled instruction of a fused statement's scalar tape —
/// the executable mirror of ir/statement_op.h TapeOp with access indices
/// resolved to input slots and scalar-fn ids resolved to pointers (kernel
/// synthesis does the resolution once per statement, not per element).
struct FusedOp {
  enum class Code { kLoad, kAdd, kSub, kScale, kMap, kZip };
  Code code = Code::kLoad;
  int a = -1;  // kLoad: slot in `inputs`; otherwise an earlier tape position
  int b = -1;  // second tape position for kAdd/kSub/kZip
  double alpha = 1.0;                     // kScale
  double (*map_fn)(double) = nullptr;     // kMap
  double (*zip_fn)(double, double) = nullptr;  // kZip
};

/// Hard cap on one fused tape's length: bounds the interpreter's strip
/// scratch (kMaxFusedTapeOps x kFusedStripElems doubles declared; only the
/// rows of live tape positions are touched, so a typical tape's working
/// strips stay L1-resident). core/fusion.h plans clusters under this.
inline constexpr int kMaxFusedTapeOps = 32;

/// Strip width of the fused-tape interpreter: each tape op runs as one
/// unit-stride loop over a strip this wide (16 KB of doubles for an
/// 8-entry tape), so the loop vectorizer turns every arithmetic op into
/// packed SIMD while intermediates never leave the strip buffer.
inline constexpr int kFusedStripElems = 256;

/// out[i] = tape(inputs...[i]) for i in [0, n): single-pass interpretation
/// of a fused elementwise cluster. All input buffers and `out` are dense
/// unit-stride arrays of n elements; the last tape position is the result.
/// Strict per-element evaluation order matches running the constituent
/// kernels (BlockAdd/BlockSub/BlockScale/BlockMap/BlockZip) one at a time
/// through materialized temporaries, so fused and unfused lowerings are
/// bit-identical.
void BlockFusedEval(const FusedOp* tape, int n_ops,
                    const double* const* inputs, double* out, int64_t n);

/// C op= alpha * op(A) * op(B); accumulate=false overwrites C.
/// transpose flags select op(X) = X or X^T (BLAS-style).
///
/// Packed implementation: both operands are repacked into aligned panels
/// (absorbing the transpose flags), so every flag combination runs the same
/// contiguous microkernel. Summation order over k is fixed (kc chunks
/// ascending, elements ascending within a chunk) and independent of the
/// m/n blocking, so results are run-to-run deterministic.
void BlockGemm(const DenseView& a, bool trans_a, const DenseView& b,
               bool trans_b, DenseView* c, bool accumulate,
               double alpha = 1.0);

/// The pre-packing triple-loop GEMM (axpy fast path for the untransposed
/// case, strided element-at-a-time fallback otherwise). Kept only as a
/// reference comparator for tests and the kernel microbench baseline —
/// production call sites use BlockGemm.
void BlockGemmNaive(const DenseView& a, bool trans_a, const DenseView& b,
                    bool trans_b, DenseView* c, bool accumulate,
                    double alpha = 1.0);

/// Scalar (non-blocked, element-at-a-time with function-call overhead)
/// GEMM used to model a system computing without an optimized kernel
/// (SciDB-like comparator).
void BlockGemmScalar(const DenseView& a, bool trans_a, const DenseView& b,
                     bool trans_b, DenseView* c, bool accumulate);

/// Fill with a deterministic pseudo-random pattern (seeded).
void BlockFillRandom(DenseView* v, uint64_t seed);
void BlockFillConst(DenseView* v, double value);

/// out = in^-1 via LU with partial pivoting; fails on singular input.
Status BlockInverse(const DenseView& in, DenseView* out);

/// Sum of squares of all elements (RSS building block). Fixed 8-lane
/// accumulation with a fixed combine tree: deterministic and SLP-friendly.
double BlockSumSquares(const DenseView& v);

/// Column-wise sum of squares added into acc[0..cols): RSS per response.
void BlockColumnSumSquares(const DenseView& v, double* acc);

/// Max absolute elementwise difference (verification helper).
double BlockMaxAbsDiff(const DenseView& a, const DenseView& b);

}  // namespace riot

#endif  // RIOTSHARE_KERNELS_DENSE_H_
