#include "kernels/dense.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/dense_tier.h"
#include "util/logging.h"

namespace riot {

namespace dense_internal {

std::vector<const DenseTier*> SupportedTiers() {
  std::vector<const DenseTier*> tiers = {&kBaselineTier};
#ifdef RIOT_DENSE_X86_TIERS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    tiers.push_back(&kAvx2Tier);
    if (__builtin_cpu_supports("avx512f")) tiers.push_back(&kAvx512Tier);
  }
#endif
  return tiers;
}

const DenseTier& ActiveTier() {
  static const DenseTier* const tier = SupportedTiers().back();
  return *tier;
}

}  // namespace dense_internal

using dense_internal::ActiveTier;

void BlockAdd(const DenseView& a, const DenseView& b, DenseView* c) {
  RIOT_DCHECK(a.rows == b.rows && a.cols == b.cols);
  RIOT_DCHECK(a.rows == c->rows && a.cols == c->cols);
  ActiveTier().add(a.data, b.data, c->data, a.elems());
}

void BlockSub(const DenseView& a, const DenseView& b, DenseView* c) {
  RIOT_DCHECK(a.rows == b.rows && a.cols == b.cols);
  ActiveTier().sub(a.data, b.data, c->data, a.elems());
}

void BlockScale(const DenseView& a, double alpha, DenseView* c) {
  RIOT_DCHECK(a.rows == c->rows && a.cols == c->cols);
  ActiveTier().scale(a.data, alpha, c->data, a.elems());
}

void BlockAddDiag(const DenseView& a, double alpha, DenseView* c) {
  RIOT_DCHECK(a.rows == a.cols);
  RIOT_DCHECK(a.rows == c->rows && a.cols == c->cols);
  if (c->data != a.data) {
    std::memcpy(c->data, a.data,
                static_cast<size_t>(a.elems()) * sizeof(double));
  }
  const int64_t step = a.rows + 1;  // column-major diagonal stride
  for (int64_t d = 0; d < a.rows; ++d) c->data[d * step] += alpha;
}

void BlockMap(double (*fn)(double), const DenseView& a, DenseView* c) {
  RIOT_DCHECK(a.rows == c->rows && a.cols == c->cols);
  const int64_t n = a.elems();
  const double* pa = a.data;
  double* pc = c->data;
  for (int64_t i = 0; i < n; ++i) pc[i] = fn(pa[i]);
}

void BlockZip(double (*fn)(double, double), const DenseView& a,
              const DenseView& b, DenseView* c) {
  RIOT_DCHECK(a.rows == b.rows && a.cols == b.cols);
  RIOT_DCHECK(a.rows == c->rows && a.cols == c->cols);
  const int64_t n = a.elems();
  const double* pa = a.data;
  const double* pb = b.data;
  double* pc = c->data;
  for (int64_t i = 0; i < n; ++i) pc[i] = fn(pa[i], pb[i]);
}

void BlockFusedEval(const FusedOp* tape, int n_ops,
                    const double* const* inputs, double* out, int64_t n) {
  RIOT_DCHECK(n_ops >= 1 && n_ops <= kMaxFusedTapeOps);
  ActiveTier().fused_eval(tape, n_ops, inputs, out, n);
}

void BlockGemm(const DenseView& a, bool trans_a, const DenseView& b,
               bool trans_b, DenseView* c, bool accumulate, double alpha) {
  const int64_t m = trans_a ? a.cols : a.rows;
  const int64_t k = trans_a ? a.rows : a.cols;
  const int64_t kb_dim = trans_b ? b.cols : b.rows;
  const int64_t n = trans_b ? b.rows : b.cols;
  RIOT_CHECK_EQ(k, kb_dim);
  RIOT_CHECK_EQ(m, c->rows);
  RIOT_CHECK_EQ(n, c->cols);
  ActiveTier().gemm(a, trans_a, b, trans_b, c, accumulate, alpha);
}

namespace {

inline double Get(const DenseView& v, bool trans, int64_t r, int64_t c) {
  return trans ? v.At(c, r) : v.At(r, c);
}

}  // namespace

void BlockGemmNaive(const DenseView& a, bool trans_a, const DenseView& b,
                    bool trans_b, DenseView* c, bool accumulate,
                    double alpha) {
  const int64_t m = trans_a ? a.cols : a.rows;
  const int64_t k = trans_a ? a.rows : a.cols;
  const int64_t kb = trans_b ? b.cols : b.rows;
  const int64_t n = trans_b ? b.rows : b.cols;
  RIOT_CHECK_EQ(k, kb);
  RIOT_CHECK_EQ(m, c->rows);
  RIOT_CHECK_EQ(n, c->cols);
  if (!accumulate) {
    std::memset(c->data, 0, static_cast<size_t>(m * n) * sizeof(double));
  }
  // j-k-i axpy loop over column-major data; fine cache behavior only for the
  // non-transposed case — the general path below does strided Get() calls.
  // This is the pre-packing implementation, kept as a bench/test baseline.
  if (!trans_a && !trans_b) {
    for (int64_t j = 0; j < n; ++j) {
      double* cj = c->data + j * m;
      for (int64_t kk = 0; kk < k; ++kk) {
        const double bkj = alpha * b.At(kk, j);
        if (bkj == 0.0) continue;
        const double* ak = a.data + kk * m;
        for (int64_t i = 0; i < m; ++i) cj[i] += ak[i] * bkj;
      }
    }
    return;
  }
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const double bkj = alpha * Get(b, trans_b, kk, j);
      if (bkj == 0.0) continue;
      for (int64_t i = 0; i < m; ++i) {
        c->At(i, j) += Get(a, trans_a, i, kk) * bkj;
      }
    }
  }
}

namespace {
// Deliberately unoptimized element accessor kept out-of-line so the
// "scalar engine" comparator pays per-element call overhead.
__attribute__((noinline)) double ScalarFetch(const DenseView& v, bool trans,
                                             int64_t r, int64_t c) {
  return trans ? v.At(c, r) : v.At(r, c);
}
}  // namespace

void BlockGemmScalar(const DenseView& a, bool trans_a, const DenseView& b,
                     bool trans_b, DenseView* c, bool accumulate) {
  const int64_t m = trans_a ? a.cols : a.rows;
  const int64_t k = trans_a ? a.rows : a.cols;
  const int64_t n = trans_b ? b.rows : b.cols;
  if (!accumulate) {
    std::memset(c->data, 0, static_cast<size_t>(m * n) * sizeof(double));
  }
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += ScalarFetch(a, trans_a, i, kk) * ScalarFetch(b, trans_b, kk, j);
      }
      c->At(i, j) += acc;
    }
  }
}

void BlockFillRandom(DenseView* v, uint64_t seed) {
  // SplitMix64: deterministic, fast, good enough distribution for data gen.
  uint64_t x = seed + 0x9E3779B97F4A7C15ULL;
  const int64_t n = v->elems();
  for (int64_t i = 0; i < n; ++i) {
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    v->data[i] = static_cast<double>(z % 2000) / 1000.0 - 1.0;  // [-1, 1)
  }
}

void BlockFillConst(DenseView* v, double value) {
  const int64_t n = v->elems();
  for (int64_t i = 0; i < n; ++i) v->data[i] = value;
}

Status BlockInverse(const DenseView& in, DenseView* out) {
  RIOT_CHECK_EQ(in.rows, in.cols);
  RIOT_CHECK_EQ(out->rows, in.rows);
  RIOT_CHECK_EQ(out->cols, in.cols);
  const int64_t n = in.rows;
  std::vector<double> lu(in.data, in.data + n * n);
  std::vector<int64_t> piv(static_cast<size_t>(n));
  auto at = [&](int64_t r, int64_t c) -> double& { return lu[c * n + r]; };
  for (int64_t i = 0; i < n; ++i) piv[static_cast<size_t>(i)] = i;
  // LU with partial pivoting.
  for (int64_t k = 0; k < n; ++k) {
    int64_t p = k;
    double best = std::fabs(at(k, k));
    for (int64_t r = k + 1; r < n; ++r) {
      if (std::fabs(at(r, k)) > best) {
        best = std::fabs(at(r, k));
        p = r;
      }
    }
    if (best == 0.0) return Status::InvalidArgument("singular matrix");
    if (p != k) {
      for (int64_t c = 0; c < n; ++c) std::swap(at(p, c), at(k, c));
      std::swap(piv[static_cast<size_t>(p)], piv[static_cast<size_t>(k)]);
    }
    for (int64_t r = k + 1; r < n; ++r) {
      at(r, k) /= at(k, k);
      const double f = at(r, k);
      if (f == 0.0) continue;
      for (int64_t c = k + 1; c < n; ++c) at(r, c) -= f * at(k, c);
    }
  }
  // Solve for each identity column.
  std::vector<double> y(static_cast<size_t>(n));
  for (int64_t col = 0; col < n; ++col) {
    for (int64_t r = 0; r < n; ++r) {
      y[static_cast<size_t>(r)] =
          piv[static_cast<size_t>(r)] == col ? 1.0 : 0.0;
    }
    for (int64_t r = 0; r < n; ++r) {  // forward (unit lower)
      for (int64_t c = 0; c < r; ++c) {
        y[static_cast<size_t>(r)] -= at(r, c) * y[static_cast<size_t>(c)];
      }
    }
    for (int64_t r = n - 1; r >= 0; --r) {  // backward (upper)
      for (int64_t c = r + 1; c < n; ++c) {
        y[static_cast<size_t>(r)] -= at(r, c) * y[static_cast<size_t>(c)];
      }
      y[static_cast<size_t>(r)] /= at(r, r);
    }
    for (int64_t r = 0; r < n; ++r) out->At(r, col) = y[static_cast<size_t>(r)];
  }
  return Status::OK();
}

double BlockSumSquares(const DenseView& v) {
  // Column-by-column so the value matches BlockColumnSumSquares lane-for-lane
  // and stays fixed if callers ever pass column sub-views.
  const dense_internal::DenseTier& tier = ActiveTier();
  double acc = 0.0;
  for (int64_t c = 0; c < v.cols; ++c) {
    acc += tier.sum_squares(v.data + c * v.rows, v.rows);
  }
  return acc;
}

void BlockColumnSumSquares(const DenseView& v, double* acc) {
  const dense_internal::DenseTier& tier = ActiveTier();
  for (int64_t c = 0; c < v.cols; ++c) {
    acc[c] += tier.sum_squares(v.data + c * v.rows, v.rows);
  }
}

double BlockMaxAbsDiff(const DenseView& a, const DenseView& b) {
  double m = 0.0;
  const int64_t n = a.elems();
  for (int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(a.data[i] - b.data[i]));
  }
  return m;
}

}  // namespace riot
