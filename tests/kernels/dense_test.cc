#include "kernels/dense.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "ir/scalar_ops.h"
#include "kernels/dense_tier.h"

namespace riot {
namespace {

std::vector<double> Buf(int64_t rows, int64_t cols, double fill = 0.0) {
  return std::vector<double>(static_cast<size_t>(rows * cols), fill);
}

TEST(DenseViewTest, ColumnMajorIndexing) {
  auto b = Buf(2, 3);
  DenseView v{b.data(), 2, 3};
  v.At(1, 2) = 42.0;
  EXPECT_EQ(b[2 * 2 + 1], 42.0);  // col 2 * rows 2 + row 1
  EXPECT_EQ(v.elems(), 6);
}

TEST(DenseKernelTest, AddAndSub) {
  auto a = Buf(2, 2), b = Buf(2, 2), c = Buf(2, 2);
  DenseView va{a.data(), 2, 2}, vb{b.data(), 2, 2}, vc{c.data(), 2, 2};
  for (int i = 0; i < 4; ++i) {
    a[static_cast<size_t>(i)] = i;
    b[static_cast<size_t>(i)] = 10 * i;
  }
  BlockAdd(va, vb, &vc);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c[static_cast<size_t>(i)], 11 * i);
  BlockSub(vb, va, &vc);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c[static_cast<size_t>(i)], 9 * i);
}

TEST(DenseKernelTest, GemmKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50], column-major storage.
  std::vector<double> a = {1, 3, 2, 4};
  std::vector<double> b = {5, 7, 6, 8};
  auto c = Buf(2, 2);
  DenseView va{a.data(), 2, 2}, vb{b.data(), 2, 2}, vc{c.data(), 2, 2};
  BlockGemm(va, false, vb, false, &vc, /*accumulate=*/false);
  EXPECT_EQ(vc.At(0, 0), 19);
  EXPECT_EQ(vc.At(0, 1), 22);
  EXPECT_EQ(vc.At(1, 0), 43);
  EXPECT_EQ(vc.At(1, 1), 50);
}

TEST(DenseKernelTest, GemmAccumulates) {
  std::vector<double> a = {1, 0, 0, 1};  // identity
  std::vector<double> b = {1, 2, 3, 4};
  auto c = Buf(2, 2, /*fill=*/100.0);
  DenseView va{a.data(), 2, 2}, vb{b.data(), 2, 2}, vc{c.data(), 2, 2};
  BlockGemm(va, false, vb, false, &vc, /*accumulate=*/true);
  EXPECT_EQ(vc.At(0, 0), 101);
  EXPECT_EQ(vc.At(1, 1), 104);
}

TEST(DenseKernelTest, GemmTransposeFlagsAgreeWithManual) {
  const int64_t m = 3, k = 4, n = 2;
  auto a = Buf(m, k);
  auto b = Buf(k, n);
  DenseView va{a.data(), m, k}, vb{b.data(), k, n};
  BlockFillRandom(&va, 1);
  BlockFillRandom(&vb, 2);
  // Reference C = A * B.
  auto cref = Buf(m, n);
  DenseView vcref{cref.data(), m, n};
  BlockGemm(va, false, vb, false, &vcref, false);
  // A^T stored explicitly, then C = (A^T)^T * B must match.
  auto at = Buf(k, m);
  DenseView vat{at.data(), k, m};
  for (int64_t r = 0; r < m; ++r)
    for (int64_t c = 0; c < k; ++c) vat.At(c, r) = va.At(r, c);
  auto c1 = Buf(m, n);
  DenseView vc1{c1.data(), m, n};
  BlockGemm(vat, true, vb, false, &vc1, false);
  EXPECT_LE(BlockMaxAbsDiff(vcref, vc1), 1e-12);
  // B^T stored explicitly, then C = A * (B^T)^T must match.
  auto bt = Buf(n, k);
  DenseView vbt{bt.data(), n, k};
  for (int64_t r = 0; r < k; ++r)
    for (int64_t c = 0; c < n; ++c) vbt.At(c, r) = vb.At(r, c);
  auto c2 = Buf(m, n);
  DenseView vc2{c2.data(), m, n};
  BlockGemm(va, false, vbt, true, &vc2, false);
  EXPECT_LE(BlockMaxAbsDiff(vcref, vc2), 1e-12);
}

TEST(DenseKernelTest, GemmScalarMatchesBlocked) {
  const int64_t m = 5, k = 7, n = 3;
  auto a = Buf(m, k), b = Buf(k, n), c1 = Buf(m, n), c2 = Buf(m, n);
  DenseView va{a.data(), m, k}, vb{b.data(), k, n};
  DenseView vc1{c1.data(), m, n}, vc2{c2.data(), m, n};
  BlockFillRandom(&va, 11);
  BlockFillRandom(&vb, 12);
  BlockGemm(va, false, vb, false, &vc1, false);
  BlockGemmScalar(va, false, vb, false, &vc2, false);
  EXPECT_LE(BlockMaxAbsDiff(vc1, vc2), 1e-12);
}

TEST(DenseKernelTest, GemmAlphaScaling) {
  std::vector<double> a = {1, 0, 0, 1};
  std::vector<double> b = {1, 2, 3, 4};
  auto c = Buf(2, 2);
  DenseView va{a.data(), 2, 2}, vb{b.data(), 2, 2}, vc{c.data(), 2, 2};
  BlockGemm(va, false, vb, false, &vc, false, /*alpha=*/-2.0);
  EXPECT_EQ(vc.At(0, 0), -2);
  EXPECT_EQ(vc.At(1, 1), -8);
}

TEST(DenseKernelTest, InverseRoundTrip) {
  const int64_t n = 8;
  auto a = Buf(n, n);
  DenseView va{a.data(), n, n};
  BlockFillRandom(&va, 5);
  for (int64_t i = 0; i < n; ++i) va.At(i, i) += 10.0;  // well-conditioned
  auto inv = Buf(n, n), prod = Buf(n, n);
  DenseView vinv{inv.data(), n, n}, vprod{prod.data(), n, n};
  ASSERT_TRUE(BlockInverse(va, &vinv).ok());
  BlockGemm(va, false, vinv, false, &vprod, false);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(vprod.At(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(DenseKernelTest, InverseSingularFails) {
  auto a = Buf(2, 2, 1.0);  // all ones: singular
  auto out = Buf(2, 2);
  DenseView va{a.data(), 2, 2}, vout{out.data(), 2, 2};
  EXPECT_FALSE(BlockInverse(va, &vout).ok());
}

TEST(DenseKernelTest, InversePivotsCorrectly) {
  // Zero on the diagonal forces a row swap.
  std::vector<double> a = {0, 1, 1, 0};  // [[0,1],[1,0]] col-major
  auto inv = Buf(2, 2);
  DenseView va{a.data(), 2, 2}, vinv{inv.data(), 2, 2};
  ASSERT_TRUE(BlockInverse(va, &vinv).ok());
  EXPECT_NEAR(vinv.At(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(vinv.At(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(vinv.At(0, 0), 0.0, 1e-12);
}

TEST(DenseKernelTest, SumSquares) {
  std::vector<double> v = {3, 4};
  DenseView dv{v.data(), 2, 1};
  EXPECT_DOUBLE_EQ(BlockSumSquares(dv), 25.0);
}

TEST(DenseKernelTest, ColumnSumSquares) {
  // Columns (1,2) and (3,4): sums 5 and 25.
  std::vector<double> v = {1, 2, 3, 4};
  DenseView dv{v.data(), 2, 2};
  double acc[2] = {100.0, 200.0};
  BlockColumnSumSquares(dv, acc);
  EXPECT_DOUBLE_EQ(acc[0], 105.0);
  EXPECT_DOUBLE_EQ(acc[1], 225.0);
}

TEST(DenseKernelTest, FillRandomDeterministicAndBounded) {
  auto a = Buf(4, 4), b = Buf(4, 4);
  DenseView va{a.data(), 4, 4}, vb{b.data(), 4, 4};
  BlockFillRandom(&va, 123);
  BlockFillRandom(&vb, 123);
  EXPECT_EQ(a, b);
  BlockFillRandom(&vb, 124);
  EXPECT_NE(a, b);
  for (double x : a) {
    EXPECT_GE(x, -1.0);
    EXPECT_LT(x, 1.0);
  }
}

// Property sweep over shapes: (A B)^T == B^T A^T.
class GemmPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmPropertyTest, TransposeOfProduct) {
  auto [mi, ki, ni] = GetParam();
  int64_t m = mi, k = ki, n = ni;
  auto a = Buf(m, k), b = Buf(k, n);
  DenseView va{a.data(), m, k}, vb{b.data(), k, n};
  BlockFillRandom(&va, static_cast<uint64_t>(m * 100 + k));
  BlockFillRandom(&vb, static_cast<uint64_t>(k * 100 + n));
  auto ab = Buf(m, n);
  DenseView vab{ab.data(), m, n};
  BlockGemm(va, false, vb, false, &vab, false);
  // B^T A^T via transpose flags on the original buffers: result (n x m).
  auto btat = Buf(n, m);
  DenseView vbtat{btat.data(), n, m};
  BlockGemm(vb, true, va, true, &vbtat, false);
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      EXPECT_NEAR(vab.At(r, c), vbtat.At(c, r), 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmPropertyTest,
    ::testing::Combine(::testing::Values(1, 3, 8), ::testing::Values(1, 5),
                       ::testing::Values(2, 7)));

// Fill with small integers: every product and partial sum below is an exact
// integer well inside 2^53, so the packed kernel must match the naive
// reference BIT-exactly no matter how packing reassociates the sums.
void FillInts(DenseView* v, int64_t salt) {
  for (int64_t c = 0; c < v->cols; ++c) {
    for (int64_t r = 0; r < v->rows; ++r) {
      v->At(r, c) = static_cast<double>((r * 7 + c * 13 + salt) % 33 - 16);
    }
  }
}

// Exhaustive {trans_a, trans_b} x {accumulate} x {alpha} over ragged shapes
// (1 x n, n x 1, primes, multi-register-tile, multi-kc-chunk), packed GEMM vs
// the pre-packing BlockGemmNaive reference, on every ISA tier this CPU runs
// (the public BlockGemm runs the widest of them).
class GemmFlagMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmFlagMatrixTest, PackedMatchesNaiveBitExactOnIntegers) {
  auto [mi, ki, ni] = GetParam();
  const int64_t m = mi, k = ki, n = ni;
  for (const dense_internal::DenseTier* tier :
       dense_internal::SupportedTiers()) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        // Operand buffers sized for the chosen op() orientation.
        auto a = Buf(ta ? k : m, ta ? m : k);
        auto b = Buf(tb ? n : k, tb ? k : n);
        DenseView va{a.data(), ta ? k : m, ta ? m : k};
        DenseView vb{b.data(), tb ? n : k, tb ? k : n};
        FillInts(&va, 3);
        FillInts(&vb, 5);
        for (bool acc : {false, true}) {
          // 0.5 is a power of two: exact scaling of exact-integer sums.
          for (double alpha : {1.0, -2.0, 0.5, 0.0}) {
            auto c1 = Buf(m, n), c2 = Buf(m, n);
            DenseView vc1{c1.data(), m, n}, vc2{c2.data(), m, n};
            if (acc) {
              FillInts(&vc1, 9);
              FillInts(&vc2, 9);
            }
            tier->gemm(va, ta, vb, tb, &vc1, acc, alpha);
            BlockGemmNaive(va, ta, vb, tb, &vc2, acc, alpha);
            ASSERT_EQ(c1, c2) << tier->name << " m=" << m << " k=" << k
                              << " n=" << n << " ta=" << ta << " tb=" << tb
                              << " acc=" << acc << " alpha=" << alpha;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RaggedShapes, GemmFlagMatrixTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 9),
                      std::make_tuple(9, 5, 1), std::make_tuple(4, 4, 4),
                      std::make_tuple(13, 17, 11), std::make_tuple(31, 8, 6),
                      // m spans multiple mc strips, k spans two kc chunks.
                      std::make_tuple(131, 300, 23),
                      // Short outputs on either side of the short-tile
                      // cutoffs, and covariance's 1'X (k spans four chunks).
                      std::make_tuple(2, 40, 17), std::make_tuple(3, 40, 17),
                      std::make_tuple(5, 40, 17), std::make_tuple(1, 1000, 100),
                      // N = 1: a matrix-vector product such as X'y.
                      std::make_tuple(100, 1000, 1)));

TEST(DenseTierTest, ActiveTierIsTheWidestTheCpuReports) {
  // Computed from the CPU's own feature bits, so a build that compiles the
  // wide tiers but dispatches the baseline on an AVX2 host fails here.
  std::string expected = "baseline";
#ifdef RIOT_DENSE_X86_TIERS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    expected = __builtin_cpu_supports("avx512f") ? "avx512" : "avx2";
  }
#endif
  EXPECT_EQ(dense_internal::ActiveTier().name, expected);
  const auto tiers = dense_internal::SupportedTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.front()->name, "baseline");
  EXPECT_EQ(tiers.back(), &dense_internal::ActiveTier());
}

TEST(DenseTierTest, GemmTilesOfOneTierAgreeBitForBit) {
  // Short outputs run a short register tile on the wide tiers; every output
  // element still sums its k chunk in ascending order, so a one-row product
  // equals row 0 of a taller one bit for bit, on general doubles.
  const int64_t m = 37, k = 300, n = 29;
  auto a = Buf(m, k), b = Buf(k, n);
  DenseView va{a.data(), m, k}, vb{b.data(), k, n};
  BlockFillRandom(&va, 31);
  BlockFillRandom(&vb, 32);
  auto a0 = Buf(1, k);
  DenseView va0{a0.data(), 1, k};
  for (int64_t p = 0; p < k; ++p) va0.At(0, p) = va.At(0, p);
  for (const dense_internal::DenseTier* tier :
       dense_internal::SupportedTiers()) {
    auto tall = Buf(m, n), row = Buf(1, n);
    DenseView vtall{tall.data(), m, n}, vrow{row.data(), 1, n};
    tier->gemm(va, false, vb, false, &vtall, false, 1.0 / 3.0);
    tier->gemm(va0, false, vb, false, &vrow, false, 1.0 / 3.0);
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(vrow.At(0, j), vtall.At(0, j)) << tier->name << " j=" << j;
    }
  }
}

TEST(DenseTierTest, NonGemmKernelsGiveTheSameBitsOnEveryTier) {
  // Only GEMM may fuse multiply-adds; the elementwise streams, the fused
  // tape and the sum of squares must match the baseline tier exactly.
  const int64_t n = 1037;  // not a multiple of any vector width
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  DenseView vx{x.data(), n, 1}, vy{y.data(), n, 1};
  BlockFillRandom(&vx, 41);
  BlockFillRandom(&vy, 42);
  std::vector<FusedOp> tape(4);
  tape[0].code = FusedOp::Code::kLoad;
  tape[0].a = 0;
  tape[1].code = FusedOp::Code::kLoad;
  tape[1].a = 1;
  tape[2].code = FusedOp::Code::kScale;
  tape[2].a = 0;
  tape[2].alpha = 1.0 / 7.0;
  tape[3].code = FusedOp::Code::kAdd;
  tape[3].a = 2;
  tape[3].b = 1;
  const double* inputs[2] = {x.data(), y.data()};
  auto run = [&](const dense_internal::DenseTier& tier) {
    std::vector<double> out(static_cast<size_t>(4 * n));
    tier.add(x.data(), y.data(), out.data(), n);
    tier.sub(x.data(), y.data(), out.data() + n, n);
    tier.scale(x.data(), 1.0 / 3.0, out.data() + 2 * n, n);
    tier.fused_eval(tape.data(), 4, inputs, out.data() + 3 * n, n);
    out.push_back(tier.sum_squares(x.data(), n));
    return out;
  };
  const auto tiers = dense_internal::SupportedTiers();
  const std::vector<double> expected = run(*tiers.front());
  for (const dense_internal::DenseTier* tier : tiers) {
    EXPECT_EQ(run(*tier), expected) << tier->name;
  }
}

TEST(DenseKernelTest, GemmRunToRunDeterministicOnGeneralDoubles) {
  // Packing fixes the summation order (kc chunks ascending, elements
  // ascending within a chunk), so two runs over irrational-ish data must be
  // bitwise identical.
  const int64_t m = 67, k = 300, n = 19;
  auto a = Buf(m, k), b = Buf(k, n), c1 = Buf(m, n), c2 = Buf(m, n);
  DenseView va{a.data(), m, k}, vb{b.data(), k, n};
  DenseView vc1{c1.data(), m, n}, vc2{c2.data(), m, n};
  BlockFillRandom(&va, 77);
  BlockFillRandom(&vb, 78);
  BlockGemm(va, false, vb, false, &vc1, false, 1.0 / 3.0);
  BlockGemm(va, false, vb, false, &vc2, false, 1.0 / 3.0);
  ASSERT_EQ(c1, c2);
}

TEST(DenseKernelTest, GemmTransposedAgainstExplicitTransposeLarge) {
  // Accuracy guard for the transpose-absorbing pack on a shape that
  // exercises edge tiles in both dimensions.
  const int64_t m = 61, k = 37, n = 29;
  auto a = Buf(k, m);  // holds A^T
  auto b = Buf(n, k);  // holds B^T
  DenseView vat{a.data(), k, m}, vbt{b.data(), n, k};
  BlockFillRandom(&vat, 21);
  BlockFillRandom(&vbt, 22);
  // Materialize A and B explicitly.
  auto ax = Buf(m, k), bx = Buf(k, n);
  DenseView vax{ax.data(), m, k}, vbx{bx.data(), k, n};
  for (int64_t r = 0; r < m; ++r)
    for (int64_t c = 0; c < k; ++c) vax.At(r, c) = vat.At(c, r);
  for (int64_t r = 0; r < k; ++r)
    for (int64_t c = 0; c < n; ++c) vbx.At(r, c) = vbt.At(c, r);
  auto cref = Buf(m, n), cflag = Buf(m, n);
  DenseView vref{cref.data(), m, n}, vflag{cflag.data(), m, n};
  BlockGemm(vax, false, vbx, false, &vref, false);
  BlockGemm(vat, true, vbt, true, &vflag, false);
  // Same packed summation order either way: bitwise equal, not just close.
  ASSERT_EQ(cref, cflag);
}

TEST(DenseKernelTest, FusedEvalBitMatchesComposedKernels) {
  // Tape for relu(2 * (x + y) - y) zip-max y: the fused single pass must be
  // bitwise equal to chaining the standalone kernels through temporaries —
  // one IEEE op per tape entry, same order, no contraction.
  const int64_t rows = 37, cols = 5;  // odd count exercises the scalar tail
  auto x = Buf(rows, cols), y = Buf(rows, cols);
  DenseView vx{x.data(), rows, cols}, vy{y.data(), rows, cols};
  BlockFillRandom(&vx, 7);
  BlockFillRandom(&vy, 8);

  ScalarMapFn relu = ScalarFnById(kScalarRelu).map;
  ScalarZipFn vmax = ScalarFnById(kScalarMax).zip;
  std::vector<FusedOp> tape(7);
  tape[0].code = FusedOp::Code::kLoad;
  tape[0].a = 0;  // x
  tape[1].code = FusedOp::Code::kLoad;
  tape[1].a = 1;  // y
  tape[2].code = FusedOp::Code::kAdd;
  tape[2].a = 0;
  tape[2].b = 1;
  tape[3].code = FusedOp::Code::kScale;
  tape[3].a = 2;
  tape[3].alpha = 2.0;
  tape[4].code = FusedOp::Code::kSub;
  tape[4].a = 3;
  tape[4].b = 1;
  tape[5].code = FusedOp::Code::kMap;
  tape[5].a = 4;
  tape[5].map_fn = relu;
  tape[6].code = FusedOp::Code::kZip;
  tape[6].a = 5;
  tape[6].b = 1;
  tape[6].zip_fn = vmax;

  auto fused = Buf(rows, cols);
  const double* inputs[2] = {x.data(), y.data()};
  BlockFusedEval(tape.data(), static_cast<int>(tape.size()), inputs,
                 fused.data(), rows * cols);

  auto t1 = Buf(rows, cols), t2 = Buf(rows, cols);
  DenseView v1{t1.data(), rows, cols}, v2{t2.data(), rows, cols};
  BlockAdd(vx, vy, &v1);
  BlockScale(v1, 2.0, &v2);
  BlockSub(v2, vy, &v1);
  BlockMap(relu, v1, &v2);
  BlockZip(vmax, v2, vy, &v1);
  ASSERT_EQ(fused, t1);  // bitwise, element for element
}

TEST(DenseKernelTest, FusedEvalSingleLoadCopies) {
  // Degenerate one-op tape: plain copy through the strip-mined path.
  const int64_t n = kFusedStripElems * 3 + 1;
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) x[static_cast<size_t>(i)] = 0.5 * i;
  std::vector<double> out(static_cast<size_t>(n), -1.0);
  FusedOp load;
  load.code = FusedOp::Code::kLoad;
  load.a = 0;
  const double* inputs[1] = {x.data()};
  BlockFusedEval(&load, 1, inputs, out.data(), n);
  EXPECT_EQ(out, x);
}

TEST(DenseKernelTest, MapAndZipApplyScalarFns) {
  auto a = Buf(2, 2), b = Buf(2, 2), c = Buf(2, 2);
  DenseView va{a.data(), 2, 2}, vb{b.data(), 2, 2}, vc{c.data(), 2, 2};
  for (int i = 0; i < 4; ++i) {
    a[static_cast<size_t>(i)] = i - 2;  // -2, -1, 0, 1
    b[static_cast<size_t>(i)] = -i;
  }
  BlockMap(ScalarFnById(kScalarAbs).map, va, &vc);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c[static_cast<size_t>(i)], std::abs(i - 2));
  }
  BlockZip(ScalarFnById(kScalarMin).zip, va, vb, &vc);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c[static_cast<size_t>(i)], std::min(i - 2, -i));
  }
}

TEST(DenseKernelTest, SumSquaresDeterministicAndMatchesColumns) {
  const int64_t rows = 103, cols = 7;
  auto x = Buf(rows, cols);
  DenseView vx{x.data(), rows, cols};
  BlockFillRandom(&vx, 99);
  const double s1 = BlockSumSquares(vx);
  const double s2 = BlockSumSquares(vx);
  ASSERT_EQ(s1, s2);
  // Whole-block result is the exact sum of the per-column kernel results
  // (same lanes, same combine tree per column).
  std::vector<double> acc(static_cast<size_t>(cols), 0.0);
  BlockColumnSumSquares(vx, acc.data());
  double total = 0.0;
  for (double v : acc) total += v;
  ASSERT_EQ(s1, total);
}

}  // namespace
}  // namespace riot
