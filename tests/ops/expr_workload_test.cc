// Differential acceptance for the expression front end: the expression-
// built 2mm and linreg must produce bit-identical outputs and identical
// optimizer plans / I/O counts to the hand-built IR + hand-written kernels
// they replaced. The legacy constructions live here, verbatim, as the
// reference. Also covers the two expression-native workloads (ridge,
// covariance): CSE materialization, scratch-temporary write elision
// visible in ExecStats, and statistical sanity of the results.
#include <gtest/gtest.h>

#include <cmath>

#include "core/optimizer.h"
#include "linalg/rational.h"
#include "exec/verify.h"
#include "ir/builder.h"
#include "kernels/dense.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace {

// --------------------------------------------------------------------------
// The pre-expression hand-built constructions (reference semantics).
// --------------------------------------------------------------------------

ArrayInfo LegacyMatrix(const std::string& name, int64_t grid_r,
                       int64_t grid_c, int64_t block_r, int64_t block_c,
                       int64_t scale, bool persistent = true) {
  ArrayInfo a;
  a.name = name;
  a.grid = {grid_r, grid_c};
  a.block_elems = {block_r / scale, block_c / scale};
  a.persistent = persistent;
  return a;
}

int LegacyMultiply(Program* p, int c, int d, int e, int64_t n1, int64_t n3,
                   int64_t n2, int nest, const std::string& name) {
  Statement s;
  s.name = name;
  s.iters = {"i", "j", "k"};
  s.domain =
      RectDomain({{0, n1 - 1}, {0, n3 - 1}, {0, n2 - 1}}, {"i", "j", "k"});
  s.accesses.push_back(Read(c, {{1, 0, 0, 0}, {0, 0, 1, 0}}));  // C[i,k]
  s.accesses.push_back(Read(d, {{0, 0, 1, 0}, {0, 1, 0, 0}}));  // D[k,j]
  Access re = Read(e, {{1, 0, 0, 0}, {0, 1, 0, 0}});            // E[i,j]
  re.guard = GuardGe(s.domain, 2, 1);
  s.accesses.push_back(std::move(re));
  s.accesses.push_back(Write(e, {{1, 0, 0, 0}, {0, 1, 0, 0}}));
  return p->AddStatement(std::move(s), nest, 0);
}

StatementKernel LegacyMulKernel() {
  return [](const std::vector<int64_t>& iter,
            const std::vector<DenseView*>& v) {
    BlockGemm(*v[0], false, *v[1], false, v[3], iter[2] > 0);
  };
}

Workload LegacyTwoMatMulA(int64_t scale) {
  Workload w;
  w.name = "twomm_a_legacy";
  Program& p = w.program;
  int64_t n1 = 6, n3 = 6, n2 = 10, n4 = 10;
  int a = p.AddArray(LegacyMatrix("A", n1, n3, 8000, 7000, scale));
  int b = p.AddArray(LegacyMatrix("B", n3, n2, 7000, 3000, scale));
  int c = p.AddArray(LegacyMatrix("C", n1, n2, 8000, 3000, scale));
  int d = p.AddArray(LegacyMatrix("D", n3, n4, 7000, 3000, scale));
  int e = p.AddArray(LegacyMatrix("E", n1, n4, 8000, 3000, scale));
  LegacyMultiply(&p, a, b, c, n1, n2, n3, /*nest=*/0, "s1");
  LegacyMultiply(&p, a, d, e, n1, n4, n3, /*nest=*/1, "s2");
  w.kernels = {LegacyMulKernel(), LegacyMulKernel()};
  w.input_arrays = {a, b, d};
  w.output_arrays = {c, e};
  return w;
}

Workload LegacyLinReg(int64_t scale) {
  Workload w;
  w.name = "linreg_legacy";
  Program& p = w.program;
  const int64_t nb = 25;
  int x = p.AddArray(LegacyMatrix("X", nb, 1, 60000, 4000, scale));
  int y = p.AddArray(LegacyMatrix("Y", nb, 1, 60000, 400, scale));
  int u = p.AddArray(LegacyMatrix("U", 1, 1, 4000, 4000, scale));
  int v = p.AddArray(LegacyMatrix("V", 1, 1, 4000, 400, scale));
  int wm = p.AddArray(LegacyMatrix("W", 1, 1, 4000, 4000, scale));
  int beta = p.AddArray(LegacyMatrix("Bh", 1, 1, 4000, 400, scale));
  int yhat = p.AddArray(
      LegacyMatrix("Yh", nb, 1, 60000, 400, scale, /*persistent=*/false));
  int eres = p.AddArray(
      LegacyMatrix("Er", nb, 1, 60000, 400, scale, /*persistent=*/false));
  int rss = p.AddArray(LegacyMatrix("R", 1, 1, scale, 400, scale));

  auto dom_k = RectDomain({{0, nb - 1}}, {"k"});
  auto dom_1 = RectDomain({{0, 0}}, {"z"});

  {  // s1: U += X[k]' X[k]
    Statement s;
    s.name = "s1";
    s.iters = {"k"};
    s.domain = dom_k;
    s.accesses.push_back(Read(x, {{1, 0}, {0, 0}}));
    Access ru = Read(u, {{0, 0}, {0, 0}});
    ru.guard = GuardGe(dom_k, 0, 1);
    s.accesses.push_back(std::move(ru));
    s.accesses.push_back(Write(u, {{0, 0}, {0, 0}}));
    p.AddStatement(std::move(s), 0, 0);
    w.kernels.push_back([](const std::vector<int64_t>& iter,
                           const std::vector<DenseView*>& vv) {
      BlockGemm(*vv[0], true, *vv[0], false, vv[2], iter[0] > 0);
    });
  }
  {  // s2: V += X[k]' Y[k]
    Statement s;
    s.name = "s2";
    s.iters = {"k"};
    s.domain = dom_k;
    s.accesses.push_back(Read(x, {{1, 0}, {0, 0}}));
    s.accesses.push_back(Read(y, {{1, 0}, {0, 0}}));
    Access rv = Read(v, {{0, 0}, {0, 0}});
    rv.guard = GuardGe(dom_k, 0, 1);
    s.accesses.push_back(std::move(rv));
    s.accesses.push_back(Write(v, {{0, 0}, {0, 0}}));
    p.AddStatement(std::move(s), 1, 0);
    w.kernels.push_back([](const std::vector<int64_t>& iter,
                           const std::vector<DenseView*>& vv) {
      BlockGemm(*vv[0], true, *vv[1], false, vv[3], iter[0] > 0);
    });
  }
  {  // s3: W = U^-1
    Statement s;
    s.name = "s3";
    s.iters = {"z"};
    s.domain = dom_1;
    s.accesses.push_back(Read(u, {{0, 0}, {0, 0}}));
    s.accesses.push_back(Write(wm, {{0, 0}, {0, 0}}));
    p.AddStatement(std::move(s), 2, 0);
    w.kernels.push_back([](const std::vector<int64_t>&,
                           const std::vector<DenseView*>& vv) {
      BlockInverse(*vv[0], vv[1]).CheckOK();
    });
  }
  {  // s4: beta = W V
    Statement s;
    s.name = "s4";
    s.iters = {"z"};
    s.domain = dom_1;
    s.accesses.push_back(Read(wm, {{0, 0}, {0, 0}}));
    s.accesses.push_back(Read(v, {{0, 0}, {0, 0}}));
    s.accesses.push_back(Write(beta, {{0, 0}, {0, 0}}));
    p.AddStatement(std::move(s), 3, 0);
    w.kernels.push_back([](const std::vector<int64_t>&,
                           const std::vector<DenseView*>& vv) {
      BlockGemm(*vv[0], false, *vv[1], false, vv[2], false);
    });
  }
  {  // s5: Yhat[k] = X[k] beta
    Statement s;
    s.name = "s5";
    s.iters = {"k"};
    s.domain = dom_k;
    s.accesses.push_back(Read(x, {{1, 0}, {0, 0}}));
    s.accesses.push_back(Read(beta, {{0, 0}, {0, 0}}));
    s.accesses.push_back(Write(yhat, {{1, 0}, {0, 0}}));
    p.AddStatement(std::move(s), 4, 0);
    w.kernels.push_back([](const std::vector<int64_t>&,
                           const std::vector<DenseView*>& vv) {
      BlockGemm(*vv[0], false, *vv[1], false, vv[2], false);
    });
  }
  {  // s6: E[k] = Y[k] - Yhat[k]
    Statement s;
    s.name = "s6";
    s.iters = {"k"};
    s.domain = dom_k;
    s.accesses.push_back(Read(y, {{1, 0}, {0, 0}}));
    s.accesses.push_back(Read(yhat, {{1, 0}, {0, 0}}));
    s.accesses.push_back(Write(eres, {{1, 0}, {0, 0}}));
    p.AddStatement(std::move(s), 5, 0);
    w.kernels.push_back([](const std::vector<int64_t>&,
                           const std::vector<DenseView*>& vv) {
      BlockSub(*vv[0], *vv[1], vv[2]);
    });
  }
  {  // s7: R += column sums of squares of E[k]
    Statement s;
    s.name = "s7";
    s.iters = {"k"};
    s.domain = dom_k;
    s.accesses.push_back(Read(eres, {{1, 0}, {0, 0}}));
    Access rr = Read(rss, {{0, 0}, {0, 0}});
    rr.guard = GuardGe(dom_k, 0, 1);
    s.accesses.push_back(std::move(rr));
    s.accesses.push_back(Write(rss, {{0, 0}, {0, 0}}));
    p.AddStatement(std::move(s), 6, 0);
    w.kernels.push_back([](const std::vector<int64_t>& iter,
                           const std::vector<DenseView*>& vv) {
      DenseView* out = vv[2];
      if (iter[0] == 0) BlockFillConst(out, 0.0);
      // The library's column reduction, as the synthesized kernel uses: a
      // row-sequential loop sums in another order, so on general doubles
      // its bits match the 8-lane kernel's only by chance.
      BlockColumnSumSquares(*vv[0], out->data);
    });
  }
  w.input_arrays = {x, y};
  w.output_arrays = {beta, rss};
  return w;
}

// --------------------------------------------------------------------------
// Differential harness: run both variants' best plans, compare everything.
// --------------------------------------------------------------------------

struct RunResult {
  ExecStats stats;
  Runtime rt;
};

RunResult RunPlanOn(const Workload& w, Env* env, const std::string& dir,
                    const Plan& plan, const OptimizationResult& r) {
  auto rt = OpenStores(env, w.program, dir);
  EXPECT_TRUE(rt.ok());
  EXPECT_TRUE(InitInputs(w, *rt, /*seed=*/77).ok());
  std::vector<const CoAccess*> q;
  for (int oi : plan.opportunities) {
    q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
  }
  ExecOptions eo;
  eo.memory_cap_bytes = plan.cost.peak_memory_bytes;
  Executor ex(w.program, rt->raw(), w.kernels, eo);
  auto stats = ex.Run(plan.schedule, q);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return RunResult{*stats, std::move(rt).ValueOrDie()};
}

void ExpectSamePlansAndBits(const Workload& modern, const Workload& legacy) {
  // Array layout identical: ids, names, shapes, persistence. This is what
  // makes InitInputs (seeded by array id) byte-identical across variants.
  ASSERT_EQ(modern.program.arrays().size(), legacy.program.arrays().size());
  for (size_t i = 0; i < modern.program.arrays().size(); ++i) {
    const ArrayInfo& m = modern.program.array(static_cast<int>(i));
    const ArrayInfo& l = legacy.program.array(static_cast<int>(i));
    EXPECT_EQ(m.name, l.name);
    EXPECT_EQ(m.grid, l.grid);
    EXPECT_EQ(m.block_elems, l.block_elems);
    EXPECT_EQ(m.persistent, l.persistent);
  }
  ASSERT_EQ(modern.input_arrays, legacy.input_arrays);
  ASSERT_EQ(modern.output_arrays, legacy.output_arrays);

  OptimizationResult rm = Optimize(modern.program);
  OptimizationResult rl = Optimize(legacy.program);

  // Identical plan spaces: same count, same sharing labels, and the same
  // best-plan cost triple.
  EXPECT_EQ(rm.analysis.sharing.size(), rl.analysis.sharing.size());
  ASSERT_EQ(rm.plans.size(), rl.plans.size());
  EXPECT_EQ(rm.best().cost.read_bytes, rl.best().cost.read_bytes);
  EXPECT_EQ(rm.best().cost.write_bytes, rl.best().cost.write_bytes);
  EXPECT_EQ(rm.best().cost.peak_memory_bytes,
            rl.best().cost.peak_memory_bytes);
  EXPECT_EQ(rm.best()
                .DescribeOpportunities(modern.program, rm.analysis.sharing),
            rl.best()
                .DescribeOpportunities(legacy.program, rl.analysis.sharing));

  // Execute original and best plans on both; identical measured I/O and
  // bit-identical outputs.
  auto env = NewMemEnv();
  for (const char* which : {"orig", "best"}) {
    const bool best = std::string(which) == "best";
    const Plan& pm = best ? rm.best() : rm.plans[0];
    const Plan& pl = best ? rl.best() : rl.plans[0];
    RunResult mm =
        RunPlanOn(modern, env.get(), std::string("/m_") + which, pm, rm);
    RunResult ll =
        RunPlanOn(legacy, env.get(), std::string("/l_") + which, pl, rl);
    EXPECT_EQ(mm.stats.bytes_read, ll.stats.bytes_read) << which;
    EXPECT_EQ(mm.stats.bytes_written, ll.stats.bytes_written) << which;
    EXPECT_EQ(mm.stats.block_reads, ll.stats.block_reads) << which;
    EXPECT_EQ(mm.stats.block_writes, ll.stats.block_writes) << which;
    EXPECT_EQ(mm.stats.peak_required_bytes, ll.stats.peak_required_bytes)
        << which;
    for (int arr : modern.output_arrays) {
      EXPECT_TRUE(
          VerifyBitEqual(modern.program.array(arr),
                         ll.rt.stores[static_cast<size_t>(arr)].get(),
                         mm.rt.stores[static_cast<size_t>(arr)].get())
              .ok())
          << which << " array " << modern.program.array(arr).name;
    }
  }
}

TEST(ExprWorkloadTest, TwoMatMulMatchesLegacyHandBuiltExactly) {
  ExpectSamePlansAndBits(MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1000),
                         LegacyTwoMatMulA(1000));
}

TEST(ExprWorkloadTest, LinRegMatchesLegacyHandBuiltExactly) {
  // 400: the largest scale dividing every linreg dimension (Y has 400 cols).
  ExpectSamePlansAndBits(MakeLinReg(400), LegacyLinReg(400));
}

// --------------------------------------------------------------------------
// Expression-native workloads: CSE + scratch-temporary elision.
// --------------------------------------------------------------------------

TEST(ExprWorkloadTest, RidgeSharesGramMatrixAndElidesScratchWrites) {
  Workload w = MakeRidge(/*scale=*/100);
  // CSE: one gemm computing X'X, one computing X'y — 8 statements total
  // for two lambdas (10 without hash-consing).
  ASSERT_EQ(w.program.statements().size(), 8u);
  int contractions = 0;
  for (const Statement& s : w.program.statements()) {
    if (s.op->kind == StatementOp::Kind::kGemm && s.op->reduction_iter >= 0) {
      ++contractions;
    }
  }
  EXPECT_EQ(contractions, 2);  // X'X and X'y, each exactly once

  OptimizationResult r = Optimize(w.program);
  ASSERT_GT(r.plans.size(), 1u);
  // Scratch temporaries (gram, X'y, regularized, inverses) are
  // non-persistent; the best plan elides at least some of their writes.
  EXPECT_LT(r.best().cost.write_bytes, r.plans[0].cost.write_bytes);

  auto env = NewMemEnv();
  RunResult orig = RunPlanOn(w, env.get(), "/r_orig", r.plans[0], r);
  RunResult best = RunPlanOn(w, env.get(), "/r_best", r.best(), r);
  // The write elision is visible in the measured ExecStats, exactly as
  // predicted.
  EXPECT_EQ(best.stats.bytes_written, r.best().cost.write_bytes);
  EXPECT_LT(best.stats.bytes_written, orig.stats.bytes_written);
  for (int arr : w.output_arrays) {
    EXPECT_TRUE(VerifyBitEqual(w.program.array(arr),
                               orig.rt.stores[static_cast<size_t>(arr)].get(),
                               best.rt.stores[static_cast<size_t>(arr)].get())
                    .ok());
  }

  // Statistical sanity: beta_l solves (X'X + lambda_l I) beta = X'y.
  const ArrayInfo& xi = w.program.array(0);
  const ArrayInfo& yi = w.program.array(1);
  auto xs = ReadWholeArray(xi, best.rt.stores[0].get()).ValueOrDie();
  auto ys = ReadWholeArray(yi, best.rt.stores[1].get()).ValueOrDie();
  const int64_t rows_per_block = xi.block_elems[0];
  const int64_t m = xi.block_elems[1];
  const int64_t kc = yi.block_elems[1];
  const double lambdas[2] = {2.5, 9.0};
  for (int li = 0; li < 2; ++li) {
    const int beta_arr = w.output_arrays[static_cast<size_t>(li)];
    auto beta = ReadWholeArray(w.program.array(beta_arr),
                               best.rt.stores[static_cast<size_t>(beta_arr)]
                                   .get())
                    .ValueOrDie();
    // residual = X'(y - X beta) - lambda beta, column by column.
    for (int64_t c = 0; c < kc; ++c) {
      std::vector<double> resid(static_cast<size_t>(m), 0.0);
      for (int64_t blk = 0; blk < xi.grid[0]; ++blk) {
        const double* xb = xs.data() + blk * xi.ElemsPerBlock();
        const double* yb = ys.data() + blk * yi.ElemsPerBlock();
        for (int64_t rr = 0; rr < rows_per_block; ++rr) {
          double e = yb[c * rows_per_block + rr];
          for (int64_t f = 0; f < m; ++f) {
            e -= xb[f * rows_per_block + rr] *
                 beta[static_cast<size_t>(c * m + f)];
          }
          for (int64_t f = 0; f < m; ++f) {
            resid[static_cast<size_t>(f)] +=
                xb[f * rows_per_block + rr] * e;
          }
        }
      }
      for (int64_t f = 0; f < m; ++f) {
        resid[static_cast<size_t>(f)] -=
            lambdas[li] * beta[static_cast<size_t>(c * m + f)];
      }
      for (double v : resid) EXPECT_NEAR(v, 0.0, 1e-6);
    }
  }
}

TEST(ExprWorkloadTest, CovarianceElidesScratchAndMatchesNaive) {
  Workload w = MakeCovariance(/*scale=*/1000);
  // G, M, and M'M are scratch. The centered difference (G - (1/n) M'M) is
  // fused into the final Scale — it has no array at all anymore.
  int scratch = 0;
  for (const ArrayInfo& a : w.program.arrays()) {
    scratch += a.persistent ? 0 : 1;
  }
  EXPECT_EQ(scratch, 3);

  OptimizationResult r = Optimize(w.program);
  EXPECT_LT(r.best().cost.write_bytes, r.plans[0].cost.write_bytes);

  auto env = NewMemEnv();
  RunResult orig = RunPlanOn(w, env.get(), "/c_orig", r.plans[0], r);
  RunResult best = RunPlanOn(w, env.get(), "/c_best", r.best(), r);
  EXPECT_EQ(best.stats.bytes_written, r.best().cost.write_bytes);
  EXPECT_LT(best.stats.bytes_written, orig.stats.bytes_written);
  const int cov_arr = w.output_arrays[0];

  // Unfused lowering of the same graph: the centered-difference Sub comes
  // back as its own statement with its own temporary and its own read and
  // write passes — strictly more statements, scratch, and block reads at
  // the same plan — and the output stays bit-identical (X and O lower to
  // array ids 0/1 in both variants, so seeded InitInputs matches).
  Workload uw = MakeCovariance(/*scale=*/1000, /*fuse=*/false);
  int uscratch = 0;
  for (const ArrayInfo& a : uw.program.arrays()) {
    uscratch += a.persistent ? 0 : 1;
  }
  EXPECT_EQ(uw.program.statements().size(),
            w.program.statements().size() + 1);
  EXPECT_EQ(uscratch, scratch + 1);
  OptimizationResult ur = Optimize(uw.program);
  RunResult uorig = RunPlanOn(uw, env.get(), "/c_unf", ur.plans[0], ur);
  EXPECT_LT(orig.stats.block_reads, uorig.stats.block_reads);
  const int ucov_arr = uw.output_arrays[0];
  EXPECT_TRUE(
      VerifyBitEqual(w.program.array(cov_arr),
                     orig.rt.stores[static_cast<size_t>(cov_arr)].get(),
                     uorig.rt.stores[static_cast<size_t>(ucov_arr)].get())
          .ok());
  EXPECT_TRUE(VerifyBitEqual(w.program.array(cov_arr),
                             orig.rt.stores[static_cast<size_t>(cov_arr)]
                                 .get(),
                             best.rt.stores[static_cast<size_t>(cov_arr)]
                                 .get())
                  .ok());

  // Semantic check against a naive covariance of the initialized data.
  const ArrayInfo& xi = w.program.array(0);
  auto xs = ReadWholeArray(xi, best.rt.stores[0].get()).ValueOrDie();
  auto cov = ReadWholeArray(w.program.array(cov_arr),
                            best.rt.stores[static_cast<size_t>(cov_arr)]
                                .get())
                 .ValueOrDie();
  const int64_t rows_per_block = xi.block_elems[0];
  const int64_t m = xi.block_elems[1];
  const int64_t nrows = xi.grid[0] * rows_per_block;
  auto x_at = [&](int64_t row, int64_t col) {
    const int64_t blk = row / rows_per_block;
    const int64_t rr = row % rows_per_block;
    return xs[static_cast<size_t>(blk * xi.ElemsPerBlock() +
                                  col * rows_per_block + rr)];
  };
  for (int64_t a = 0; a < m; ++a) {
    double mean_a = 0.0;
    for (int64_t rr = 0; rr < nrows; ++rr) mean_a += x_at(rr, a);
    mean_a /= static_cast<double>(nrows);
    for (int64_t b = 0; b < m; ++b) {
      double mean_b = 0.0;
      for (int64_t rr = 0; rr < nrows; ++rr) mean_b += x_at(rr, b);
      mean_b /= static_cast<double>(nrows);
      double acc = 0.0;
      for (int64_t rr = 0; rr < nrows; ++rr) {
        acc += (x_at(rr, a) - mean_a) * (x_at(rr, b) - mean_b);
      }
      acc /= static_cast<double>(nrows - 1);
      EXPECT_NEAR(cov[static_cast<size_t>(b * m + a)], acc, 1e-9)
          << "cov(" << a << "," << b << ")";
    }
  }
}

TEST(ExprWorkloadTest, ElementwiseChainFusedMatchesUnfusedAndExactOracle) {
  // The three-way differential the fusion pass is accepted on: the 7-op
  // elementwise chain lowered fused (one compound statement, no scratch)
  // and unfused (one statement + temporary per node) must agree bit for
  // bit with each other AND with an exact Rational evaluation, while the
  // fused run does strictly less I/O at the same memory cap.
  const int64_t scale = 1000;  // 24 x 3 element blocks, 8 x 2 grids
  Workload fused = MakeElementwiseChain(scale, /*fuse=*/true);
  Workload unfused = MakeElementwiseChain(scale, /*fuse=*/false);
  ASSERT_TRUE(fused.program.Validate().ok());
  ASSERT_TRUE(unfused.program.Validate().ok());

  auto scratch_of = [](const Workload& w) {
    int scratch = 0;
    for (const ArrayInfo& a : w.program.arrays()) {
      scratch += a.persistent ? 0 : 1;
    }
    return scratch;
  };
  ASSERT_EQ(fused.program.statements().size(), 1u);
  EXPECT_EQ(scratch_of(fused), 0);
  ASSERT_EQ(unfused.program.statements().size(), 7u);
  EXPECT_EQ(scratch_of(unfused), 6);

  // Integer inputs in [-3, 3], deterministic in (array, block, element):
  // every chain op is then exact integer arithmetic well inside 2^53.
  auto fill = [](int arr, int64_t blk, int64_t idx) {
    uint64_t h = static_cast<uint64_t>(arr) * 0x9E3779B97F4A7C15ULL +
                 static_cast<uint64_t>(blk) * 0x2545F4914F6CDD1DULL +
                 static_cast<uint64_t>(idx) * 1000003ULL;
    h ^= h >> 31;
    return static_cast<int64_t>(h % 7) - 3;
  };

  auto env = NewMemEnv();
  auto run = [&](const Workload& w, const std::string& dir) {
    auto rt = OpenStores(env.get(), w.program, dir);
    EXPECT_TRUE(rt.ok());
    for (int arr : w.input_arrays) {
      const ArrayInfo& info = w.program.array(arr);
      std::vector<double> buf(static_cast<size_t>(info.ElemsPerBlock()));
      for (int64_t blk = 0; blk < info.NumBlocks(); ++blk) {
        for (int64_t i = 0; i < info.ElemsPerBlock(); ++i) {
          buf[static_cast<size_t>(i)] =
              static_cast<double>(fill(arr, blk, i));
        }
        EXPECT_TRUE(rt->stores[static_cast<size_t>(arr)]
                        ->WriteBlock(blk, buf.data())
                        .ok());
      }
    }
    Executor ex(w.program, rt->raw(), w.kernels, {});
    auto stats = ex.Run(w.program.original_schedule(), {});
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return RunResult{*stats, std::move(rt).ValueOrDie()};
  };
  RunResult f = run(fused, "/chain_f");
  RunResult u = run(unfused, "/chain_u");

  // Same (default) cap: killing the temporaries must strictly reduce both
  // directions of block traffic.
  EXPECT_LT(f.stats.block_reads, u.stats.block_reads);
  EXPECT_LT(f.stats.bytes_read, u.stats.bytes_read);
  EXPECT_LT(f.stats.bytes_written, u.stats.bytes_written);

  // Exact oracle: z = 3 * max(relu(2(x + y) - y) + x, y), elementwise.
  const int x_arr = fused.input_arrays[0], y_arr = fused.input_arrays[1];
  const ArrayInfo& xi = fused.program.array(x_arr);
  auto oracle_at = [&](int64_t blk, int64_t idx) {
    const Rational x(fill(x_arr, blk, idx));
    const Rational y(fill(y_arr, blk, idx));
    Rational t = Rational(2) * (x + y) - y;
    if (t.IsNegative()) t = Rational(0);  // relu
    t = t + x;
    if (t < y) t = y;  // max
    return (Rational(3) * t).ToDouble();
  };

  const int zf_arr = fused.output_arrays[0];
  const int zu_arr = unfused.output_arrays[0];
  const ArrayInfo& zf = fused.program.array(zf_arr);
  ASSERT_EQ(fused.program.array(zf_arr).name, "Z");
  ASSERT_EQ(unfused.program.array(zu_arr).name, "Z");
  auto zfb = ReadWholeArray(zf, f.rt.stores[static_cast<size_t>(zf_arr)]
                                    .get())
                 .ValueOrDie();
  auto zub = ReadWholeArray(unfused.program.array(zu_arr),
                            u.rt.stores[static_cast<size_t>(zu_arr)].get())
                 .ValueOrDie();
  ASSERT_EQ(zfb.size(), zub.size());
  for (int64_t blk = 0; blk < xi.NumBlocks(); ++blk) {
    for (int64_t i = 0; i < xi.ElemsPerBlock(); ++i) {
      const size_t at =
          static_cast<size_t>(blk * xi.ElemsPerBlock() + i);
      const double want = oracle_at(blk, i);
      ASSERT_EQ(zfb[at], want) << "fused block " << blk << " elem " << i;
      ASSERT_EQ(zub[at], want) << "unfused block " << blk << " elem " << i;
    }
  }
}

}  // namespace
}  // namespace riot
