// E10 (DESIGN.md): google-benchmark microbenchmarks for the substrates:
// exact simplex/ILP, polyhedral operations, analysis, schedule solving,
// buffer pool, dense kernels, and the two storage formats.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analysis/coaccess.h"
#include "core/cost_model.h"
#include "core/schedule_solver.h"
#include "ilp/ilp.h"
#include "kernels/dense.h"
#include "kernels/dense_tier.h"
#include "ops/workload.h"
#include "polyhedral/farkas.h"
#include "polyhedral/polyhedron.h"
#include "storage/buffer_pool.h"

namespace riot {
namespace {

void BM_SimplexFeasibility(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<LpConstraint> cons;
  for (size_t i = 0; i < n; ++i) {
    RVector c(n);
    c[i] = Rational(1);
    cons.push_back({c, CmpOp::kGe, Rational(-(int64_t)i)});
    cons.push_back({c, CmpOp::kLe, Rational((int64_t)i + 5)});
  }
  RVector obj(n);
  obj[0] = Rational(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveLp(n, cons, obj));
  }
}
BENCHMARK(BM_SimplexFeasibility)->Arg(4)->Arg(16)->Arg(32);

void BM_IlpL1Sample(benchmark::State& state) {
  std::vector<LpConstraint> cons = {
      {RVector::FromInts({1, 1, 0}), CmpOp::kEq, Rational(3)},
      {RVector::FromInts({0, 1, 2}), CmpOp::kGe, Rational(1)},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindIntegerPoint(3, cons));
  }
}
BENCHMARK(BM_IlpL1Sample);

void BM_PolyhedronEnumerate(benchmark::State& state) {
  Polyhedron p(3);
  for (size_t d = 0; d < 3; ++d) {
    p.AddVarBounds(d, 0, state.range(0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.EnumerateIntegerPoints());
  }
}
BENCHMARK(BM_PolyhedronEnumerate)->Arg(4)->Arg(8);

void BM_FarkasBox(benchmark::State& state) {
  Polyhedron p(2);
  p.AddVarBounds(0, 0, 11);
  p.AddVarBounds(1, 0, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FarkasNonNegativeForms(p));
  }
}
BENCHMARK(BM_FarkasBox);

void BM_AnalyzeAddMul(benchmark::State& state) {
  Workload w = MakeAddMul(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeProgram(w.program));
  }
}
BENCHMARK(BM_AnalyzeAddMul);

void BM_FindSchedulePaperSet(benchmark::State& state) {
  Workload w = MakeAddMul(40);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q;
  for (const auto& o : a.sharing) {
    std::string l = o.Label(w.program);
    if (l == "s1WC->s2RC" || l == "s2WE->s2RE" || l == "s2WE->s2WE") {
      q.push_back(&o);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.FindSchedule(q));
  }
}
BENCHMARK(BM_FindSchedulePaperSet);

void BM_CostEvaluation(benchmark::State& state) {
  Workload w = MakeAddMul(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluatePlanCost(w.program, w.program.original_schedule(), {}));
  }
}
BENCHMARK(BM_CostEvaluation);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  auto env = NewMemEnv();
  auto store = OpenDaf(env.get(), "/b", 4096, 16);
  BufferPool pool(1 << 20);
  auto f = pool.Fetch(0, 0, 4096, store->get(), false);
  pool.Unpin(*f);
  for (auto _ : state) {
    auto fr = pool.Fetch(0, 0, 4096, store->get(), false);
    pool.Unpin(*fr);
    benchmark::DoNotOptimize(fr);
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

// --------------------------------------------------------------- kernels
// GEMM GFLOP/s sweep (items/s == FLOP/s: items = 2 n^3 per iteration):
// packed (BlockGemm) vs the pre-packing loop nest (BlockGemmNaive) vs the
// SciDB-like scalar engine, untransposed and both-transposed. The packed/
// naive ratio at 512+ is the ISSUE 6 acceptance number; on transposed
// operands the naive path degrades to strided access while packing absorbs
// the flags, so the gap widens by another order of magnitude.
enum class GemmImpl { kPacked, kNaive, kScalar };

void GemmBench(benchmark::State& state, GemmImpl impl, bool ta, bool tb) {
  const int64_t n = state.range(0);
  std::vector<double> a(static_cast<size_t>(n * n)),
      b(static_cast<size_t>(n * n)), c(static_cast<size_t>(n * n));
  DenseView va{a.data(), n, n}, vb{b.data(), n, n}, vc{c.data(), n, n};
  BlockFillRandom(&va, 1);
  BlockFillRandom(&vb, 2);
  for (auto _ : state) {
    switch (impl) {
      case GemmImpl::kPacked:
        BlockGemm(va, ta, vb, tb, &vc, false);
        break;
      case GemmImpl::kNaive:
        BlockGemmNaive(va, ta, vb, tb, &vc, false);
        break;
      case GemmImpl::kScalar:
        BlockGemmScalar(va, ta, vb, tb, &vc, false);
        break;
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK_CAPTURE(GemmBench, packed_nn, GemmImpl::kPacked, false, false)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(768);
BENCHMARK_CAPTURE(GemmBench, packed_tt, GemmImpl::kPacked, true, true)
    ->Arg(256)->Arg(512)->Arg(768);
BENCHMARK_CAPTURE(GemmBench, naive_nn, GemmImpl::kNaive, false, false)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(768);
BENCHMARK_CAPTURE(GemmBench, naive_tt, GemmImpl::kNaive, true, true)
    ->Arg(256)->Arg(512)->Arg(768);
BENCHMARK_CAPTURE(GemmBench, scalar_nn, GemmImpl::kScalar, false, false)
    ->Arg(256)->Arg(512);

// Every GEMM block shape the paper_io end-to-end workload runs (perfbench/),
// on each ISA tier this CPU supports; the public BlockGemm runs the widest.
// No shape may be slower on a wide tier than on the baseline tier: the
// short-output tiles exist for covariance's 1'X (m1_k1000_n100_tn).
struct TierShape {
  const char* name;
  int64_t m, k, n;
  bool trans_a;
};
constexpr TierShape kPaperIoShapes[] = {
    {"m40_k35_n15_nn", 40, 35, 15, false},
    {"m60_k40_n50_nn", 60, 40, 50, false},
    {"m600_k40_n4_nn", 600, 40, 4, false},
    {"m40_k40_n4_nn", 40, 40, 4, false},
    {"m40_k600_n40_tn", 40, 600, 40, true},
    {"m40_k600_n4_tn", 40, 600, 4, true},
    {"m100_k1000_n100_tn", 100, 1000, 100, true},
    {"m1_k1000_n100_tn", 1, 1000, 100, true},
    {"m100_k1_n100_tn", 100, 1, 100, true}};

void GemmTierBench(benchmark::State& state,
                   const dense_internal::DenseTier* tier, TierShape s) {
  std::vector<double> a(static_cast<size_t>(s.m * s.k)),
      b(static_cast<size_t>(s.k * s.n)), c(static_cast<size_t>(s.m * s.n));
  DenseView va{a.data(), s.trans_a ? s.k : s.m, s.trans_a ? s.m : s.k};
  DenseView vb{b.data(), s.k, s.n}, vc{c.data(), s.m, s.n};
  BlockFillRandom(&va, 1);
  BlockFillRandom(&vb, 2);
  for (auto _ : state) {
    tier->gemm(va, s.trans_a, vb, false, &vc, /*accumulate=*/true, 1.0);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.k * s.n);
}

const bool kGemmTierBenchesRegistered = [] {
  for (const dense_internal::DenseTier* tier :
       dense_internal::SupportedTiers()) {
    for (const TierShape& s : kPaperIoShapes) {
      benchmark::RegisterBenchmark(
          (std::string("GemmTier/") + tier->name + "/" + s.name).c_str(),
          GemmTierBench, tier, s);
    }
  }
  return true;
}();

// Elementwise single-pass kernels: bytes/s (2 streams in, 1 out).
void BM_ElementwiseAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<double> a(static_cast<size_t>(n * n)),
      b(static_cast<size_t>(n * n)), c(static_cast<size_t>(n * n));
  DenseView va{a.data(), n, n}, vb{b.data(), n, n}, vc{c.data(), n, n};
  BlockFillRandom(&va, 1);
  BlockFillRandom(&vb, 2);
  for (auto _ : state) {
    BlockAdd(va, vb, &vc);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(state.iterations() * 3 * n * n *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_ElementwiseAdd)->Arg(256)->Arg(1024)->Arg(2048);

void BM_ElementwiseScale(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<double> a(static_cast<size_t>(n * n)),
      c(static_cast<size_t>(n * n));
  DenseView va{a.data(), n, n}, vc{c.data(), n, n};
  BlockFillRandom(&va, 1);
  for (auto _ : state) {
    BlockScale(va, 1.0009765625, &vc);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(state.iterations() * 2 * n * n *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_ElementwiseScale)->Arg(256)->Arg(1024);

// Fixed-lane reduction: bytes/s of one input stream.
void BM_SumSquares(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<double> a(static_cast<size_t>(n * n));
  DenseView va{a.data(), n, n};
  BlockFillRandom(&va, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockSumSquares(va));
  }
  state.SetBytesProcessed(state.iterations() * n * n *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_SumSquares)->Arg(256)->Arg(1024)->Arg(2048);

void BM_StoreWrite(benchmark::State& state) {
  auto env = NewMemEnv();
  const bool lab = state.range(0) != 0;
  auto store = OpenBlockStore(env.get(), "/s",
                              lab ? StorageFormat::kLabTree
                                  : StorageFormat::kDaf,
                              64 << 10, 256);
  std::vector<uint8_t> buf(64 << 10, 0x5A);
  int64_t i = 0;
  for (auto _ : state) {
    (*store)->WriteBlock(i++ % 256, buf.data()).CheckOK();
  }
  state.SetBytesProcessed(state.iterations() * (64 << 10));
  state.SetLabel(lab ? "labtree" : "daf");
}
BENCHMARK(BM_StoreWrite)->Arg(0)->Arg(1);

void BM_StoreRead(benchmark::State& state) {
  auto env = NewMemEnv();
  const bool lab = state.range(0) != 0;
  auto store = OpenBlockStore(env.get(), "/s",
                              lab ? StorageFormat::kLabTree
                                  : StorageFormat::kDaf,
                              64 << 10, 256);
  std::vector<uint8_t> buf(64 << 10, 0x5A);
  for (int64_t b = 0; b < 256; ++b) {
    (*store)->WriteBlock(b, buf.data()).CheckOK();
  }
  int64_t i = 0;
  for (auto _ : state) {
    (*store)->ReadBlock(i++ % 256, buf.data()).CheckOK();
  }
  state.SetBytesProcessed(state.iterations() * (64 << 10));
  state.SetLabel(lab ? "labtree" : "daf");
}
BENCHMARK(BM_StoreRead)->Arg(0)->Arg(1);

}  // namespace
}  // namespace riot

BENCHMARK_MAIN();
