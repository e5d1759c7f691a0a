// Property fuzzer: random static-control programs are optimized and every
// legal plan executed; for each plan we assert
//   (1) output equality with the original schedule (semantic preservation),
//   (2) executed I/O volume == predicted I/O volume, and
//   (3) executed memory requirement == predicted peak.
// Inputs are integer-valued and kernels use integer coefficients, so
// floating-point reassociation cannot mask reordering bugs: any deviation
// is exact.
//
// The SweepOracle suite is the differential oracle for the parallel
// executor: every generated program runs under {exec_threads 1, 2, 4} x
// {pipeline_depth 0, 2} and all stored outputs must be bit-for-bit equal,
// while the instance dependence DAG is validated against a brute-force
// instance-pair dependence check. RIOT_FUZZ_SEEDS overrides the number of
// fuzzed programs (default 200).
// The ExprFuzz suite is the differential oracle for the expression front
// end: random well-shaped expression trees are lowered (core/lowering.h),
// optimized, and executed at {serial, pipelined, 4-thread}, and every
// stored output must match — bit for bit — a naive in-memory evaluator
// over exact linalg/matrix Rationals (inputs are small integers and
// generation bounds value growth, so double arithmetic is exact and any
// lowering/synthesis/scheduling bug shows as a hard mismatch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <tuple>

#include "analysis/program_lint.h"
#include "core/access_plan.h"
#include "core/cost_model.h"
#include "core/lowering.h"
#include "core/optimizer.h"
#include "core/schedule_solver.h"
#include "ir/builder.h"
#include "ir/expr.h"
#include "ir/scalar_ops.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "linalg/matrix.h"
#include "ops/lockstep.h"
#include "ops/runtime.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "testing/reference_lowering.h"
#include "testing/reference_search.h"

namespace riot {
namespace {

struct GeneratedProgram {
  Program program;
  std::vector<StatementKernel> kernels;
  std::vector<int> inputs;
  std::vector<int> outputs;
};

// All arrays share a 3x3 block grid of 4x4 blocks; all loop variables range
// over 0..2, so any (variable | constant) affine access is in bounds.
GeneratedProgram Generate(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  GeneratedProgram g;
  const int narrays = pick(3, 5);
  for (int i = 0; i < narrays; ++i) {
    ArrayInfo a;
    a.name = std::string(1, static_cast<char>('A' + i));
    a.grid = {3, 3};
    a.block_elems = {4, 4};
    g.program.AddArray(a);
  }
  const int nstmts = pick(2, 3);
  struct StmtPlan {
    std::vector<int> read_views;  // access indices of plain reads
    int acc_view = -1;            // guarded self-read (accumulation)
    int write_view = -1;
    std::vector<int64_t> coefs;
  };
  std::vector<StmtPlan> plans;
  std::vector<bool> written(static_cast<size_t>(narrays), false);
  for (int s = 0; s < nstmts; ++s) {
    Statement st;
    st.name = "s" + std::to_string(s + 1);
    const int depth = pick(2, 3);
    for (int d = 0; d < depth; ++d) {
      st.iters.push_back(std::string(1, static_cast<char>('i' + d)));
    }
    std::vector<std::pair<int64_t, int64_t>> bounds(
        static_cast<size_t>(depth), {0, 2});
    st.domain = RectDomain(bounds, st.iters);
    // Random affine row: a loop variable or a constant.
    auto rand_row = [&]() {
      std::vector<int64_t> row(static_cast<size_t>(depth) + 1, 0);
      if (pick(0, 2) > 0) {
        row[static_cast<size_t>(pick(0, depth - 1))] = 1;
      } else {
        row[static_cast<size_t>(depth)] = pick(0, 2);
      }
      return row;
    };
    StmtPlan sp;
    const int nreads = pick(1, 2);
    for (int rd = 0; rd < nreads; ++rd) {
      int arr = pick(0, narrays - 1);
      st.accesses.push_back(Read(arr, {rand_row(), rand_row()}));
      sp.read_views.push_back(static_cast<int>(st.accesses.size()) - 1);
      sp.coefs.push_back(pick(1, 3));
    }
    // Write target: prefer an array not yet written (keeps programs from
    // overwriting their own inputs in confusing ways, though that would be
    // legal too).
    int warr = pick(0, narrays - 1);
    for (int tries = 0; tries < narrays && written[size_t(warr)]; ++tries) {
      warr = (warr + 1) % narrays;
    }
    written[static_cast<size_t>(warr)] = true;
    std::vector<int64_t> wrow1 = rand_row(), wrow2 = rand_row();
    // Optional accumulation: a guarded read of the same block.
    const bool accumulate = pick(0, 1) == 1;
    if (accumulate) {
      Access acc = Read(warr, {wrow1, wrow2});
      acc.guard = GuardGe(st.domain, static_cast<size_t>(depth) - 1, 1);
      st.accesses.push_back(std::move(acc));
      sp.acc_view = static_cast<int>(st.accesses.size()) - 1;
    }
    st.accesses.push_back(Write(warr, {wrow1, wrow2}));
    sp.write_view = static_cast<int>(st.accesses.size()) - 1;
    g.program.AddStatement(std::move(st), /*nest=*/s, /*textual=*/0);
    plans.push_back(sp);

    StmtPlan captured = plans.back();
    g.kernels.push_back([captured](const std::vector<int64_t>& iter,
                                   const std::vector<DenseView*>& v) {
      DenseView* out = v[static_cast<size_t>(captured.write_view)];
      const int64_t n = out->elems();
      const bool acc_active =
          captured.acc_view >= 0 &&
          v[static_cast<size_t>(captured.acc_view)] != nullptr;
      for (int64_t e = 0; e < n; ++e) {
        double val = acc_active ? out->data[e] : 0.0;
        val += 1.0 + static_cast<double>(iter.back() % 3);
        for (size_t r = 0; r < captured.read_views.size(); ++r) {
          val += v[static_cast<size_t>(captured.read_views[r])]->data[e] *
                 static_cast<double>(captured.coefs[r]);
        }
        out->data[e] = val;
      }
    });
  }
  for (int a = 0; a < narrays; ++a) {
    g.inputs.push_back(a);  // initialize everything (arrays may be R+W)
    if (written[static_cast<size_t>(a)]) g.outputs.push_back(a);
  }
  return g;
}

Status InitIntegers(const Program& p, const Runtime& rt,
                    const std::vector<int>& arrays, uint64_t seed) {
  for (int id : arrays) {
    const ArrayInfo& arr = p.array(id);
    std::vector<double> buf(static_cast<size_t>(arr.ElemsPerBlock()));
    std::mt19937_64 rng(seed * 131 + static_cast<uint64_t>(id));
    for (int64_t b = 0; b < arr.NumBlocks(); ++b) {
      for (auto& x : buf) x = static_cast<double>(rng() % 7);
      RIOT_RETURN_NOT_OK(
          rt.stores[static_cast<size_t>(id)]->WriteBlock(b, buf.data()));
    }
  }
  return Status::OK();
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, AllPlansExactAndEquivalent) {
  GeneratedProgram g = Generate(GetParam());
  ASSERT_TRUE(g.program.Validate().ok());

  // Every plan the Apriori oracle finds at a combination cap of 2 (found
  // and closure plans), then the border search's best plan: many realized
  // sets per program, and the one the optimizer chooses.
  OptimizationResult r = reference::AprioriSearch(g.program, 2);
  r.plans.push_back(Optimize(g.program).best());

  // The static linter must accept every generated program (zero false
  // positives over the fuzz corpus); mutation coverage for true positives
  // lives in tests/analysis/program_lint_test.cc.
  {
    auto lint = LintProgram(g.program);
    ASSERT_TRUE(lint.ok()) << lint.status().ToString();
    EXPECT_TRUE(lint->ok()) << lint->ToString();
  }

  auto env = NewMemEnv();
  auto ref_rt = OpenStores(env.get(), g.program, "/ref");
  ASSERT_TRUE(ref_rt.ok());
  ASSERT_TRUE(InitIntegers(g.program, *ref_rt, g.inputs, GetParam()).ok());
  {
    Executor ex(g.program, ref_rt->raw(), g.kernels);
    auto st = ex.Run(g.program.original_schedule(), {});
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }

  for (size_t pi = 1; pi < r.plans.size(); ++pi) {
    const Plan& plan = r.plans[pi];
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " plan " +
                 std::to_string(pi) + ": " +
                 plan.DescribeOpportunities(g.program, r.analysis.sharing));
    auto rt = OpenStores(env.get(), g.program, "/p" + std::to_string(pi));
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(InitIntegers(g.program, *rt, g.inputs, GetParam()).ok());
    std::vector<const CoAccess*> q;
    for (int oi : plan.opportunities) {
      q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
    }
    {
      auto lint = LintPlan(g.program, plan.schedule, q);
      ASSERT_TRUE(lint.ok()) << lint.status().ToString();
      EXPECT_TRUE(lint->ok()) << lint->ToString();
    }
    ExecOptions eo;
    eo.memory_cap_bytes = plan.cost.peak_memory_bytes;
    Executor ex(g.program, rt->raw(), g.kernels, eo);
    auto stats = ex.Run(plan.schedule, q);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->bytes_read, plan.cost.read_bytes);
    EXPECT_EQ(stats->bytes_written, plan.cost.write_bytes);
    EXPECT_EQ(stats->peak_required_bytes, plan.cost.peak_memory_bytes);
    for (int arr : g.outputs) {
      auto diff = MaxAbsDifference(
          g.program.array(arr),
          ref_rt->stores[static_cast<size_t>(arr)].get(),
          rt->stores[static_cast<size_t>(arr)].get());
      ASSERT_TRUE(diff.ok());
      EXPECT_EQ(*diff, 0.0) << "array " << g.program.array(arr).name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

// ---------------------------------------------------------------------------
// Differential sweep oracle + brute-force DAG validation.
// ---------------------------------------------------------------------------

uint64_t FuzzSeedCount() {
  const char* env = std::getenv("RIOT_FUZZ_SEEDS");
  if (env != nullptr) {
    long long v = std::atoll(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 200;
}

// The border search against the Apriori oracle over the corpus: the same
// best plan I/O with no cap, and the monotone, schedule-independent I/O the
// search relies on. Every fifth program also checks the caps (each cap is a
// whole search again). The oracle tests every feasible set, so the first 50
// programs run in tier-1 and the whole corpus (under a minute in a Release
// build on 4 vCPUs) in the stress label.
class SearchOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchOracleTest, MatchesAprioriOracle) {
  GeneratedProgram g = Generate(GetParam());
  ASSERT_TRUE(g.program.Validate().ok());
  if (GetParam() % 5 == 0) {
    reference::ExpectSearchMatchesReference(g.program);
  } else {
    reference::ExpectSearchMatchesReference(g.program, /*cap_factors=*/{});
  }
}

INSTANTIATE_TEST_SUITE_P(Smoke, SearchOracleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{51}));
INSTANTIATE_TEST_SUITE_P(Full, SearchOracleTest,
                         ::testing::Range(uint64_t{1},
                                          uint64_t{1} + FuzzSeedCount()));

// Brute-force oracle for BuildInstanceDag: (a) completeness — every
// instance pair sharing a block with at least one kernel write, and every
// saved read vs its materializing access, must be transitively ordered;
// (b) soundness — every edge connects instances that touch a common block.
void ValidateDagAgainstBruteForce(const AccessScript& script,
                                  const InstanceDag& dag) {
  const size_t n = script.per_pos.size();
  ASSERT_EQ(dag.succ.size(), n);

  // Transitive closure; positions are topological so one reverse sweep.
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (size_t p = n; p-- > 0;) {
    for (uint32_t s : dag.succ[p]) {
      reach[p][s] = true;
      for (size_t q = 0; q < n; ++q) {
        if (reach[s][q]) reach[p][q] = true;
      }
    }
  }

  // Soundness: an edge implies a shared block.
  for (size_t p = 0; p < n; ++p) {
    for (uint32_t s : dag.succ[p]) {
      bool shares = false;
      auto [pb, pe] = script.per_pos[p];
      auto [qb, qe] = script.per_pos[s];
      for (uint32_t i = pb; i < pe && !shares; ++i) {
        for (uint32_t j = qb; j < qe && !shares; ++j) {
          shares = script.records[i].array_id == script.records[j].array_id &&
                   script.records[i].block == script.records[j].block;
        }
      }
      EXPECT_TRUE(shares) << "edge " << p << "->" << s
                          << " without a common block";
    }
  }

  // Completeness, straight off the definition: scan every record pair.
  std::map<std::pair<int, int64_t>, int64_t> materializer;
  for (const auto& a : script.records) {
    if (a.type == AccessType::kRead && a.saved) {
      auto it = materializer.find({a.array_id, a.block});
      ASSERT_NE(it, materializer.end())
          << "saved read at pos " << a.pos << " with no materializer";
      size_t src = static_cast<size_t>(it->second);
      if (src != a.pos) {
        EXPECT_TRUE(reach[src][a.pos])
            << "saved read at pos " << a.pos
            << " unordered after materializer at " << src;
      }
    } else {
      materializer[{a.array_id, a.block}] = static_cast<int64_t>(a.pos);
    }
  }
  for (const auto& a : script.records) {
    for (const auto& b : script.records) {
      if (a.pos >= b.pos) continue;
      if (a.array_id != b.array_id || a.block != b.block) continue;
      if (a.type != AccessType::kWrite && b.type != AccessType::kWrite) {
        continue;
      }
      EXPECT_TRUE(reach[a.pos][b.pos])
          << "unordered conflict " << a.pos << "->" << b.pos << " on array "
          << a.array_id << " block " << a.block;
    }
  }
}

// Every output array of `g` holds the same bits in `got` as in `want`.
void ExpectOutputsEqual(const GeneratedProgram& g, const Runtime& want,
                        const Runtime& got) {
  for (int arr : g.outputs) {
    auto diff = MaxAbsDifference(g.program.array(arr),
                                 want.stores[static_cast<size_t>(arr)].get(),
                                 got.stores[static_cast<size_t>(arr)].get());
    ASSERT_TRUE(diff.ok());
    EXPECT_EQ(*diff, 0.0) << "array " << g.program.array(arr).name;
  }
}

// The plans the engine oracles run per program: the original schedule with
// no sharing; when the solver finds one, a schedule realizing up to two
// sharing opportunities, which exercises saved reads, retention, and
// elision; and, when that schedule realizes more than it was found for,
// its closure (core/optimizer.h): the same schedule exploiting every
// opportunity it realizes. (Direct analysis + solver instead of the full
// optimizer: an oracle needs a few realized plans per program, not the
// whole plan space.)
struct OraclePlan {
  Schedule schedule;
  std::vector<const CoAccess*> q;  // into the caller's AnalysisResult
  PlanCost cost;
};

std::vector<OraclePlan> OraclePlans(const GeneratedProgram& g,
                                    const AnalysisResult& analysis) {
  std::vector<OraclePlan> plans;
  const Schedule& orig = g.program.original_schedule();
  plans.push_back({orig, {}, EvaluatePlanCost(g.program, orig, {})});
  ScheduleSolver solver(g.program, analysis.dependences);
  std::optional<Schedule> shared_sched;
  std::vector<const CoAccess*> shared_q;
  size_t attempts = 0;
  for (const CoAccess& opp : analysis.sharing) {
    if (shared_q.size() >= 2 || ++attempts > 8) break;
    std::vector<const CoAccess*> trial = shared_q;
    trial.push_back(&opp);
    auto s = solver.FindSchedule(trial);
    if (s.has_value()) {
      shared_q = trial;
      shared_sched = *s;
    }
  }
  if (!shared_sched.has_value()) return plans;
  plans.push_back({*shared_sched, shared_q,
                   EvaluatePlanCost(g.program, *shared_sched, shared_q)});
  std::vector<const CoAccess*> closure;
  for (const CoAccess& opp : analysis.sharing) {
    if (solver.Realizes(*shared_sched, opp)) closure.push_back(&opp);
  }
  if (closure.size() > shared_q.size()) {
    plans.push_back({*shared_sched, closure,
                     EvaluatePlanCost(g.program, *shared_sched, closure)});
  }
  return plans;
}

// Lowering oracle: over the corpus, the single integer lowering pass must
// reproduce the Rational three-sweep reference (tests/testing) field for
// field. The lowering does not check legality, so the schedules need no
// solver: the original one, its loop-fused form (every nest at time 0, so
// groups hold instances of several statements), its loop-interchanged
// form, and both. Each runs with no sharing, with every opportunity whose
// pairs run forward under it, and with each such opportunity alone (a
// W->W save without its W->R must be refused).
class LoweringOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LoweringOracleTest, MatchesReferenceOnScheduleVariants) {
  GeneratedProgram g = Generate(GetParam());
  ASSERT_TRUE(g.program.Validate().ok());
  const AnalysisResult analysis = AnalyzeProgram(g.program);
  const Schedule& orig = g.program.original_schedule();
  const size_t rows = orig.depth();
  auto variant = [&](bool fuse, bool interchange) {
    Schedule s = orig;
    for (size_t st = 0; st < s.num_statements(); ++st) {
      RMatrix& m = s.MutableForStatement(static_cast<int>(st));
      if (fuse) {
        for (size_t c = 0; c < m.cols(); ++c) m.At(0, c) = Rational(0);
      }
      if (interchange && rows >= 4) {
        for (size_t c = 0; c < m.cols(); ++c) std::swap(m.At(1, c), m.At(2, c));
      }
    }
    return s;
  };
  for (int v = 0; v < 4; ++v) {
    const Schedule sched = variant((v & 1) != 0, (v & 2) != 0);
    // Stream order key of an instance, as the lowering sorts it.
    auto key = [&](int stmt, const std::vector<int64_t>& iter) {
      return std::make_tuple(sched.TimeOf(stmt, iter), stmt, iter);
    };
    std::vector<const CoAccess*> forward;
    for (const CoAccess& o : analysis.sharing) {
      bool ok = true;
      for (const InstancePair& pr : o.pairs) {
        ok = ok && !(key(o.dst.stmt_id, pr.dst_iter) <
                     key(o.src.stmt_id, pr.src_iter));
      }
      if (ok) forward.push_back(&o);
    }
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " variant " +
                 std::to_string(v));
    reference::ExpectLoweringMatchesReference(g.program, sched, {});
    reference::ExpectLoweringMatchesReference(g.program, sched, forward);
    for (const CoAccess* o : forward) {
      SCOPED_TRACE(o->Label(g.program));
      reference::ExpectLoweringMatchesReference(g.program, sched, {o});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringOracleTest,
                         ::testing::Range(uint64_t{1},
                                          uint64_t{1} + FuzzSeedCount()));

class SweepOracleTest : public ::testing::TestWithParam<uint64_t> {};

// Multi-worker runs may transiently need more memory than the one-worker
// peak (out-of-order completions pin and retain early). The sweep records
// the largest ratio of a multi-worker run's peak_required_bytes to the
// one-worker peak and prints it when the suite ends: a measured bound,
// reported rather than asserted (exec/executor.h quotes it).
struct ParallelPeakRatio {
  double max = 0.0;
  uint64_t seed = 0;
  int threads = 0;
} g_parallel_peak_ratio;

class ParallelPeakRatioReport : public ::testing::Environment {
 public:
  void TearDown() override {
    if (g_parallel_peak_ratio.max == 0.0) return;
    std::printf(
        "ParallelPeakRatio: max multi-worker / one-worker "
        "peak_required_bytes = %.4f (seed %llu, %d workers)\n",
        g_parallel_peak_ratio.max,
        static_cast<unsigned long long>(g_parallel_peak_ratio.seed),
        g_parallel_peak_ratio.threads);
  }
};
[[maybe_unused]] ::testing::Environment* const kParallelPeakRatioReport =
    ::testing::AddGlobalTestEnvironment(new ParallelPeakRatioReport);

TEST_P(SweepOracleTest, AllThreadDepthConfigsBitIdentical) {
  const uint64_t seed = GetParam();
  GeneratedProgram g = Generate(seed);
  ASSERT_TRUE(g.program.Validate().ok());

  AnalysisResult analysis = AnalyzeProgram(g.program);
  const std::vector<OraclePlan> cases = OraclePlans(g, analysis);

  auto env = NewMemEnv();
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const OraclePlan& pc = cases[ci];
    SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                 std::to_string(ci));

    // DAG oracle on this plan's script.
    const AccessScript script =
        LowerPlan(g.program, pc.schedule, pc.q).ValueOrDie();
    InstanceDag dag = BuildInstanceDag(script);
    ValidateDagAgainstBruteForce(script, dag);

    // Reference: the serial engine (threads 1, depth 0).
    std::string base = "/c" + std::to_string(ci);
    auto ref_rt = OpenStores(env.get(), g.program, base + "_ref");
    ASSERT_TRUE(ref_rt.ok());
    ASSERT_TRUE(InitIntegers(g.program, *ref_rt, g.inputs, seed).ok());
    ExecStats ref_stats;
    {
      ExecOptions eo;
      eo.memory_cap_bytes = pc.cost.peak_memory_bytes;
      Executor ex(g.program, ref_rt->raw(), g.kernels, eo);
      auto st = ex.Run(pc.schedule, pc.q);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      ref_stats = *st;
      // The serial engine stays cost-model-exact under the plan's own cap.
      EXPECT_EQ(st->bytes_read, pc.cost.read_bytes);
      EXPECT_EQ(st->bytes_written, pc.cost.write_bytes);
      EXPECT_EQ(st->peak_required_bytes, pc.cost.peak_memory_bytes);
    }

    // One worker, plan-exact, under caps from the plan's exact peak up, at
    // every depth: the lookahead rule (each prefetch charged the plan's
    // largest requirement over the positions its frame spans), instance
    // read fan-out (charged inside the instance's own requirement) and
    // write-behind must move only timing — the predicted I/O and peak,
    // every issued read adopted, none wasted or abandoned, no pin left
    // behind, the same bits.
    for (const int64_t cap :
         {pc.cost.peak_memory_bytes, pc.cost.peak_memory_bytes * 5 / 4,
          pc.cost.peak_memory_bytes * 3 / 2, pc.cost.peak_memory_bytes * 2}) {
      for (int depth : {1, 2, 4}) {
        SCOPED_TRACE("one worker, cap " + std::to_string(cap) + " depth " +
                     std::to_string(depth));
        const std::string dir = base + "_c" + std::to_string(cap) + "d" +
                                std::to_string(depth);
        auto rt = OpenStores(env.get(), g.program, dir);
        ASSERT_TRUE(rt.ok());
        ASSERT_TRUE(InitIntegers(g.program, *rt, g.inputs, seed).ok());
        BufferPool pool(cap);
        ExecOptions eo;
        eo.pipeline_depth = depth;
        eo.shared_pool = &pool;
        Executor ex(g.program, rt->raw(), g.kernels, eo);
        auto st = ex.Run(pc.schedule, pc.q);
        ASSERT_TRUE(st.ok()) << st.status().ToString();
        EXPECT_EQ(st->bytes_read, pc.cost.read_bytes);
        EXPECT_EQ(st->bytes_written, pc.cost.write_bytes);
        EXPECT_EQ(st->block_reads, pc.cost.block_reads);
        EXPECT_EQ(st->block_writes, pc.cost.block_writes);
        EXPECT_EQ(st->peak_required_bytes, pc.cost.peak_memory_bytes);
        EXPECT_EQ(st->prefetch_wasted, 0);
        EXPECT_EQ(st->pool.prefetch_abandoned, 0);
        EXPECT_EQ(st->prefetch_hits, st->pool.prefetch_issued);
        EXPECT_EQ(pool.PinnedFrames(), 0);
        ExpectOutputsEqual(g, *ref_rt, *rt);
      }
    }

    for (int threads : {2, 4}) {
      for (int depth : {0, 2}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " depth " +
                     std::to_string(depth));
        std::string dir = base + "_t" + std::to_string(threads) + "d" +
                          std::to_string(depth);
        auto rt = OpenStores(env.get(), g.program, dir);
        ASSERT_TRUE(rt.ok());
        ASSERT_TRUE(InitIntegers(g.program, *rt, g.inputs, seed).ok());
        // Parallel runs may transiently need more than the plan's peak
        // (out-of-order retention), so they get a roomy pool.
        BufferPool pool(int64_t{1} << 30);
        ExecOptions eo;
        eo.exec_threads = threads;
        eo.pipeline_depth = depth;
        eo.shared_pool = &pool;
        Executor ex(g.program, rt->raw(), g.kernels, eo);
        auto st = ex.Run(pc.schedule, pc.q);
        ASSERT_TRUE(st.ok()) << st.status().ToString();
        EXPECT_EQ(st->bytes_written, ref_stats.bytes_written);
        EXPECT_EQ(pool.PinnedFrames(), 0);
        EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
        if (ref_stats.peak_required_bytes > 0) {
          const double ratio =
              static_cast<double>(st->peak_required_bytes) /
              static_cast<double>(ref_stats.peak_required_bytes);
          if (ratio > g_parallel_peak_ratio.max) {
            g_parallel_peak_ratio = {ratio, seed, threads};
          }
        }
        ExpectOutputsEqual(g, *ref_rt, *rt);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepOracleTest,
                         ::testing::Range(uint64_t{1},
                                          uint64_t{1} + FuzzSeedCount()));

// ---------------------------------------------------------------------------
// Write-behind soak: the corpus at pipeline_depth 2 under caps of exactly
// the plan's peak and 1.5 x peak. At the exact peak lookahead runs
// wherever the plan's requirement dips below its peak, so failing writes
// meet prefetch issue and adoption at both caps. Healthy runs match the
// synchronous reference bit for bit with the same I/O and requirement and
// every prefetch adopted; runs whose k-th write fails end in IoError with
// no pin or retention left, and the pool stays reusable.
// RIOT_FUZZ_SEEDS / 4 seeds.
// ---------------------------------------------------------------------------

class WriteBehindSoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WriteBehindSoakTest, CapsAndWriteFaultsStayExact) {
  const uint64_t seed = GetParam();
  GeneratedProgram g = Generate(seed);
  ASSERT_TRUE(g.program.Validate().ok());
  AnalysisResult analysis = AnalyzeProgram(g.program);
  auto env = NewMemEnv();
  int run_idx = 0;
  for (const OraclePlan& pc : OraclePlans(g, analysis)) {
    const std::string base = "/wb" + std::to_string(run_idx++);
    auto ref_rt = OpenStores(env.get(), g.program, base + "_ref");
    ASSERT_TRUE(ref_rt.ok());
    ASSERT_TRUE(InitIntegers(g.program, *ref_rt, g.inputs, seed).ok());
    ExecStats ref;
    {
      Executor ex(g.program, ref_rt->raw(), g.kernels);
      auto st = ex.Run(pc.schedule, pc.q);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      ref = *st;
    }
    for (const int64_t cap :
         {pc.cost.peak_memory_bytes, pc.cost.peak_memory_bytes * 3 / 2}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cap " +
                   std::to_string(cap));
      const std::string dir = base + "_" + std::to_string(cap);
      BufferPool pool(cap);
      ExecOptions eo;
      eo.pipeline_depth = 2;
      eo.shared_pool = &pool;
      auto run = [&](Env* run_env) -> Result<ExecStats> {
        {
          // Fresh inputs: a failed run may have updated some in place.
          auto init = OpenStores(env.get(), g.program, dir);
          RIOT_RETURN_NOT_OK(init.status());
          RIOT_RETURN_NOT_OK(InitIntegers(g.program, *init, g.inputs, seed));
        }
        auto rt = OpenStores(run_env, g.program, dir);
        RIOT_RETURN_NOT_OK(rt.status());
        Executor ex(g.program, rt->raw(), g.kernels, eo);
        auto st = ex.Run(pc.schedule, pc.q);
        EXPECT_EQ(pool.PinnedFrames(), 0);
        EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
        if (st.ok()) {
          for (int arr : g.outputs) {
            auto diff = MaxAbsDifference(
                g.program.array(arr),
                ref_rt->stores[static_cast<size_t>(arr)].get(),
                rt->stores[static_cast<size_t>(arr)].get());
            EXPECT_TRUE(diff.ok() && *diff == 0.0)
                << "array " << g.program.array(arr).name;
          }
        }
        return st;
      };
      for (int64_t k = 0; k < ref.block_writes; ++k) {
        SCOPED_TRACE("failing write " + std::to_string(k));
        auto faulty = NewFaultyEnv(env.get(), k, FaultOps::kWrites);
        auto st = run(faulty.get());
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.status().code(), StatusCode::kIoError)
            << st.status().ToString();
      }
      auto st = run(env.get());
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      EXPECT_EQ(st->block_reads, ref.block_reads);
      EXPECT_EQ(st->block_writes, ref.block_writes);
      EXPECT_EQ(st->peak_required_bytes, ref.peak_required_bytes);
      EXPECT_EQ(st->prefetch_wasted, 0);
      EXPECT_EQ(st->prefetch_hits, st->pool.prefetch_issued);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Soak, WriteBehindSoakTest,
                         ::testing::Range(uint64_t{1},
                                          uint64_t{1} +
                                              FuzzSeedCount() / 4));

// ---------------------------------------------------------------------------
// Cache-simulator differential oracle: for every fuzzed program, plan case,
// execution mode, replacement policy, and {tight, loose} cap, the cost
// model's cache simulator must predict the serial engine's measured
// block_reads / block_writes / evictions / hits / misses EXACTLY. Also
// asserts the Belady guarantee on the corpus: ScheduleOpt never reads more
// blocks than LRU under the opportunistic ablation.
// ---------------------------------------------------------------------------

class CacheSimTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheSimTest, SimulatorMatchesSerialEngineExactly) {
  const uint64_t seed = GetParam();
  GeneratedProgram g = Generate(seed);
  ASSERT_TRUE(g.program.Validate().ok());

  // The sweep oracle's plans: retention + saved reads interact with
  // eviction, so every one must simulate exactly.
  const AnalysisResult analysis = AnalyzeProgram(g.program);
  const std::vector<OraclePlan> cases = OraclePlans(g, analysis);

  auto env = NewMemEnv();
  int run_idx = 0;
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const OraclePlan& pc = cases[ci];
    const PlanCost& cost = pc.cost;
    const AccessScript script =
        LowerPlan(g.program, pc.schedule, pc.q).ValueOrDie();
    const int64_t block = g.program.array(0).BlockBytes();
    for (const bool opportunistic : {false, true}) {
      // Tight: for plan-exact runs the plan's exact requirement (the
      // engine errors below it); for the opportunistic ablation a cap
      // just above the largest instance footprint — maximum pressure.
      const int64_t tight = opportunistic
                                ? script.max_instance_bytes + 2 * block
                                : cost.peak_memory_bytes;
      const int64_t loose = int64_t{1} << 30;
      std::map<ReplacementKind, int64_t> tight_reads;
      for (const ReplacementKind kind :
           {ReplacementKind::kLru, ReplacementKind::kScheduleOpt}) {
        for (const int64_t cap : {tight, loose}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                       std::to_string(ci) + " mode " +
                       (opportunistic ? "opportunistic" : "plan-exact") +
                       " policy " + ReplacementKindName(kind) + " cap " +
                       std::to_string(cap));
          auto rt = OpenStores(env.get(), g.program,
                               "/sim" + std::to_string(run_idx++));
          ASSERT_TRUE(rt.ok());
          ASSERT_TRUE(InitIntegers(g.program, *rt, g.inputs, seed).ok());
          ExecOptions eo;
          eo.memory_cap_bytes = cap;
          eo.replacement = kind;
          eo.mode = opportunistic ? ExecMode::kOpportunisticCache
                                  : ExecMode::kPlanExact;
          Executor ex(g.program, rt->raw(), g.kernels, eo);
          auto stats = ex.Run(pc.schedule, pc.q);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();

          CacheSimOptions sim;
          sim.policy = kind;
          sim.cap_bytes = cap;
          sim.opportunistic = opportunistic;
          auto predicted =
              SimulateCacheBehavior(g.program, pc.schedule, pc.q, sim);
          ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

          EXPECT_EQ(predicted->block_reads, stats->block_reads);
          EXPECT_EQ(predicted->block_writes, stats->block_writes);
          EXPECT_EQ(predicted->read_bytes, stats->bytes_read);
          EXPECT_EQ(predicted->write_bytes, stats->bytes_written);
          EXPECT_EQ(predicted->evictions, stats->pool.evictions);
          EXPECT_EQ(predicted->hits, stats->pool.hits);
          EXPECT_EQ(predicted->misses, stats->pool.misses);
          EXPECT_EQ(predicted->policy_saved_reads,
                    stats->policy_saved_reads);
          if (opportunistic && cap == tight) {
            tight_reads[kind] = stats->block_reads;
          }
        }
      }
      if (opportunistic) {
        // Belady never loses to LRU on reads — the point of paying for
        // the future-use annotations.
        EXPECT_LE(tight_reads[ReplacementKind::kScheduleOpt],
                  tight_reads[ReplacementKind::kLru])
            << "seed " << seed << " case " << ci;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSimTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// ---------------------------------------------------------------------------
// Multi-tenant replacement oracle: 2-4 random sessions run concurrently
// over one shared sub-working-set pool with their kernels serialized into a
// random (but fixed) global order by a LockstepGate. For each replacement
// policy the extended cache simulator must predict every session's
// block_reads / bytes / policy_saved_reads and the pool's evictions /
// hits / misses EXACTLY; outputs must be bit-identical to solo runs; and
// merged-clock ScheduleOpt must never read more blocks than LRU on the
// same interleaving.
// ---------------------------------------------------------------------------

class MultiTenantOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiTenantOracleTest, MergedClockMatchesSimulatorExactly) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed * 7919 + 13);
  const int nsessions = 2 + static_cast<int>(rng() % 3);

  // Per session: its own program (distinct seed), stores, and plan — a
  // solver schedule realizing sharing when one exists and a seeded coin
  // allows (saved reads + retention + divergent saved writes must all
  // stay exact under co-tenancy), else the original schedule.
  struct Session {
    GeneratedProgram g;
    AnalysisResult analysis;
    std::optional<Schedule> shared_sched;
    const Schedule* schedule = nullptr;
    std::vector<const CoAccess*> q;
    int64_t footprint = 0;
    size_t instances = 0;
    std::vector<int> pool_ids;  // program array id -> shared-pool id
  };
  std::vector<Session> sessions(static_cast<size_t>(nsessions));
  int next_pool_id = 0;
  for (int s = 0; s < nsessions; ++s) {
    Session& sess = sessions[static_cast<size_t>(s)];
    sess.g = Generate(seed * 31 + static_cast<uint64_t>(s) + 1);
    ASSERT_TRUE(sess.g.program.Validate().ok());
    sess.analysis = AnalyzeProgram(sess.g.program);
    if (rng() % 2 == 0) {
      ScheduleSolver solver(sess.g.program, sess.analysis.dependences);
      size_t attempts = 0;
      for (const CoAccess& opp : sess.analysis.sharing) {
        if (sess.q.size() >= 2 || ++attempts > 8) break;
        std::vector<const CoAccess*> trial = sess.q;
        trial.push_back(&opp);
        auto sched = solver.FindSchedule(trial);
        if (sched.has_value()) {
          sess.q = trial;
          sess.shared_sched = *sched;
        }
      }
    }
    sess.schedule = sess.shared_sched.has_value()
                        ? &*sess.shared_sched
                        : &sess.g.program.original_schedule();
    const PlanCost cost =
        EvaluatePlanCost(sess.g.program, *sess.schedule, sess.q);
    sess.footprint = cost.peak_memory_bytes;
    sess.instances = LowerPlan(sess.g.program, *sess.schedule, sess.q)
                         .ValueOrDie()
                         .order.size();
    for (int a = 0; a < static_cast<int>(sess.g.program.arrays().size());
         ++a) {
      sess.pool_ids.push_back(next_pool_id++);
    }
  }

  // Sub-working-set shared cap: every tenant's exact requirement fits
  // simultaneously (no parking under lockstep), but far less than the
  // total data the sessions touch — evictions decide the read counts.
  int64_t cap = 0;
  for (const Session& sess : sessions) cap += sess.footprint;

  // One random kernel interleaving, shared by engine and simulator and by
  // every policy (reads are only comparable on a fixed schedule).
  std::vector<int> interleaving;
  for (int s = 0; s < nsessions; ++s) {
    interleaving.insert(interleaving.end(), sessions[size_t(s)].instances,
                        s);
  }
  std::shuffle(interleaving.begin(), interleaving.end(), rng);

  auto env = NewMemEnv();

  // Solo references (loose cap, own pool): the bit-identity baseline.
  std::vector<std::unique_ptr<Runtime>> ref_rts;
  for (int s = 0; s < nsessions; ++s) {
    Session& sess = sessions[static_cast<size_t>(s)];
    auto rt = OpenStores(env.get(), sess.g.program,
                         "/mt_ref" + std::to_string(s));
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(
        InitIntegers(sess.g.program, *rt, sess.g.inputs, seed).ok());
    Executor ex(sess.g.program, rt->raw(), sess.g.kernels);
    auto st = ex.Run(*sess.schedule, sess.q);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ref_rts.push_back(std::make_unique<Runtime>(std::move(rt).ValueOrDie()));
  }

  std::map<ReplacementKind, int64_t> total_reads;
  int run_idx = 0;
  for (const ReplacementKind kind :
       {ReplacementKind::kLru, ReplacementKind::kScheduleOpt}) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " sessions " +
                 std::to_string(nsessions) + " policy " +
                 ReplacementKindName(kind) + " cap " + std::to_string(cap));

    BufferPool pool(cap, MakeReplacementPolicy(kind));
    LockstepGate gate(nsessions, interleaving);

    std::vector<std::unique_ptr<Runtime>> rts;
    std::vector<std::unique_ptr<PoolAccount>> accounts;
    std::vector<std::vector<StatementKernel>> gated_kernels;
    for (int s = 0; s < nsessions; ++s) {
      Session& sess = sessions[static_cast<size_t>(s)];
      auto rt = OpenStores(env.get(), sess.g.program,
                           "/mt" + std::to_string(run_idx) + "_" +
                               std::to_string(s));
      ASSERT_TRUE(rt.ok());
      ASSERT_TRUE(
          InitIntegers(sess.g.program, *rt, sess.g.inputs, seed).ok());
      rts.push_back(std::make_unique<Runtime>(std::move(rt).ValueOrDie()));
      auto account = std::make_unique<PoolAccount>();
      account->budget_bytes = sess.footprint;
      accounts.push_back(std::move(account));
      std::vector<StatementKernel> wrapped;
      for (const StatementKernel& k : sess.g.kernels) {
        wrapped.push_back([&gate, s, k](const std::vector<int64_t>& iter,
                                        const std::vector<DenseView*>& v) {
          gate.EnterKernel(s);
          k(iter, v);
        });
      }
      gated_kernels.push_back(std::move(wrapped));
    }
    ++run_idx;

    // Serialized spawn: session s's bind/advance(0)/fetch(0) prologue
    // completes (it blocks at kernel 0) before s+1 starts.
    std::vector<Result<ExecStats>> stats(
        static_cast<size_t>(nsessions),
        Result<ExecStats>(Status::Internal("not run")));
    std::vector<std::thread> threads;
    for (int s = 0; s < nsessions; ++s) {
      Session& sess = sessions[static_cast<size_t>(s)];
      threads.emplace_back([&, s]() {
        SessionBinding binding;
        binding.account = accounts[static_cast<size_t>(s)].get();
        binding.pool_array_ids = sess.pool_ids;
        ExecOptions eo;
        eo.shared_pool = &pool;
        eo.replacement = kind;
        eo.session = &binding;
        Executor ex(sess.g.program, rts[static_cast<size_t>(s)]->raw(),
                    gated_kernels[static_cast<size_t>(s)], eo);
        stats[static_cast<size_t>(s)] = ex.Run(*sess.schedule, sess.q);
        gate.Finish(s);
      });
      gate.AwaitArrival(s);
    }
    gate.Start();
    for (std::thread& t : threads) t.join();

    // The extended simulator replays the same interleaving and must be
    // exact: per-session reads/writes/saved-reads, pool-global evictions.
    std::vector<TenantCacheScript> tenants;
    for (int s = 0; s < nsessions; ++s) {
      Session& sess = sessions[static_cast<size_t>(s)];
      TenantCacheScript ts;
      ts.program = &sess.g.program;
      ts.schedule = sess.schedule;
      ts.realized = sess.q;
      ts.pool_array_ids = sess.pool_ids;
      ts.budget_bytes = sess.footprint;
      tenants.push_back(std::move(ts));
    }
    CacheSimOptions sim;
    sim.policy = kind;
    sim.cap_bytes = cap;
    auto predicted = SimulateMultiTenantCache(tenants, interleaving, sim);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

    int64_t engine_reads = 0;
    for (int s = 0; s < nsessions; ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      const auto& st = stats[static_cast<size_t>(s)];
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      EXPECT_EQ(st->session_parks, 0);
      const CacheSimResult& per =
          predicted->per_tenant[static_cast<size_t>(s)];
      EXPECT_EQ(per.block_reads, st->block_reads);
      EXPECT_EQ(per.read_bytes, st->bytes_read);
      EXPECT_EQ(per.block_writes, st->block_writes);
      EXPECT_EQ(per.write_bytes, st->bytes_written);
      EXPECT_EQ(per.policy_saved_reads, st->policy_saved_reads);
      engine_reads += st->block_reads;
      // Bit-identity: co-tenancy changes I/O, never results.
      for (int arr : sessions[static_cast<size_t>(s)].g.outputs) {
        auto diff = MaxAbsDifference(
            sessions[static_cast<size_t>(s)].g.program.array(arr),
            ref_rts[static_cast<size_t>(s)]
                ->stores[static_cast<size_t>(arr)]
                .get(),
            rts[static_cast<size_t>(s)]
                ->stores[static_cast<size_t>(arr)]
                .get());
        ASSERT_TRUE(diff.ok());
        EXPECT_EQ(*diff, 0.0)
            << "array "
            << sessions[static_cast<size_t>(s)].g.program.array(arr).name;
      }
    }
    const BufferPoolStats ps = pool.stats();
    EXPECT_EQ(predicted->total.evictions, ps.evictions);
    EXPECT_EQ(predicted->total.hits, ps.hits);
    EXPECT_EQ(predicted->total.misses, ps.misses);
    EXPECT_EQ(predicted->total.block_reads, engine_reads);
    EXPECT_EQ(pool.PinnedFrames(), 0);
    EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
    total_reads[kind] = engine_reads;
  }

  // The merged future-use clock must not lose to history-based LRU on the
  // same interleaving — the whole point of keeping the schedules bound
  // under multi-tenancy.
  EXPECT_LE(total_reads[ReplacementKind::kScheduleOpt],
            total_reads[ReplacementKind::kLru])
      << "seed " << seed;
}

// A fast smoke slice runs in tier-1; the full corpus is stress-labeled
// (see CMakeLists: integration/mt_replacement_smoke / _oracle).
INSTANTIATE_TEST_SUITE_P(Smoke, MultiTenantOracleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));
INSTANTIATE_TEST_SUITE_P(Full, MultiTenantOracleTest,
                         ::testing::Range(uint64_t{7}, uint64_t{47}));

// ---------------------------------------------------------------------------
// Expression-DAG fuzzer: random well-shaped expression trees vs a naive
// exact evaluator.
// ---------------------------------------------------------------------------

// One generated DAG plus the per-node value bound the generator maintained
// (|value| <= bound, so doubles stay exact integers).
struct GeneratedExpr {
  ExprGraph graph;
  std::vector<ExprRef> outputs;
};

// Keeps every intermediate below 2^48 in absolute value: double arithmetic
// on integers is then exact, so "bit-for-bit" is a meaningful oracle no
// matter how plans reassociate.
constexpr double kMaxBound = 281474976710656.0;  // 2^48

GeneratedExpr GenerateExpr(uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 13);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  GeneratedExpr g;
  std::vector<double> bound;     // node id -> max |value|
  std::vector<bool> consumed;    // node id -> has a consumer
  auto track = [&](ExprRef r, double b) {
    // Hash-consing may return an existing node; sizes then do not grow.
    if (static_cast<size_t>(r) == bound.size()) {
      bound.push_back(b);
      consumed.push_back(false);
    }
    return r;
  };

  // Block element sizes include primes and straddle the packed GEMM's
  // short-output cutoffs and smaller register tiles (each tier's tiles are
  // in its src/kernels/dense_<tier>.cc), so edge tiles, full tiles, and
  // multi-tile panels all flow through the differential against the exact
  // evaluator; the AVX-512 tier's 24-row tile meets only edge tiles here
  // (tests/kernels/dense_test.cc runs its full tiles). Bounds math is
  // unchanged: the generator still rejects any op whose value bound would
  // leave the exact-integer range.
  auto pick_bsize = [&]() -> int64_t {
    static constexpr int64_t kSizes[] = {2, 3, 4, 5, 7, 9, 13, 17};
    return kSizes[rng() % (sizeof(kSizes) / sizeof(kSizes[0]))];
  };
  const int ninputs = pick(2, 3);
  for (int i = 0; i < ninputs; ++i) {
    track(g.graph.Input(std::string(1, static_cast<char>('A' + i)),
                        {pick(1, 3), pick(1, 3)}, {pick_bsize(), pick_bsize()}),
          3.0);
  }

  const int nops = pick(3, 6);
  for (int o = 0; o < nops; ++o) {
    // Rejection-sample a well-shaped, bounded op over existing nodes.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int n = static_cast<int>(g.graph.size());
      const ExprRef a = pick(0, n - 1);
      const ExprRef b = pick(0, n - 1);
      const ExprShape& sa = g.graph.node(a).shape;
      const ExprShape& sb = g.graph.node(b).shape;
      const int kind = pick(0, 7);
      ExprRef made = -1;
      switch (kind) {
        case 0:
        case 1: {  // Add / Sub
          if (!(sa == sb) || bound[size_t(a)] + bound[size_t(b)] > kMaxBound) {
            continue;
          }
          made = track(kind == 0 ? g.graph.Add(a, b) : g.graph.Sub(a, b),
                       bound[size_t(a)] + bound[size_t(b)]);
          break;
        }
        case 2: {  // Scale by a small integer
          const double alpha = pick(2, 3);
          if (alpha * bound[size_t(a)] > kMaxBound) continue;
          made = track(g.graph.Scale(a, alpha), alpha * bound[size_t(a)]);
          break;
        }
        case 3: {  // AddDiag on a single square block
          if (sa.grid[0] != 1 || sa.grid[1] != 1 ||
              sa.block_elems[0] != sa.block_elems[1] ||
              bound[size_t(a)] + 3.0 > kMaxBound) {
            continue;
          }
          made = track(g.graph.AddDiag(a, pick(1, 3)),
                       bound[size_t(a)] + 3.0);
          break;
        }
        case 4: {  // Gemm with random transposes and integer alpha
          const bool ta = pick(0, 1) == 1, tb = pick(0, 1) == 1;
          const int64_t ka = ta ? sa.grid[0] : sa.grid[1];
          const int64_t kae = ta ? sa.block_elems[0] : sa.block_elems[1];
          const int64_t kb = tb ? sb.grid[1] : sb.grid[0];
          const int64_t kbe = tb ? sb.block_elems[1] : sb.block_elems[0];
          if (ka != kb || kae != kbe) continue;
          const double alpha = pick(1, 2);
          const double bb = alpha * bound[size_t(a)] * bound[size_t(b)] *
                            static_cast<double>(ka * kae);
          if (bb > kMaxBound) continue;
          made = track(g.graph.Gemm(a, b, {ta, tb, alpha}), bb);
          break;
        }
        case 5: {  // SumSquares
          const double rows =
              static_cast<double>(sa.grid[0] * sa.block_elems[0]);
          const double bb = bound[size_t(a)] * bound[size_t(a)] * rows;
          if (bb > kMaxBound) continue;
          made = track(g.graph.SumSquares(a), bb);
          break;
        }
        case 6: {  // Map: abs / relu, exact on integers, bound unchanged
          made = track(
              g.graph.Map(a, pick(0, 1) == 0 ? kScalarAbs : kScalarRelu),
              bound[size_t(a)]);
          break;
        }
        case 7: {  // Zip: min / max, bound is the larger operand bound
          if (!(sa == sb)) continue;
          made = track(
              g.graph.Zip(a, b, pick(0, 1) == 0 ? kScalarMin : kScalarMax),
              std::max(bound[size_t(a)], bound[size_t(b)]));
          break;
        }
      }
      if (made < 0) continue;
      for (ExprRef arg : g.graph.node(made).args) {
        consumed[static_cast<size_t>(arg)] = true;
      }
      break;
    }
  }

  for (size_t id = 0; id < g.graph.size(); ++id) {
    if (!g.graph.node(static_cast<ExprRef>(id)).is_input() && !consumed[id]) {
      g.outputs.push_back(static_cast<ExprRef>(id));
    }
  }
  return g;
}

// Chain-focused corpus: two same-shape inputs feeding a deep single-
// consumer elementwise chain — the fusion planner's main diet — rooted
// half the time on a diamond (one producer, two branches that rejoin)
// whose shared producer must stay materialized while both branches fuse
// into the join. These graphs maximize fusion depth; the test runs them on
// the original schedule only, because the long same-shape statement runs
// they lower to UNFUSED would blow up plan enumeration for no extra
// differential value.
GeneratedExpr GenerateChainExpr(uint64_t seed) {
  std::mt19937_64 rng(seed * 6271 + 101);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  GeneratedExpr g;
  std::vector<double> bound;
  std::vector<bool> consumed;
  auto track = [&](ExprRef r, double b) {
    if (static_cast<size_t>(r) == bound.size()) {
      bound.push_back(b);
      consumed.push_back(false);
    }
    return r;
  };
  const int64_t gr = pick(1, 3), gc = pick(1, 3);
  const int64_t br = pick(2, 13), bc = pick(2, 13);
  const ExprRef x = track(g.graph.Input("X", {gr, gc}, {br, bc}), 3.0);
  const ExprRef y = track(g.graph.Input("Y", {gr, gc}, {br, bc}), 3.0);

  // One fusable op on top of t; second operands come from {t, x, y}. Abs
  // is the no-growth fallback once the integer-exactness headroom is gone.
  auto apply = [&](ExprRef t) -> ExprRef {
    const double bt = bound[size_t(t)];
    const ExprRef other = pick(0, 1) == 0 ? x : y;
    const double bo = bound[size_t(other)];
    switch (pick(0, 6)) {
      case 0:
        if (2.0 * bt <= kMaxBound) {
          return track(g.graph.Scale(t, 2.0), 2.0 * bt);
        }
        break;
      case 1:
        if (bt + bo <= kMaxBound) {
          return track(g.graph.Add(t, other), bt + bo);
        }
        break;
      case 2:
        if (bt + bo <= kMaxBound) {
          return track(g.graph.Sub(t, other), bt + bo);
        }
        break;
      case 3:
        // Same node on both slots: two (consumer, slot) uses, so t must
        // NOT fuse into this consumer — the planner's duplicate-arg rule.
        if (bt + bt <= kMaxBound) {
          return track(g.graph.Add(t, t), bt + bt);
        }
        break;
      case 4:
        return track(g.graph.Map(t, kScalarRelu), bt);
      case 5:
        return track(g.graph.Zip(t, other, kScalarMax), std::max(bt, bo));
      case 6:
        return track(g.graph.Zip(t, other, kScalarMin), std::max(bt, bo));
      default:
        break;
    }
    return track(g.graph.Map(t, kScalarAbs), bt);
  };

  ExprRef t = pick(0, 1) == 0 ? x : y;
  if (pick(0, 1) == 1) {
    const ExprRef seed_node = track(g.graph.Add(x, y), 6.0);
    const ExprRef branch_a = track(g.graph.Map(seed_node, kScalarRelu), 6.0);
    const ExprRef branch_b = track(g.graph.Scale(seed_node, 2.0), 12.0);
    consumed[size_t(seed_node)] = true;
    t = track(g.graph.Sub(branch_b, branch_a), 18.0);
    consumed[size_t(branch_a)] = true;
    consumed[size_t(branch_b)] = true;
  }
  const int chain = pick(4, 8);
  for (int i = 0; i < chain; ++i) {
    const ExprRef next = apply(t);
    consumed[size_t(t)] = true;
    t = next;
  }
  auto collect = [&] {
    g.outputs.clear();
    for (size_t id = 0; id < g.graph.size(); ++id) {
      if (!g.graph.node(static_cast<ExprRef>(id)).is_input() &&
          !consumed[id]) {
        g.outputs.push_back(static_cast<ExprRef>(id));
      }
    }
  };
  collect();
  while (g.outputs.empty()) {
    // Hash-consing can land the chain tip on an already-consumed node;
    // keep wrapping until some node is free to be the output.
    t = track(g.graph.Map(t, kScalarAbs), bound[size_t(t)]);
    collect();
  }
  return g;
}

// Exact whole-array evaluation of the DAG over Rational matrices. Element
// (r, c) of node `id` is value(id)->At(r, c); inputs are filled by `fill`.
std::vector<RMatrix> EvaluateNaive(
    const ExprGraph& g,
    const std::function<Rational(int, int64_t, int64_t)>& fill) {
  std::vector<RMatrix> vals;
  for (size_t id = 0; id < g.size(); ++id) {
    const ExprNode& n = g.node(static_cast<ExprRef>(id));
    const int64_t rows = n.shape.rows(), cols = n.shape.cols();
    RMatrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
    auto& va = n.args.empty() ? m : vals[static_cast<size_t>(n.args[0])];
    switch (n.kind) {
      case StatementOp::Kind::kInput:
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            m.At(size_t(r), size_t(c)) = fill(static_cast<int>(id), r, c);
          }
        }
        break;
      case StatementOp::Kind::kAdd:
      case StatementOp::Kind::kSub: {
        const RMatrix& vb = vals[static_cast<size_t>(n.args[1])];
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            m.At(size_t(r), size_t(c)) =
                n.kind == StatementOp::Kind::kAdd
                    ? va.At(size_t(r), size_t(c)) + vb.At(size_t(r), size_t(c))
                    : va.At(size_t(r), size_t(c)) -
                          vb.At(size_t(r), size_t(c));
          }
        }
        break;
      }
      case StatementOp::Kind::kScale:
      case StatementOp::Kind::kAddDiag: {
        const Rational alpha(static_cast<int64_t>(n.alpha));
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            m.At(size_t(r), size_t(c)) =
                n.kind == StatementOp::Kind::kScale
                    ? alpha * va.At(size_t(r), size_t(c))
                    : va.At(size_t(r), size_t(c)) +
                          (r == c ? alpha : Rational(0));
          }
        }
        break;
      }
      case StatementOp::Kind::kGemm: {
        const RMatrix& vb = vals[static_cast<size_t>(n.args[1])];
        const Rational alpha(static_cast<int64_t>(n.alpha));
        const int64_t kk = n.trans_a
                               ? static_cast<int64_t>(va.rows())
                               : static_cast<int64_t>(va.cols());
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            Rational acc;
            for (int64_t k = 0; k < kk; ++k) {
              const Rational& ea = n.trans_a ? va.At(size_t(k), size_t(r))
                                             : va.At(size_t(r), size_t(k));
              const Rational& eb = n.trans_b ? vb.At(size_t(c), size_t(k))
                                             : vb.At(size_t(k), size_t(c));
              acc += ea * eb;
            }
            m.At(size_t(r), size_t(c)) = alpha * acc;
          }
        }
        break;
      }
      case StatementOp::Kind::kMap:
        // Built-in maps only: abs and relu are exact over integers.
        RIOT_CHECK(n.scalar_fn == kScalarAbs || n.scalar_fn == kScalarRelu);
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            const Rational& v = va.At(size_t(r), size_t(c));
            m.At(size_t(r), size_t(c)) =
                n.scalar_fn == kScalarAbs
                    ? v.Abs()
                    : (v.IsNegative() ? Rational(0) : v);
          }
        }
        break;
      case StatementOp::Kind::kZip: {
        RIOT_CHECK(n.scalar_fn == kScalarMin || n.scalar_fn == kScalarMax);
        const RMatrix& vb = vals[static_cast<size_t>(n.args[1])];
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            const Rational& x = va.At(size_t(r), size_t(c));
            const Rational& y = vb.At(size_t(r), size_t(c));
            m.At(size_t(r), size_t(c)) =
                (n.scalar_fn == kScalarMin) == (x < y) ? x : y;
          }
        }
        break;
      }
      case StatementOp::Kind::kInverse:
        RIOT_CHECK(false) << "fuzzer never generates Inverse (non-integer)";
        break;
      case StatementOp::Kind::kSumSquares:
        for (int64_t c = 0; c < cols; ++c) {
          Rational acc;
          for (int64_t r = 0; r < static_cast<int64_t>(va.rows()); ++r) {
            acc += va.At(size_t(r), size_t(c)) * va.At(size_t(r), size_t(c));
          }
          m.At(0, size_t(c)) = acc;
        }
        break;
    }
    vals.push_back(std::move(m));
  }
  return vals;
}

// Global-element <-> blocked-store mapping (blocks row-major in the store,
// elements column-major within a block).
double BlockedAt(const ArrayInfo& info, const std::vector<double>& blocked,
                 int64_t r, int64_t c) {
  const int64_t br = info.block_elems[0], bc = info.block_elems[1];
  const int64_t blk = (r / br) * info.grid[1] + (c / bc);
  return blocked[static_cast<size_t>(blk * info.ElemsPerBlock() +
                                     (c % bc) * br + (r % br))];
}

struct EngineConfig {
  const char* name;
  int threads;
  int depth;
};
constexpr EngineConfig kEngineConfigs[] = {
    {"serial", 1, 0}, {"pipelined", 1, 2}, {"threads4", 4, 2}};

// Integer inputs in 0..3, deterministic in (node, element).
std::function<Rational(int, int64_t, int64_t)> MakeIntegerFill(uint64_t seed) {
  return [seed](int node, int64_t r, int64_t c) {
    uint64_t h = seed * 0x9E3779B97F4A7C15ULL +
                 static_cast<uint64_t>(node) * 0x2545F4914F6CDD1DULL +
                 static_cast<uint64_t>(r) * 1000003ULL +
                 static_cast<uint64_t>(c) * 10007ULL;
    h ^= h >> 33;
    return Rational(static_cast<int64_t>(h % 4));
  };
}

// Writes the exact integer inputs into `lo`'s stores, runs the program under
// (sched, q) with the given engine config, and checks every output element
// bitwise against the exact evaluator's values.
void RunLoweredAndCheck(
    const GeneratedExpr& gen, const LoweredExpr& lo,
    const std::vector<RMatrix>& naive,
    const std::function<Rational(int, int64_t, int64_t)>& fill,
    const Schedule& sched, const std::vector<const CoAccess*>& q,
    const EngineConfig& cfg, Env* env, const std::string& path) {
  const Program& prog = lo.program;
  auto rt = OpenStores(env, prog, path);
  ASSERT_TRUE(rt.ok());
  // Initialize inputs from the same exact values the naive evaluator saw.
  for (size_t id = 0; id < gen.graph.size(); ++id) {
    const ExprNode& node = gen.graph.node(static_cast<ExprRef>(id));
    if (!node.is_input()) continue;
    const int arr = lo.array_of[id];
    const ArrayInfo& info = prog.array(arr);
    std::vector<double> buf(static_cast<size_t>(info.ElemsPerBlock()));
    for (int64_t blk = 0; blk < info.NumBlocks(); ++blk) {
      const int64_t brow = blk / info.grid[1], bcol = blk % info.grid[1];
      for (int64_t c = 0; c < info.block_elems[1]; ++c) {
        for (int64_t rr = 0; rr < info.block_elems[0]; ++rr) {
          buf[static_cast<size_t>(c * info.block_elems[0] + rr)] =
              fill(static_cast<int>(id), brow * info.block_elems[0] + rr,
                   bcol * info.block_elems[1] + c)
                  .ToDouble();
        }
      }
      ASSERT_TRUE(rt->stores[static_cast<size_t>(arr)]
                      ->WriteBlock(blk, buf.data())
                      .ok());
    }
  }
  ExecOptions eo;
  eo.exec_threads = cfg.threads;
  eo.pipeline_depth = cfg.depth;
  // No hand kernels at all: the executor synthesizes from the ops.
  Executor ex(prog, rt->raw(), {}, eo);
  auto stats = ex.Run(sched, q);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  for (ExprRef out : gen.outputs) {
    const int arr = lo.array_of[static_cast<size_t>(out)];
    const ArrayInfo& info = prog.array(arr);
    auto blocked =
        ReadWholeArray(info, rt->stores[static_cast<size_t>(arr)].get());
    ASSERT_TRUE(blocked.ok());
    const RMatrix& want = naive[static_cast<size_t>(out)];
    for (int64_t rr = 0; rr < static_cast<int64_t>(want.rows()); ++rr) {
      for (int64_t cc = 0; cc < static_cast<int64_t>(want.cols()); ++cc) {
        ASSERT_EQ(BlockedAt(info, *blocked, rr, cc),
                  want.At(size_t(rr), size_t(cc)).ToDouble())
            << info.name << " element (" << rr << ", " << cc << ")";
      }
    }
  }
}

class ExprFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprFuzzTest, LoweredExecutionMatchesNaiveEvaluatorBitForBit) {
  const uint64_t seed = GetParam();
  GeneratedExpr gen = GenerateExpr(seed);
  ASSERT_FALSE(gen.outputs.empty());
  // Both lowerings of the same DAG: fused (default) and per-node. Fusion
  // must only ever remove statements and scratch arrays, and both must
  // match the exact evaluator bit for bit under every engine config —
  // the three-way fused / unfused / Rational differential.
  auto lowered = LowerExpr(gen.graph, gen.outputs);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  LowerOptions fuse_off;
  fuse_off.fuse = false;
  auto unfused = LowerExpr(gen.graph, gen.outputs, fuse_off);
  ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();
  EXPECT_EQ(unfused->fused_nodes, 0);
  EXPECT_LE(lowered->program.statements().size(),
            unfused->program.statements().size());
  EXPECT_EQ(unfused->program.statements().size() -
                lowered->program.statements().size(),
            static_cast<size_t>(lowered->fused_nodes));

  const auto fill = MakeIntegerFill(seed);
  const std::vector<RMatrix> naive = EvaluateNaive(gen.graph, fill);

  auto env = NewMemEnv();
  int run_idx = 0;
  for (const LoweredExpr* lo : {&*lowered, &*unfused}) {
    const Program& prog = lo->program;
    ASSERT_TRUE(prog.Validate().ok());

    OptimizationResult r = Optimize(prog);
    const Plan* plan_cases[] = {&r.plans[0], &r.best()};
    for (const Plan* plan : plan_cases) {
      std::vector<const CoAccess*> q;
      for (int oi : plan->opportunities) {
        q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
      }
      {
        // Op-lowered expression programs must also lint clean at both
        // levels — this corpus exercises the StatementOp checks the
        // hand-kernel fuzz family can't, including the fused-tape rules.
        auto lint = LintPlan(prog, plan->schedule, q);
        ASSERT_TRUE(lint.ok()) << lint.status().ToString();
        EXPECT_TRUE(lint->ok()) << lint->ToString();
      }
      for (const EngineConfig& cfg : kEngineConfigs) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " cfg " + cfg.name +
                     (plan == &r.best() ? " best" : " orig") +
                     (lo == &*lowered ? " fused" : " unfused"));
        ASSERT_NO_FATAL_FAILURE(RunLoweredAndCheck(
            gen, *lo, naive, fill, plan->schedule, q, cfg, env.get(),
            "/ef" + std::to_string(run_idx++)));
      }
    }
  }
}

// Chain corpus: deep single-consumer chains (and rejoining diamonds) from
// GenerateChainExpr, the graphs where fusion does the most work. Runs the
// original schedule only — the long same-shape statement runs these lower
// to UNFUSED make plan enumeration combinatorially expensive without adding
// differential value, which the base corpus above already covers.
TEST_P(ExprFuzzTest, FusedChainMatchesUnfusedAndExactOracle) {
  const uint64_t seed = GetParam();
  GeneratedExpr gen = GenerateChainExpr(seed);
  ASSERT_FALSE(gen.outputs.empty());
  auto fused = LowerExpr(gen.graph, gen.outputs);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  LowerOptions fuse_off;
  fuse_off.fuse = false;
  auto unfused = LowerExpr(gen.graph, gen.outputs, fuse_off);
  ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();
  EXPECT_EQ(unfused->fused_nodes, 0);
  // A chain can in principle be all duplicate-arg ops (which must not
  // fuse), so only <= is guaranteed per seed; the statement delta must
  // still account exactly for every fused-away node.
  EXPECT_LE(fused->program.statements().size(),
            unfused->program.statements().size());
  EXPECT_EQ(unfused->program.statements().size() -
                fused->program.statements().size(),
            static_cast<size_t>(fused->fused_nodes));

  const auto fill = MakeIntegerFill(seed);
  const std::vector<RMatrix> naive = EvaluateNaive(gen.graph, fill);

  auto env = NewMemEnv();
  int run_idx = 0;
  for (const LoweredExpr* lo : {&*fused, &*unfused}) {
    const Program& prog = lo->program;
    ASSERT_TRUE(prog.Validate().ok());
    {
      auto lint = LintPlan(prog, prog.original_schedule(), {});
      ASSERT_TRUE(lint.ok()) << lint.status().ToString();
      EXPECT_TRUE(lint->ok()) << lint->ToString();
    }
    for (const EngineConfig& cfg : kEngineConfigs) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cfg " + cfg.name +
                   (lo == &*fused ? " fused" : " unfused"));
      ASSERT_NO_FATAL_FAILURE(RunLoweredAndCheck(
          gen, *lo, naive, fill, prog.original_schedule(), {}, cfg,
          env.get(), "/ec" + std::to_string(run_idx++)));
    }
  }
}

// Smoke subset runs in the tier-1 suite; the Full sweep (>= 50 seeds, the
// acceptance bar) is stress-labeled (see CMakeLists.txt).
INSTANTIATE_TEST_SUITE_P(Smoke, ExprFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));
INSTANTIATE_TEST_SUITE_P(Full, ExprFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{61}));

}  // namespace
}  // namespace riot
