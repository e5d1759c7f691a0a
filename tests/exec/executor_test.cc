// Execution engine tests: kernels run in scheduled order with correct
// buffering, sharing realization, and I/O accounting.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include "analysis/coaccess.h"
#include "core/cost_model.h"
#include "core/schedule_solver.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace {

const CoAccess* Find(const std::vector<CoAccess>& list, const Program& p,
                     const std::string& label) {
  for (const auto& ca : list) {
    if (ca.Label(p) == label) return &ca;
  }
  return nullptr;
}

// Computes the expected E = (A + B) * D with plain in-memory math.
std::vector<double> ReferenceExample1(const Workload& w, const Runtime& rt) {
  const Program& p = w.program;
  const ArrayInfo& ai = p.array(0);
  const ArrayInfo& di = p.array(3);
  const ArrayInfo& ei = p.array(4);
  auto a = ReadWholeArray(ai, rt.stores[0].get()).ValueOrDie();
  auto b = ReadWholeArray(ai, rt.stores[1].get()).ValueOrDie();
  auto d = ReadWholeArray(di, rt.stores[3].get()).ValueOrDie();
  // Dense views per block; compute blockwise like the kernels do.
  const int64_t br = ai.block_elems[0], bc = ai.block_elems[1];
  const int64_t dc = di.block_elems[1];
  std::vector<double> e(
      static_cast<size_t>(ei.NumBlocks() * ei.ElemsPerBlock()), 0.0);
  for (int64_t i = 0; i < ai.grid[0]; ++i) {
    for (int64_t j = 0; j < di.grid[1]; ++j) {
      for (int64_t k = 0; k < ai.grid[1]; ++k) {
        const double* ab = a.data() + ai.LinearBlockIndex({i, k}) *
                                          ai.ElemsPerBlock();
        const double* bb = b.data() + ai.LinearBlockIndex({i, k}) *
                                          ai.ElemsPerBlock();
        const double* db = d.data() + di.LinearBlockIndex({k, j}) *
                                          di.ElemsPerBlock();
        double* eb = e.data() + ei.LinearBlockIndex({i, j}) *
                                    ei.ElemsPerBlock();
        for (int64_t cc = 0; cc < dc; ++cc) {
          for (int64_t kk = 0; kk < bc; ++kk) {
            double dv = db[cc * bc + kk];
            for (int64_t rr = 0; rr < br; ++rr) {
              eb[cc * br + rr] +=
                  (ab[kk * br + rr] + bb[kk * br + rr]) * dv;
            }
          }
        }
      }
    }
  }
  return e;
}

TEST(ExecutorTest, OriginalScheduleComputesCorrectResult) {
  Workload w = MakeExample1(2, 3, 2);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/t");
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(InitInputs(w, *rt, 3).ok());
  auto expect = ReferenceExample1(w, *rt);

  Executor ex(w.program, rt->raw(), w.kernels);
  auto stats = ex.Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto e = ReadWholeArray(w.program.array(4), rt->stores[4].get());
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(e->size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_NEAR((*e)[i], expect[i], 1e-9) << "elem " << i;
  }
}

TEST(ExecutorTest, IoMatchesCostModelForOriginal) {
  Workload w = MakeExample1(2, 3, 2);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/t");
  ASSERT_TRUE(InitInputs(w, *rt, 3).ok());
  PlanCost predicted =
      EvaluatePlanCost(w.program, w.program.original_schedule(), {});
  Executor ex(w.program, rt->raw(), w.kernels);
  auto stats = ex.Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->bytes_read, predicted.read_bytes);
  EXPECT_EQ(stats->bytes_written, predicted.write_bytes);
  EXPECT_EQ(stats->peak_required_bytes, predicted.peak_memory_bytes);
}

TEST(ExecutorTest, SharedPlanSkipsSavedIo) {
  Workload w = MakeExample1(2, 3, 1);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/t");
  ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  for (auto* o : q) ASSERT_NE(o, nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  Executor ex(w.program, rt->raw(), w.kernels);
  auto stats = ex.Run(*s, q);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // C never touches disk (n3 = 1, fully pipelined); E written once per
  // block; reads only A, B, D.
  const int64_t blk = w.program.array(0).BlockBytes();
  EXPECT_EQ(stats->bytes_read, (2 * 2 * 3 + 3 * 1 * 2) * blk);
  EXPECT_EQ(stats->bytes_written, 2 * 1 * blk);
}

TEST(ExecutorTest, MemoryCapViolationSurfacesAsError) {
  Workload w = MakeExample1(2, 3, 2);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/t");
  ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  ExecOptions opts;
  opts.memory_cap_bytes = w.program.array(0).BlockBytes() * 2;  // too small
  Executor ex(w.program, rt->raw(), w.kernels, opts);
  auto stats = ex.Run(w.program.original_schedule(), {});
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecutorTest, ComputeAndIoTimersPopulate)
{
  Workload w = MakeExample1(2, 2, 1);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/t");
  ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  Executor ex(w.program, rt->raw(), w.kernels);
  auto stats = ex.Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->wall_seconds, 0.0);
  EXPECT_GE(stats->compute_seconds, 0.0);
  EXPECT_GT(stats->block_reads, 0);
  EXPECT_GT(stats->block_writes, 0);
}

TEST(ExecutorTest, MalformedScheduleIsInvalidArgumentBeforeAnyIo) {
  // Each malformed schedule used to crash Run: an empty one indexed past
  // the schedule's matrices, a short column aborted a CHECK in TimeOf. The
  // lowering now rejects them before any store is touched.
  Workload w = MakeAddMul(/*scale=*/100);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/t");
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  const Schedule& orig = w.program.original_schedule();

  Schedule short_column = orig;
  {
    const RMatrix& m = orig.ForStatement(0);
    RMatrix cut(m.rows(), m.cols() - 1);
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c + 1 < m.cols(); ++c) cut.At(r, c) = m.At(r, c);
    }
    short_column.MutableForStatement(0) = cut;
  }
  // Time row 1 of statement 0 becomes i/2: not an integer at odd i.
  Schedule fractional = orig;
  ASSERT_EQ(fractional.ForStatement(0).At(1, 0), Rational(1));
  fractional.MutableForStatement(0).At(1, 0) = Rational(1, 2);
  Schedule extra_statement = orig;
  extra_statement.Append(orig.ForStatement(0));

  const std::vector<std::pair<std::string, Schedule>> cases = {
      {"empty", Schedule()},
      {"short column", short_column},
      {"fractional time", fractional},
      {"extra statement", extra_statement}};
  for (const auto& [name, sched] : cases) {
    SCOPED_TRACE(name);
    env->stats().Reset();
    Executor ex(w.program, rt->raw(), w.kernels);
    auto stats = ex.Run(sched, {});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument)
        << stats.status().ToString();
    EXPECT_EQ(env->stats().read_ops.load(), 0);
    EXPECT_EQ(env->stats().write_ops.load(), 0);
  }
}

TEST(VerifyTest, MaxAbsDifferenceDetectsMismatch) {
  ArrayInfo info;
  info.name = "A";
  info.grid = {2, 1};
  info.block_elems = {4, 1};
  auto env = NewMemEnv();
  auto s1 = OpenDaf(env.get(), "/a", info.BlockBytes(), info.NumBlocks());
  auto s2 = OpenDaf(env.get(), "/b", info.BlockBytes(), info.NumBlocks());
  std::vector<double> blk = {1, 2, 3, 4};
  for (int64_t b = 0; b < 2; ++b) {
    ASSERT_TRUE((*s1)->WriteBlock(b, blk.data()).ok());
    ASSERT_TRUE((*s2)->WriteBlock(b, blk.data()).ok());
  }
  auto d0 = MaxAbsDifference(info, s1->get(), s2->get());
  ASSERT_TRUE(d0.ok());
  EXPECT_EQ(*d0, 0.0);
  blk[2] = 7.5;
  ASSERT_TRUE((*s2)->WriteBlock(1, blk.data()).ok());
  auto d1 = MaxAbsDifference(info, s1->get(), s2->get());
  EXPECT_DOUBLE_EQ(*d1, 4.5);
}

}  // namespace
}  // namespace riot
