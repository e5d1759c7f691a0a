// Cost model tests: I/O accounting against hand-derived counts from the
// paper's Example 1 and memory-requirement behavior.
#include "core/cost_model.h"

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "core/access_plan.h"
#include "core/schedule_solver.h"
#include "ops/workload.h"

namespace riot {
namespace {

const CoAccess* Find(const std::vector<CoAccess>& list, const Program& p,
                     const std::string& label) {
  for (const auto& ca : list) {
    if (ca.Label(p) == label) return &ca;
  }
  return nullptr;
}

TEST(CostModelTest, BaselineCountsMatchPaperIntro) {
  // Paper Section 1: "A and B are both read once, C is written once and
  // then read n3 times, D is read n1 times, and E is written n2 times and
  // read n2 - 1 times" (per block).
  const int64_t n1 = 3, n2 = 4, n3 = 2;
  Workload w = MakeExample1(n1, n2, n3);
  PlanCost c = EvaluatePlanCost(w.program, w.program.original_schedule(), {});
  const int64_t blk = w.program.array(0).BlockBytes();
  // Reads: A (n1 n2) + B (n1 n2) + C (n1 n2 n3) + D (n2 n3 * n1) +
  //        E ((n2-1) per block * n1 n3).
  int64_t expect_reads = n1 * n2 * 2 + n1 * n2 * n3 + n2 * n3 * n1 +
                         (n2 - 1) * n1 * n3;
  // Writes: C (n1 n2) + E (n2 per block * n1 n3).
  int64_t expect_writes = n1 * n2 + n2 * n1 * n3;
  EXPECT_EQ(c.baseline_read_bytes, expect_reads * blk);
  EXPECT_EQ(c.baseline_write_bytes, expect_writes * blk);
  // Without sharing, actual == baseline.
  EXPECT_EQ(c.read_bytes, c.baseline_read_bytes);
  EXPECT_EQ(c.write_bytes, c.baseline_write_bytes);
  EXPECT_EQ(c.block_reads, expect_reads);
  EXPECT_EQ(c.block_writes, expect_writes);
}

TEST(CostModelTest, AccumulatorSharingRemovesERoundTrips) {
  // Realizing s2WE->s2RE and s2WE->s2WE keeps E[i,j] in memory for the
  // whole k loop: E is written once and read zero times per block.
  const int64_t n1 = 3, n2 = 4, n3 = 2;
  Workload w = MakeExample1(n1, n2, n3);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  ASSERT_NE(q[0], nullptr);
  ASSERT_NE(q[1], nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  PlanCost c = EvaluatePlanCost(w.program, *s, q);
  const int64_t blk = w.program.array(0).BlockBytes();
  // E reads fully eliminated; E writes reduced to one per block.
  int64_t expect_reads = n1 * n2 * 2 + n1 * n2 * n3 + n2 * n3 * n1;
  int64_t expect_writes = n1 * n2 + n1 * n3;
  EXPECT_EQ(c.read_bytes, expect_reads * blk);
  EXPECT_EQ(c.write_bytes, expect_writes * blk);
}

TEST(CostModelTest, PipeliningElidesTemporaryMaterialization) {
  // n3 = 1 with {s1WC->s2RC, E accumulation}: C never hits disk at all
  // (paper footnote 8 / Figure 1(a)).
  const int64_t n1 = 3, n2 = 4, n3 = 1;
  Workload w = MakeExample1(n1, n2, n3);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  for (auto* o : q) ASSERT_NE(o, nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  PlanCost c = EvaluatePlanCost(w.program, *s, q);
  const int64_t blk = w.program.array(0).BlockBytes();
  // Reads: A + B + D only. C reads pipelined, E reads eliminated.
  EXPECT_EQ(c.read_bytes, (n1 * n2 * 2 + n2 * n3 * n1) * blk);
  // Writes: E once per block only; C's writes elided entirely.
  EXPECT_EQ(c.write_bytes, n1 * n3 * blk);
}

TEST(CostModelTest, GeneralCaseKeepsCWritesForLaterReads) {
  // n3 = 2 (Figure 1(b)): C must be written at j == 0 because j == 1
  // re-reads it from disk.
  const int64_t n1 = 3, n2 = 4, n3 = 2;
  Workload w = MakeExample1(n1, n2, n3);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  PlanCost c = EvaluatePlanCost(w.program, *s, q);
  const int64_t blk = w.program.array(0).BlockBytes();
  // C written n1*n2 (kept for the j>0 passes) and read n1*n2*(n3-1).
  int64_t expect_reads =
      n1 * n2 * 2 + n1 * n2 * (n3 - 1) + n2 * n3 * n1;
  int64_t expect_writes = n1 * n2 + n1 * n3;
  EXPECT_EQ(c.read_bytes, expect_reads * blk);
  EXPECT_EQ(c.write_bytes, expect_writes * blk);
  // Savings vs baseline: one pass of reading C (paper Section 1: "save a
  // single pass of reading C") plus all of E's accumulation re-reads.
  EXPECT_EQ(c.baseline_read_bytes - c.read_bytes,
            (n1 * n2 + (n2 - 1) * n1 * n3) * blk);
}

TEST(CostModelTest, MemoryVsIoTradeoff) {
  const int64_t n1 = 3, n2 = 4, n3 = 2;
  Workload w = MakeExample1(n1, n2, n3);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  PlanCost base =
      EvaluatePlanCost(w.program, w.program.original_schedule(), {});
  // Reusing C across j with j innermost (paper Opportunity 2) retains only
  // the currently-used block: big I/O win at (almost) no memory cost.
  std::vector<const CoAccess*> q = {Find(a.sharing, w.program, "s2RC->s2RC")};
  ASSERT_NE(q[0], nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  PlanCost c = EvaluatePlanCost(w.program, *s, q);
  EXPECT_GE(c.peak_memory_bytes, base.peak_memory_bytes);
  EXPECT_LT(c.read_bytes, base.read_bytes);
  // The pipelining plan (Figure 1(b)) co-schedules s1 and s2 and must pay
  // for the union of both statements' working sets: memory grows.
  std::vector<const CoAccess*> q2 = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  auto s2 = solver.FindSchedule(q2);
  ASSERT_TRUE(s2.has_value());
  PlanCost c2 = EvaluatePlanCost(w.program, *s2, q2);
  EXPECT_GT(c2.peak_memory_bytes, base.peak_memory_bytes);
  EXPECT_LT(c2.TotalBytes(), base.TotalBytes());
}

TEST(CostModelTest, IoSecondsUsesAsymmetricRates) {
  Workload w = MakeExample1(2, 2, 1);
  CostModelOptions opt;
  opt.read_mb_per_s = 100.0;
  opt.write_mb_per_s = 50.0;
  PlanCost c =
      EvaluatePlanCost(w.program, w.program.original_schedule(), {}, opt);
  double expect = static_cast<double>(c.read_bytes) / 100e6 +
                  static_cast<double>(c.write_bytes) / 50e6;
  EXPECT_NEAR(c.io_seconds, expect, 1e-12);
  EXPECT_GT(c.baseline_io_seconds, 0.0);
  EXPECT_NEAR(c.SavingsFraction(), 0.0, 1e-12);
}

TEST(PlanRealizationTest, GroupsFollowTimePrefix) {
  Workload w = MakeExample1(2, 2, 1);
  const AccessScript s =
      LowerPlan(w.program, w.program.original_schedule(), {}).ValueOrDie();
  // Original schedule: every instance has a distinct time prefix except
  // statements sharing the final constant dimension — with sequential
  // nests, s1 and s2 instances never share a group.
  ASSERT_EQ(s.order.size(), s.group_of.size());
  for (size_t i = 1; i < s.order.size(); ++i) {
    EXPECT_GE(s.group_of[i], s.group_of[i - 1]);
  }
  for (const BlockAccessRecord& rec : s.records) {
    EXPECT_FALSE(rec.type == AccessType::kRead && rec.saved);
  }
  EXPECT_EQ(s.spans.size(), 0u);
}

TEST(CacheSimTest, LooseCapMatchesLinearModelAndTightCapAddsReads) {
  const int64_t n1 = 3, n2 = 4, n3 = 2;
  Workload w = MakeExample1(n1, n2, n3);
  PlanCost c = EvaluatePlanCost(w.program, w.program.original_schedule(), {});
  // Plan-exact replay at any cap reproduces the linear sharing model's
  // I/O exactly (reads are plan-determined, not residency-determined).
  CacheSimOptions sim;
  sim.cap_bytes = int64_t{1} << 30;
  auto loose =
      SimulateCacheBehavior(w.program, w.program.original_schedule(), {}, sim);
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(loose->block_reads, c.block_reads);
  EXPECT_EQ(loose->block_writes, c.block_writes);
  EXPECT_EQ(loose->evictions, 0);
  // The opportunistic ablation with unbounded memory reads each block at
  // most once; a tight cap must cost strictly more reads under LRU.
  sim.opportunistic = true;
  auto huge =
      SimulateCacheBehavior(w.program, w.program.original_schedule(), {}, sim);
  ASSERT_TRUE(huge.ok());
  sim.cap_bytes = c.peak_memory_bytes;
  auto tight =
      SimulateCacheBehavior(w.program, w.program.original_schedule(), {}, sim);
  ASSERT_TRUE(tight.ok());
  EXPECT_GT(tight->block_reads, huge->block_reads);
  EXPECT_GT(tight->evictions, 0);
  // Belady at the same cap never reads more than LRU.
  sim.policy = ReplacementKind::kScheduleOpt;
  auto opt =
      SimulateCacheBehavior(w.program, w.program.original_schedule(), {}, sim);
  ASSERT_TRUE(opt.ok());
  EXPECT_LE(opt->block_reads, tight->block_reads);
}

TEST(CacheSimTest, SimulationFailsBelowInstanceFootprint) {
  Workload w = MakeExample1(2, 2, 1);
  CacheSimOptions sim;
  sim.cap_bytes = w.program.array(0).BlockBytes();  // one frame: too small
  sim.opportunistic = true;
  auto r =
      SimulateCacheBehavior(w.program, w.program.original_schedule(), {}, sim);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(PlanRealizationTest, WWSaveRequiresMemoryServedReadsBetween) {
  // Realizing only s2WE->s2WE (without s2WE->s2RE) must NOT save the first
  // write, because the read between the two writes would see stale data.
  Workload w = MakeExample1(2, 2, 1);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  const CoAccess* ww = Find(a.sharing, w.program, "s2WE->s2WE");
  ASSERT_NE(ww, nullptr);
  auto s = solver.FindSchedule({ww});
  ASSERT_TRUE(s.has_value());
  // E is persistent, so a saved write of s2's E access can only be a W->W
  // save.
  ASSERT_TRUE(w.program.array(ww->array_id).persistent);
  auto saved_ww_sources = [&](const Schedule& sched,
                              const std::vector<const CoAccess*>& q) {
    size_t saved = 0;
    for (const BlockAccessRecord& rec :
         LowerPlan(w.program, sched, q).ValueOrDie().records) {
      if (rec.stmt_id == ww->src.stmt_id &&
          rec.access_idx == ww->src.access_idx && rec.saved) {
        ++saved;
      }
    }
    return saved;
  };
  EXPECT_EQ(saved_ww_sources(*s, {ww}), 0u);
  // With the companion W->R realized, the W->W saves kick in.
  const CoAccess* wr = Find(a.sharing, w.program, "s2WE->s2RE");
  auto s2 = solver.FindSchedule({ww, wr});
  ASSERT_TRUE(s2.has_value());
  EXPECT_GT(saved_ww_sources(*s2, {ww, wr}), 0u);
}

}  // namespace
}  // namespace riot
