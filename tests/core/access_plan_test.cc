// The block access script must be a faithful lowering of the plan:
// same access order as the engine's two-pass walk, saved/retention flags
// matching the realization, and read->write dependence positions that a
// prefetcher can trust.
#include "core/access_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "analysis/coaccess.h"
#include "core/schedule_solver.h"
#include "ops/workload.h"
#include "testing/reference_lowering.h"

namespace riot {
namespace {

const CoAccess* Find(const std::vector<CoAccess>& list, const Program& p,
                     const std::string& label) {
  for (const auto& ca : list) {
    if (ca.Label(p) == label) return &ca;
  }
  return nullptr;
}

TEST(AccessScriptTest, OrderedPerInstanceReadsThenWrite) {
  Workload w = MakeExample1(2, 3, 2);
  const AccessScript s =
      LowerPlan(w.program, w.program.original_schedule(), {}).ValueOrDie();

  ASSERT_EQ(s.per_pos.size(), s.order.size());
  ASSERT_EQ(s.group_of.size(), s.order.size());
  EXPECT_EQ(s.num_groups, s.group_of.back() + 1);
  size_t covered = 0;
  for (size_t pos = 0; pos < s.per_pos.size(); ++pos) {
    auto [begin, end] = s.per_pos[pos];
    EXPECT_EQ(begin, covered);
    bool seen_write = false;
    for (uint32_t i = begin; i < end; ++i) {
      const BlockAccessRecord& r = s.records[i];
      EXPECT_EQ(r.pos, pos);
      EXPECT_EQ(r.group, s.group_of[pos]);
      EXPECT_EQ(r.stmt_id, s.order[pos].stmt_id);
      if (r.type == AccessType::kWrite) {
        seen_write = true;
      } else {
        EXPECT_FALSE(seen_write) << "read after write within instance";
      }
      EXPECT_GT(r.bytes, 0);
    }
    covered = end;
  }
  EXPECT_EQ(covered, s.records.size());
  EXPECT_GT(s.max_instance_bytes, 0);
}

TEST(AccessScriptTest, SavedFlagsMatchRealization) {
  Workload w = MakeExample1(2, 3, 1);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  for (auto* o : q) ASSERT_NE(o, nullptr);
  auto sched = solver.FindSchedule(q);
  ASSERT_TRUE(sched.has_value());
  const AccessScript s = LowerPlan(w.program, *sched, q).ValueOrDie();

  size_t saved_reads = 0, saved_writes = 0;
  for (const auto& r : s.records) {
    if (r.type == AccessType::kRead && r.saved) ++saved_reads;
    if (r.type == AccessType::kWrite && r.saved) ++saved_writes;
  }
  const reference::RealizedPlan rp =
      reference::RealizePlan(w.program, *sched, q);
  EXPECT_EQ(saved_reads, rp.saved_reads.size());
  EXPECT_EQ(saved_writes, rp.saved_writes.size() + rp.elided_writes.size());

  // Every retention span's source position carries the retention.
  std::map<std::tuple<size_t, int, int64_t>, int64_t> want;
  for (const auto& span : s.spans) {
    auto key = std::make_tuple(span.begin_pos, span.array_id, span.block);
    want[key] = std::max(want.count(key) ? want[key] : int64_t{-1},
                         static_cast<int64_t>(span.end_group));
  }
  std::set<std::tuple<size_t, int, int64_t>> got;
  for (const auto& r : s.records) {
    if (r.retain_until_group < 0) continue;
    auto key = std::make_tuple(r.pos, r.array_id, r.block);
    auto it = want.find(key);
    ASSERT_NE(it, want.end());
    EXPECT_EQ(r.retain_until_group, it->second);
    got.insert(key);
  }
  EXPECT_EQ(got.size(), want.size());
}

TEST(AccessScriptTest, ReadDependsOnLatestEarlierWrite) {
  // Example1: s1 writes C[i,j]; s2 reads C[i,j] later. Every C-read record
  // must point at the position of the latest earlier C-write; A/B/D reads
  // (never written) carry no dependence.
  Workload w = MakeExample1(2, 2, 2);
  const AccessScript s =
      LowerPlan(w.program, w.program.original_schedule(), {}).ValueOrDie();

  std::map<std::pair<int, int64_t>, int64_t> last_write;
  for (const auto& r : s.records) {
    if (r.type == AccessType::kRead) {
      auto it = last_write.find({r.array_id, r.block});
      int64_t want = it == last_write.end() ? -1 : it->second;
      EXPECT_EQ(r.dep_pos, want)
          << "array " << r.array_id << " block " << r.block;
      if (want >= 0) EXPECT_LT(static_cast<size_t>(want), r.pos);
    } else {
      last_write[{r.array_id, r.block}] = static_cast<int64_t>(r.pos);
    }
  }
  // The C array (id 2) is written by s1 and re-read by s2: at least one
  // read record must carry a real dependence.
  bool any_dep = false;
  for (const auto& r : s.records) {
    if (r.type == AccessType::kRead && r.dep_pos >= 0) any_dep = true;
  }
  EXPECT_TRUE(any_dep);
}

// ---------------------------------------------------------------------------
// Instance dependence DAG (BuildInstanceDag): the partial order the parallel
// executor dispatches against.
// ---------------------------------------------------------------------------

// Transitive "p happens-before q" over the DAG (positions are topological).
std::vector<std::vector<bool>> Reachability(const InstanceDag& dag) {
  const size_t n = dag.succ.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (size_t p = n; p-- > 0;) {
    for (uint32_t s : dag.succ[p]) {
      reach[p][s] = true;
      for (size_t q = 0; q < n; ++q) {
        if (reach[s][q]) reach[p][q] = true;
      }
    }
  }
  return reach;
}

TEST(AccessScriptTest, KeepsRequiredBytesPerPosition) {
  Workload w = MakeExample1(2, 3, 2);
  const AccessScript s =
      LowerPlan(w.program, w.program.original_schedule(), {}).ValueOrDie();
  EXPECT_EQ(s.required_bytes,
            reference::RequiredBytesPerPosition(
                w.program, reference::RealizePlan(
                               w.program, w.program.original_schedule(), {})));
  EXPECT_EQ(s.required_bytes.size(), s.per_pos.size());
}

TEST(InstanceDagTest, EdgesForwardAndConsistent) {
  Workload w = MakeExample1(2, 3, 2);
  const AccessScript s =
      LowerPlan(w.program, w.program.original_schedule(), {}).ValueOrDie();
  InstanceDag dag = BuildInstanceDag(s);

  ASSERT_EQ(dag.succ.size(), s.order.size());
  ASSERT_EQ(dag.pred_count.size(), s.order.size());
  std::vector<uint32_t> indeg(s.order.size(), 0);
  for (size_t p = 0; p < dag.succ.size(); ++p) {
    for (size_t i = 0; i < dag.succ[p].size(); ++i) {
      uint32_t q = dag.succ[p][i];
      EXPECT_GT(q, p) << "edge must point forward";
      if (i > 0) EXPECT_GT(q, dag.succ[p][i - 1]) << "sorted, deduplicated";
      ++indeg[q];
    }
  }
  for (size_t q = 0; q < indeg.size(); ++q) {
    EXPECT_EQ(indeg[q], dag.pred_count[q]) << "pos " << q;
  }
  EXPECT_GE(dag.critical_path, 1u);
  EXPECT_GE(dag.max_width, 1u);
  EXPECT_LE(dag.critical_path * 1u, s.order.size());
}

TEST(InstanceDagTest, ClassicConflictsAreOrdered) {
  // Brute force over the script: any two instances touching the same block
  // with at least one kernel write must be ordered in the DAG.
  Workload w = MakeExample1(2, 2, 2);
  const AccessScript s =
      LowerPlan(w.program, w.program.original_schedule(), {}).ValueOrDie();
  InstanceDag dag = BuildInstanceDag(s);
  auto reach = Reachability(dag);

  size_t conflicts = 0;
  for (const auto& a : s.records) {
    for (const auto& b : s.records) {
      if (a.pos >= b.pos) continue;
      if (a.array_id != b.array_id || a.block != b.block) continue;
      if (a.type != AccessType::kWrite && b.type != AccessType::kWrite) {
        continue;
      }
      ++conflicts;
      EXPECT_TRUE(reach[a.pos][b.pos])
          << "unordered conflict: pos " << a.pos << " -> " << b.pos
          << " array " << a.array_id << " block " << a.block;
    }
  }
  EXPECT_GT(conflicts, 0u) << "example1 must have real dependences";
}

TEST(InstanceDagTest, SavedReadOrderedAfterMaterializer) {
  // Under a realized plan, every saved read must be ordered after the
  // access that brought its block into memory (last write or non-saved
  // read) — even when that materializer is itself a read (R->R sharing).
  Workload w = MakeExample1(2, 3, 1);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  for (auto* o : q) ASSERT_NE(o, nullptr);
  auto sched = solver.FindSchedule(q);
  ASSERT_TRUE(sched.has_value());
  const AccessScript s = LowerPlan(w.program, *sched, q).ValueOrDie();
  InstanceDag dag = BuildInstanceDag(s);
  auto reach = Reachability(dag);

  std::map<std::pair<int, int64_t>, int64_t> materializer;
  size_t saved_checked = 0;
  for (const auto& rec : s.records) {
    auto key = std::make_pair(rec.array_id, rec.block);
    if (rec.type == AccessType::kRead) {
      if (rec.saved) {
        auto it = materializer.find(key);
        ASSERT_NE(it, materializer.end()) << "saved read with no source";
        if (static_cast<size_t>(it->second) != rec.pos) {
          EXPECT_TRUE(reach[static_cast<size_t>(it->second)][rec.pos])
              << "saved read at pos " << rec.pos
              << " unordered after materializer at " << it->second;
          ++saved_checked;
        }
      } else {
        materializer[key] = static_cast<int64_t>(rec.pos);
      }
    } else {
      materializer[key] = static_cast<int64_t>(rec.pos);
    }
  }
  EXPECT_GT(saved_checked, 0u);
}

TEST(InstanceDagTest, IndependentInstancesExposeWidth) {
  // 2mm: instances with distinct output blocks and disjoint accumulation
  // chains are unordered — the DAG must expose real parallelism.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  const AccessScript s =
      LowerPlan(w.program, w.program.original_schedule(), {}).ValueOrDie();
  InstanceDag dag = BuildInstanceDag(s);
  EXPECT_GT(dag.max_width, 1u);
  EXPECT_LT(dag.critical_path, s.order.size());
}

}  // namespace
}  // namespace riot
