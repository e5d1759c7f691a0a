// Mutation tests for the plan-integrity linter: start from known-good
// programs/plans, break exactly one invariant, and assert the specific
// LintReport diagnostic fires — plus the complementary direction, that the
// unmutated originals lint clean (the fuzzer-corpus hook in
// tests/integration/random_program_test.cc covers false positives at
// scale).
#include "analysis/program_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "core/access_plan.h"
#include "core/lowering.h"
#include "ir/builder.h"
#include "ir/program.h"
#include "ir/scalar_ops.h"

namespace riot {
namespace {

// C = A * B over an n x n block grid with a guarded k-accumulation: the
// canonical op-specced statement every mutation starts from.
Program Matmul(int64_t n, bool guard_acc = true) {
  Program p;
  for (const char* name : {"A", "B", "C"}) {
    ArrayInfo a;
    a.name = name;
    a.grid = {n, n};
    a.block_elems = {4, 4};
    p.AddArray(a);
  }
  Statement st;
  st.name = "s1";
  st.iters = {"i", "j", "k"};
  st.domain = RectDomain({{0, n - 1}, {0, n - 1}, {0, n - 1}}, st.iters);
  st.accesses.push_back(Read(0, {{1, 0, 0, 0}, {0, 0, 1, 0}}));
  st.accesses.push_back(Read(1, {{0, 0, 1, 0}, {0, 1, 0, 0}}));
  Access acc = Read(2, {{1, 0, 0, 0}, {0, 1, 0, 0}});
  if (guard_acc) acc.guard = GuardGe(st.domain, 2, 1);
  st.accesses.push_back(std::move(acc));
  st.accesses.push_back(Write(2, {{1, 0, 0, 0}, {0, 1, 0, 0}}));
  StatementOp op;
  op.kind = StatementOp::Kind::kGemm;
  op.a = 0;
  op.b = 1;
  op.acc = 2;
  op.out = 3;
  op.reduction_iter = 2;
  st.op = op;
  p.AddStatement(std::move(st), 0, 0);
  return p;
}

// s1 writes C, s2 reads it: one RAW pair, single instance each.
Program WriteThenRead(bool persistent_c = true) {
  Program p;
  ArrayInfo c;
  c.name = "C";
  c.grid = {2, 2};
  c.block_elems = {4, 4};
  c.persistent = persistent_c;
  p.AddArray(c);
  ArrayInfo d = c;
  d.name = "D";
  d.persistent = true;
  p.AddArray(d);
  Statement s1;
  s1.name = "s1";
  s1.iters = {"i", "j"};
  s1.domain = RectDomain({{0, 0}, {0, 0}}, s1.iters);
  s1.accesses.push_back(Write(0, {{1, 0, 0}, {0, 1, 0}}));
  p.AddStatement(std::move(s1), 0, 0);
  Statement s2;
  s2.name = "s2";
  s2.iters = {"i", "j"};
  s2.domain = RectDomain({{0, 0}, {0, 0}}, s2.iters);
  s2.accesses.push_back(Read(0, {{1, 0, 0}, {0, 1, 0}}));
  s2.accesses.push_back(Write(1, {{1, 0, 0}, {0, 1, 0}}));
  p.AddStatement(std::move(s2), 1, 0);
  return p;
}

struct Lowered {
  AccessScript script;
  InstanceDag dag;
};

Lowered Lower(const Program& p) {
  Lowered l;
  l.script = LowerPlan(p, p.original_schedule(), {}).ValueOrDie();
  l.dag = BuildInstanceDag(l.script);
  return l;
}

TEST(ProgramLintTest, CleanMatmulPassesBothLevels) {
  Program p = Matmul(2);
  ASSERT_TRUE(p.Validate().ok());
  auto prog = LintProgram(p);
  ASSERT_TRUE(prog.ok());
  EXPECT_TRUE(prog->ok()) << prog->ToString();
  auto plan = LintPlan(p, p.original_schedule(), {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->ok()) << plan->ToString();
  EXPECT_EQ(plan->instances_checked, 8u);
  EXPECT_TRUE(plan->dag_cross_checked);
}

TEST(ProgramLintTest, DroppedAccumulatorGuardIsFlagged) {
  auto report = LintProgram(Matmul(2, /*guard_acc=*/false));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kUnguardedAccumulator))
      << report->ToString();
}

TEST(ProgramLintTest, GuardNotExcludingReductionStartIsFlagged) {
  Program p = Matmul(2);
  // k >= 0 admits the reduction-start iterations the kernel initializes at.
  Statement st = p.statements()[0];
  Program q;
  for (const auto& a : p.arrays()) q.AddArray(a);
  st.accesses[2].guard = GuardGe(st.domain, 2, 0);
  q.AddStatement(std::move(st), 0, 0);
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kUnguardedAccumulator))
      << report->ToString();
}

TEST(ProgramLintTest, ShiftedSubscriptOutOfGridIsFlagged) {
  Program p = Matmul(2);
  Statement st = p.statements()[0];
  // Shift A's row subscript by the grid extent: i + 2 over grid {2, 2}.
  std::vector<std::vector<int64_t>> rows = {{1, 0, 0, 2}, {0, 0, 1, 0}};
  st.accesses[0] = Read(0, rows);
  Program q;
  for (const auto& a : p.arrays()) q.AddArray(a);
  q.AddStatement(std::move(st), 0, 0);
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kSubscriptOutOfGrid))
      << report->ToString();
}

TEST(ProgramLintTest, NegativeSubscriptIsFlagged) {
  Program p = Matmul(2);
  Statement st = p.statements()[0];
  std::vector<std::vector<int64_t>> rows = {{1, 0, 0, -1}, {0, 0, 1, 0}};
  st.accesses[0] = Read(0, rows);
  Program q;
  for (const auto& a : p.arrays()) q.AddArray(a);
  q.AddStatement(std::move(st), 0, 0);
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kSubscriptOutOfGrid))
      << report->ToString();
}

TEST(ProgramLintTest, OpArityMismatchIsFlagged) {
  {
    Program p = Matmul(2);
    Statement st = p.statements()[0];
    st.op->b = -1;  // gemm is binary
    Program q;
    for (const auto& a : p.arrays()) q.AddArray(a);
    q.AddStatement(std::move(st), 0, 0);
    auto report = LintProgram(q);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->Has(LintCode::kOpArityMismatch))
        << report->ToString();
  }
  {
    Program p = Matmul(2);
    Statement st = p.statements()[0];
    st.op->out = 0;  // names a read access
    Program q;
    for (const auto& a : p.arrays()) q.AddArray(a);
    q.AddStatement(std::move(st), 0, 0);
    auto report = LintProgram(q);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->Has(LintCode::kOpArityMismatch))
        << report->ToString();
  }
  {
    Program p = Matmul(2);
    Statement st = p.statements()[0];
    // Accumulator no longer aliases the write (reads A instead of C).
    st.accesses[2].array_id = 0;
    Program q;
    for (const auto& a : p.arrays()) q.AddArray(a);
    q.AddStatement(std::move(st), 0, 0);
    auto report = LintProgram(q);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->Has(LintCode::kOpArityMismatch))
        << report->ToString();
  }
}

TEST(ProgramLintTest, EmptyDomainIsFlagged) {
  Program p;
  ArrayInfo a;
  a.name = "A";
  a.grid = {2, 2};
  a.block_elems = {4, 4};
  p.AddArray(a);
  Statement st;
  st.name = "s1";
  st.iters = {"i", "j"};
  st.domain = RectDomain({{0, 1}, {1, 0}}, st.iters);  // j in [1, 0]: empty
  st.accesses.push_back(Write(0, {{1, 0, 0}, {0, 1, 0}}));
  p.AddStatement(std::move(st), 0, 0);
  auto report = LintProgram(p);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kEmptyDomain)) << report->ToString();
}

TEST(ProgramLintTest, MalformedAccessShapeIsFlagged) {
  Program p;
  ArrayInfo a;
  a.name = "A";
  a.grid = {2, 2};
  a.block_elems = {4, 4};
  p.AddArray(a);
  Statement st;
  st.name = "s1";
  st.iters = {"i", "j"};
  st.domain = RectDomain({{0, 1}, {0, 1}}, st.iters);
  st.accesses.push_back(Write(0, {{1, 0, 0}}));  // 1 row for a 2-D array
  p.AddStatement(std::move(st), 0, 0);
  auto report = LintProgram(p);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedAccess)) << report->ToString();
}

TEST(ProgramLintTest, ReadOfUnwrittenScratchIsUseBeforeDef) {
  Program p;
  ArrayInfo t;
  t.name = "T";
  t.grid = {2, 2};
  t.block_elems = {4, 4};
  t.persistent = false;  // scratch: no defined on-disk contents
  p.AddArray(t);
  ArrayInfo o = t;
  o.name = "O";
  o.persistent = true;
  p.AddArray(o);
  Statement st;
  st.name = "s1";
  st.iters = {"i", "j"};
  st.domain = RectDomain({{0, 1}, {0, 1}}, st.iters);
  st.accesses.push_back(Read(0, {{1, 0, 0}, {0, 1, 0}}));
  st.accesses.push_back(Write(1, {{1, 0, 0}, {0, 1, 0}}));
  p.AddStatement(std::move(st), 0, 0);
  ASSERT_TRUE(LintProgram(p)->ok());
  auto report = LintPlan(p, p.original_schedule(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kUseBeforeDef)) << report->ToString();
  // The same program over a persistent (input) array is legal.
  Program q = WriteThenRead();
  auto clean = LintPlan(q, q.original_schedule(), {});
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->ok()) << clean->ToString();
}

TEST(ProgramLintTest, ElidedWriteLaterReadFromDiskIsFlagged) {
  Program p = WriteThenRead();
  Lowered l = Lower(p);
  // Mutate the lowered script: pretend the realization elided s1's write
  // while s2 still reads the block from disk.
  bool mutated = false;
  for (BlockAccessRecord& rec : l.script.records) {
    if (rec.type == AccessType::kWrite && rec.array_id == 0) {
      rec.saved = true;
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  auto report = LintScript(p, l.script, l.dag);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kElidedWriteRead)) << report->ToString();
}

TEST(ProgramLintTest, BogusDepPosIsFlagged) {
  Program p = WriteThenRead();
  Lowered l = Lower(p);
  bool mutated = false;
  for (BlockAccessRecord& rec : l.script.records) {
    if (rec.type == AccessType::kRead && rec.dep_pos >= 0) {
      rec.dep_pos = static_cast<int64_t>(rec.pos);  // not strictly earlier
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  auto report = LintScript(p, l.script, l.dag);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kBadDepPos)) << report->ToString();
}

TEST(ProgramLintTest, DeletedDagEdgeIsFlagged) {
  Program p = WriteThenRead();
  Lowered l = Lower(p);
  // The only dependence is s1's write -> s2's read (positions 0 -> 1).
  ASSERT_EQ(l.dag.succ.size(), 2u);
  ASSERT_FALSE(l.dag.succ[0].empty());
  auto clean = LintScript(p, l.script, l.dag);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->ok()) << clean->ToString();
  // Delete the edge (and its in-degree) — the RAW pair is now unordered.
  l.dag.succ[0].clear();
  l.dag.pred_count[1] = 0;
  auto report = LintScript(p, l.script, l.dag);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMissingDagEdge)) << report->ToString();
  EXPECT_TRUE(report->dag_cross_checked);
}

TEST(ProgramLintTest, InconsistentPredCountIsFlagged) {
  Program p = WriteThenRead();
  Lowered l = Lower(p);
  l.dag.pred_count[1] += 1;  // bookkeeping no edge backs
  auto report = LintScript(p, l.script, l.dag);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kDagInconsistent)) << report->ToString();
}

TEST(ProgramLintTest, InstanceCapSkipsBruteForceOnly) {
  Program p = Matmul(2);
  Lowered l = Lower(p);
  LintOptions opts;
  opts.max_dag_instances = 4;  // below the 8 instances
  auto report = LintScript(p, l.script, l.dag, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_FALSE(report->dag_cross_checked);
  EXPECT_EQ(report->instances_checked, 8u);
}

// ---- Fused-tape mutations ------------------------------------------------
// Start from a clean fused program (a real LowerExpr chain), break exactly
// one tape invariant, and assert kMalformedTape fires.

// Z = max(relu(2 * (X + Y) - Y), Y) * 3-ish: one compound statement with a
// load-dedup, a scale, a map, and a zip on the tape.
Program FusedChain() {
  ExprGraph g;
  ExprRef x = g.Input("X", {2, 2}, {4, 4});
  ExprRef y = g.Input("Y", {2, 2}, {4, 4});
  ExprRef t = g.Add(x, y);
  t = g.Scale(t, 2.0);
  t = g.Sub(t, y);
  t = g.Map(t, kScalarRelu);
  t = g.Zip(t, y, kScalarMax);
  LoweredExpr lo = LowerExpr(g, {t}).ValueOrDie();
  EXPECT_EQ(lo.program.statements().size(), 1u);
  EXPECT_EQ(lo.program.statement(0).op->kind, StatementOp::Kind::kFused);
  return lo.program;
}

// Rebuild the program with statement 0's op mutated by `mutate`.
Program MutateFusedOp(const Program& p,
                      const std::function<void(StatementOp*)>& mutate) {
  Program q;
  for (const auto& a : p.arrays()) q.AddArray(a);
  Statement st = p.statements()[0];
  mutate(&*st.op);
  q.AddStatement(std::move(st), 0, 0);
  return q;
}

TEST(ProgramLintTest, CleanFusedChainLintsClean) {
  Program p = FusedChain();
  ASSERT_TRUE(p.Validate().ok());
  auto report = LintProgram(p);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
  auto plan = LintPlan(p, p.original_schedule(), {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->ok()) << plan->ToString();
}

TEST(ProgramLintTest, EmptyTapeIsFlagged) {
  Program q = MutateFusedOp(FusedChain(),
                            [](StatementOp* op) { op->tape.clear(); });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, TapeOperandFromTheFutureIsFlagged) {
  // A compute op referencing its own (or a later) position breaks the
  // post-order contract the interpreter relies on.
  Program q = MutateFusedOp(FusedChain(), [](StatementOp* op) {
    for (TapeOp& t : op->tape) {
      if (t.code == TapeOp::Code::kAdd) {
        t.a = static_cast<int>(op->tape.size()) - 1;
      }
    }
  });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, TapeLoadNamingWriteAccessIsFlagged) {
  Program q = MutateFusedOp(FusedChain(), [](StatementOp* op) {
    op->tape[0].a = op->out;  // loads must name read accesses
  });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, TapeUnaryOpWithSecondOperandIsFlagged) {
  Program q = MutateFusedOp(FusedChain(), [](StatementOp* op) {
    for (TapeOp& t : op->tape) {
      if (t.code == TapeOp::Code::kScale) t.b = 0;
    }
  });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, TapeMapWithZipFnIsFlagged) {
  // kScalarMax is a zip; a map op naming it must be rejected before kernel
  // synthesis would dereference a null map pointer.
  Program q = MutateFusedOp(FusedChain(), [](StatementOp* op) {
    for (TapeOp& t : op->tape) {
      if (t.code == TapeOp::Code::kMap) t.scalar_fn = kScalarMax;
    }
  });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, TapeUnconsumedReadIsFlagged) {
  // Redirect the zip's load of Y onto X's tape position: the Y read access
  // remains on the statement but nothing consumes it — paid I/O feeding
  // nothing.
  Program q = MutateFusedOp(FusedChain(), [](StatementOp* op) {
    int first_load = -1;
    for (size_t i = 0; i < op->tape.size(); ++i) {
      if (op->tape[i].code != TapeOp::Code::kLoad) continue;
      if (first_load < 0) {
        first_load = op->tape[static_cast<size_t>(i)].a;
      } else {
        op->tape[i].a = first_load;
      }
    }
  });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, TapeOnNonFusedKindIsFlagged) {
  Program q = MutateFusedOp(FusedChain(), [](StatementOp* op) {
    // Keep the tape but claim to be a plain elementwise op.
    op->kind = StatementOp::Kind::kAdd;
    op->a = 0;
    op->b = 1;
  });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, FusedWithAccumulatorIsFlagged) {
  Program q = MutateFusedOp(FusedChain(), [](StatementOp* op) {
    op->acc = 0;  // fused statements are pure elementwise
  });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kMalformedTape)) << report->ToString();
}

TEST(ProgramLintTest, ZipStatementWithoutSecondOperandIsFlagged) {
  // A singleton kZip statement missing `b` trips the binary arity check.
  ExprGraph g;
  ExprRef x = g.Input("X", {2, 2}, {4, 4});
  ExprRef y = g.Input("Y", {2, 2}, {4, 4});
  ExprRef out = g.Zip(x, y, kScalarMin);
  LowerOptions off;
  off.fuse = false;
  LoweredExpr lo = LowerExpr(g, {out}, off).ValueOrDie();
  Program q = MutateFusedOp(lo.program, [](StatementOp* op) { op->b = -1; });
  auto report = LintProgram(q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(LintCode::kOpArityMismatch)) << report->ToString();
}

}  // namespace
}  // namespace riot
