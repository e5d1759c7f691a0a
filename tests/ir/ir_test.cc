#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/int_affine.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "ops/workload.h"

namespace riot {
namespace {

TEST(ArrayInfoTest, SizesAndLinearization) {
  ArrayInfo a;
  a.name = "A";
  a.grid = {3, 4};
  a.block_elems = {10, 20};
  EXPECT_EQ(a.ElemsPerBlock(), 200);
  EXPECT_EQ(a.BlockBytes(), 1600);
  EXPECT_EQ(a.NumBlocks(), 12);
  EXPECT_EQ(a.TotalBytes(), 12 * 1600);
  EXPECT_EQ(a.LinearBlockIndex({0, 0}), 0);
  EXPECT_EQ(a.LinearBlockIndex({1, 2}), 6);
  EXPECT_EQ(a.LinearBlockIndex({2, 3}), 11);
}

TEST(AccessTest, BlockAtAppliesAffineMap) {
  // Phi maps (i,j,k) -> (i, k) like C[i,k] in Example 1's s2.
  Access a = Read(0, {{1, 0, 0, 0}, {0, 0, 1, 0}});
  EXPECT_EQ(a.BlockAt({2, 5, 3}), (BlockCoord{2, 3}));
  // With constants: A[i+1, 2].
  Access b = Read(0, {{1, 0, 0, 1}, {0, 0, 0, 2}});
  EXPECT_EQ(b.BlockAt({2, 5, 3}), (BlockCoord{3, 2}));
}

TEST(AccessTest, GuardControlsActivation) {
  Polyhedron dom = RectDomain({{0, 4}});
  Access a = Read(0, {{1, 0}});
  a.guard = GuardGe(dom, 0, 1);  // active iff k >= 1
  EXPECT_FALSE(a.ActiveAt({0}));
  EXPECT_TRUE(a.ActiveAt({1}));
  EXPECT_TRUE(a.ActiveAt({4}));
}

TEST(ScheduleTest, TimeOfAndCompare) {
  RMatrix m(2, 3);  // rows over (i, k, 1)
  m.At(0, 0) = Rational(1);   // t0 = i
  m.At(1, 1) = Rational(-1);  // t1 = -k + 5
  m.At(1, 2) = Rational(5);
  Schedule s({m});
  EXPECT_EQ(s.TimeOf(0, {2, 3}), (TimeVector{2, 2}));
  EXPECT_EQ(CompareTime({1, 2}, {1, 3}), -1);
  EXPECT_EQ(CompareTime({2, 0}, {1, 9}), 1);
  EXPECT_EQ(CompareTime({1, 2}, {1, 2}), 0);
}

TEST(ProgramTest, OriginalScheduleOrdersNestsSequentially) {
  Workload w = MakeExample1(2, 2, 2);
  const Program& p = w.program;
  auto order = p.ScheduledOrder(p.original_schedule());
  // All s1 instances before all s2 instances.
  bool seen_s2 = false;
  for (const auto& inst : order) {
    if (inst.stmt_id == 1) seen_s2 = true;
    if (seen_s2) EXPECT_EQ(inst.stmt_id, 1);
  }
  EXPECT_EQ(order.size(), 4u + 8u);
}

TEST(ProgramTest, OriginalScheduleIsLoopOrder) {
  Workload w = MakeExample1(2, 3, 2);
  const Program& p = w.program;
  auto order = p.ScheduledOrder(p.original_schedule());
  // s1 instances come in lexicographic (i,k) order.
  std::vector<std::vector<int64_t>> s1_iters;
  for (const auto& inst : order) {
    if (inst.stmt_id == 0) s1_iters.push_back(inst.iter);
  }
  for (size_t i = 1; i < s1_iters.size(); ++i) {
    EXPECT_LT(s1_iters[i - 1], s1_iters[i]);
  }
}

TEST(ProgramTest, ValidateCatchesBadAccess) {
  Program p;
  ArrayInfo a;
  a.name = "A";
  a.grid = {2, 2};
  a.block_elems = {4, 4};
  int aid = p.AddArray(a);
  Statement s;
  s.name = "s";
  s.iters = {"i"};
  s.domain = RectDomain({{0, 3}});  // i up to 3, but grid only 2 wide
  s.accesses.push_back(Read(aid, {{1, 0}, {0, 0}}));
  p.AddStatement(std::move(s), 0, 0);
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ProgramTest, ValidateRejectsFractionalAccessMap) {
  // A[i/2, 0]: not an integer block at odd i. Validate used to abort in
  // Rational::ToInt64; it returns a Status naming the statement and array.
  Program p;
  ArrayInfo a;
  a.name = "Arr";
  a.grid = {2, 2};
  a.block_elems = {4, 4};
  int aid = p.AddArray(a);
  Statement s;
  s.name = "half";
  s.iters = {"i"};
  s.domain = RectDomain({{0, 3}});
  Access acc;
  acc.type = AccessType::kRead;
  acc.array_id = aid;
  acc.phi = RMatrix(2, 2);
  acc.phi.At(0, 0) = Rational(1, 2);
  s.accesses.push_back(acc);
  p.AddStatement(std::move(s), 0, 0);
  const Status st = p.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("half"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("Arr"), std::string::npos) << st.message();
}

TEST(IntAffineTest, ScaledGuardMatchesPolyhedronContains) {
  // Rational guard rows: i/2 - 1 >= 0, i/3 - 2j/5 + 1/7 >= 0 and
  // i/2 - j/2 + 1/2 >= 0. After LCM scaling the integer rows must give the
  // same membership as the Rational reference at every point of a box.
  Polyhedron g(2);
  g.AddGe(RVector{Rational(1, 2), Rational(0)}, Rational(-1));
  g.AddGe(RVector{Rational(1, 3), Rational(-2, 5)}, Rational(1, 7));
  g.AddGe(RVector{Rational(1, 2), Rational(-1, 2)}, Rational(1, 2));
  Polyhedron eq(2);
  eq.AddEq(RVector{Rational(2, 3), Rational(-1, 3)}, Rational(0));
  for (const Polyhedron* p : {&g, &eq}) {
    auto compiled = IntGuard::Compile(*p);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    int inside_count = 0;
    for (int64_t i = -12; i <= 12; ++i) {
      for (int64_t j = -12; j <= 12; ++j) {
        const std::vector<int64_t> x = {i, j};
        bool inside = false;
        ASSERT_EQ(compiled->Contains(x.data(), &inside), IntEval::kOk);
        EXPECT_EQ(inside, p->Contains(x)) << i << "," << j;
        inside_count += inside ? 1 : 0;
      }
    }
    EXPECT_GT(inside_count, 0);
  }
}

TEST(IntAffineTest, MapValuesAreExactOrAnError) {
  RMatrix m(2, 3);
  m.At(0, 0) = Rational(1, 2);
  m.At(0, 1) = Rational(1, 2);  // (i + j) / 2
  m.At(1, 2) = Rational(7);
  auto map = IntAffineMap::Compile(m);
  ASSERT_TRUE(map.ok());
  int64_t out[2] = {0, 0};
  const int64_t even[2] = {3, 5};
  ASSERT_EQ(map->Apply(even, out), IntEval::kOk);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 7);
  const int64_t odd[2] = {3, 4};
  EXPECT_EQ(map->Apply(odd, out), IntEval::kNotInteger);
  const int64_t huge[2] = {INT64_MAX, 1};
  EXPECT_EQ(map->Apply(huge, out), IntEval::kOverflow);
}

TEST(ProgramTest, ValidateAcceptsWorkloads) {
  EXPECT_TRUE(MakeExample1(2, 2, 2).program.Validate().ok());
  EXPECT_TRUE(MakeAddMul(40).program.Validate().ok());
  EXPECT_TRUE(MakeAddMulTall(40).program.Validate().ok());
  EXPECT_TRUE(
      MakeTwoMatMul(TwoMatMulConfig::kConfigA, 40).program.Validate().ok());
  EXPECT_TRUE(
      MakeTwoMatMul(TwoMatMulConfig::kConfigB, 40).program.Validate().ok());
  EXPECT_TRUE(MakeLinReg(40).program.Validate().ok());
}

TEST(ProgramTest, AccessLabels) {
  Workload w = MakeExample1(2, 2, 1);
  EXPECT_EQ(w.program.AccessLabel({0, 0}), "s1RA");
  EXPECT_EQ(w.program.AccessLabel({0, 2}), "s1WC");
  EXPECT_EQ(w.program.AccessLabel({1, 3}), "s2WE");
}

TEST(ProgramTest, MaxDepth) {
  EXPECT_EQ(MakeExample1(2, 2, 2).program.MaxDepth(), 3u);
  EXPECT_EQ(MakeLinReg(40).program.MaxDepth(), 1u);
}

TEST(ProgramTest, ScheduledOrderDeterministicTieBreak) {
  // Under the original schedule all times are unique; ScheduledOrder must be
  // stable across calls.
  Workload w = MakeExample1(3, 3, 2);
  auto a = w.program.ScheduledOrder(w.program.original_schedule());
  auto b = w.program.ScheduledOrder(w.program.original_schedule());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stmt_id, b[i].stmt_id);
    EXPECT_EQ(a[i].iter, b[i].iter);
  }
}

}  // namespace
}  // namespace riot
