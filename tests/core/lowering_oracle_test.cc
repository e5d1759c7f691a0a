// Differential oracle for the single integer lowering pass: LowerPlan must
// reproduce the Rational three-sweep reference (tests/testing) field for
// field on every paper program, for the original schedule, for the best
// plan, and for the best schedule with its sharing set dropped (the
// opportunistic ablation's lowering).
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "ops/workload.h"
#include "testing/reference_lowering.h"

namespace riot {
namespace {

struct Case {
  std::string name;
  std::function<Workload()> make;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class LoweringOracle : public ::testing::TestWithParam<Case> {};

TEST_P(LoweringOracle, MatchesReferenceFieldForField) {
  const Workload w = GetParam().make();
  ASSERT_TRUE(w.program.Validate().ok());
  {
    SCOPED_TRACE("original schedule");
    reference::ExpectLoweringMatchesReference(
        w.program, w.program.original_schedule(), {});
  }
  const OptimizationResult r = Optimize(w.program);
  std::vector<const CoAccess*> q;
  for (int oi : r.best().opportunities) {
    q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
  }
  {
    SCOPED_TRACE("best plan: " +
                 r.best().DescribeOpportunities(w.program, r.analysis.sharing));
    reference::ExpectLoweringMatchesReference(w.program, r.best().schedule, q);
  }
  {
    SCOPED_TRACE("best schedule, no sharing");
    reference::ExpectLoweringMatchesReference(w.program, r.best().schedule,
                                              {});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, LoweringOracle,
    ::testing::Values(
        Case{"addmul", [] { return MakeAddMul(100); }},
        Case{"twomm_a",
             [] { return MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1000); }},
        Case{"twomm_b",
             [] { return MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1000); }},
        Case{"covariance", [] { return MakeCovariance(1000); }},
        Case{"ridge", [] { return MakeRidge(100); }},
        Case{"linreg", [] { return MakeLinReg(100); }},
        Case{"chain", [] { return MakeElementwiseChain(1000); }},
        Case{"example1", [] { return MakeExample1(3, 4, 2); }},
        Case{"joinfilter", [] { return MakeJoinFilter(4, 4); }}),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

}  // namespace
}  // namespace riot
