// The border search against the exhaustive Apriori oracle on the two paper
// programs whose exhaustive search takes minutes: ridge (15 opportunities,
// 32,767 candidates) and linreg (17, about 16,000). Stress-labelled. The
// per-plan checks of ExpectSearchMatchesReference are left to the smaller
// programs and the corpus: here they would lower every one of those sets
// about eight times over.
#include <gtest/gtest.h>

#include "ops/workload.h"
#include "testing/reference_search.h"

namespace riot {
namespace {

TEST(SearchStressTest, RidgeMatchesAprioriOracle) {
  reference::ExpectSearchMatchesReference(MakeRidge(100).program,
                                          {1.0, 0.9, 0.75},
                                          /*check_plans=*/false);
}

TEST(SearchStressTest, LinRegMatchesAprioriOracle) {
  reference::ExpectSearchMatchesReference(MakeLinReg(100).program,
                                          {1.0, 0.9, 0.75},
                                          /*check_plans=*/false);
}

}  // namespace
}  // namespace riot
