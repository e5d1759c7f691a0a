// End-to-end integration tests: optimize Example 1 (and variants), execute
// every legal plan against real block stores, and verify that
//   (1) every optimized plan produces the same output as the original
//       schedule (semantic preservation),
//   (2) executed I/O volume matches the cost model prediction exactly,
//   (3) the executed memory requirement matches the predicted peak, and
//   (4) plans run within their predicted memory cap.
#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace {

class EndToEndTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(EndToEndTest, AllPlansAgreeWithOriginalAndPrediction) {
  auto [n1, n2, n3] = GetParam();
  Workload w = MakeExample1(n1, n2, n3);
  ASSERT_TRUE(w.program.Validate().ok());

  OptimizerOptions opts;
  OptimizationResult result = Optimize(w.program, opts);
  ASSERT_GE(result.plans.size(), 2u) << "expected at least one sharing plan";

  auto env = NewMemEnv();

  // Reference run: plan 0 (original schedule).
  auto ref_rt = OpenStores(env.get(), w.program, "/ref");
  ASSERT_TRUE(ref_rt.ok());
  ASSERT_TRUE(InitInputs(w, *ref_rt, /*seed=*/7).ok());
  {
    Executor ex(w.program, ref_rt->raw(), w.kernels);
    auto stats = ex.Run(w.program.original_schedule(), {});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }

  for (size_t pi = 1; pi < result.plans.size(); ++pi) {
    const Plan& plan = result.plans[pi];
    SCOPED_TRACE("plan " + std::to_string(pi) + ": " +
                 plan.DescribeOpportunities(w.program,
                                            result.analysis.sharing));
    auto rt = OpenStores(env.get(), w.program, "/p" + std::to_string(pi));
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(InitInputs(w, *rt, /*seed=*/7).ok());

    std::vector<const CoAccess*> q;
    for (int oi : plan.opportunities) {
      q.push_back(&result.analysis.sharing[static_cast<size_t>(oi)]);
    }
    ExecOptions eo;
    // Run under exactly the predicted memory requirement: a correct plan
    // must fit.
    eo.memory_cap_bytes = plan.cost.peak_memory_bytes;
    Executor ex(w.program, rt->raw(), w.kernels, eo);
    auto stats = ex.Run(plan.schedule, q);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    // (2) exact I/O volume match.
    EXPECT_EQ(stats->bytes_read, plan.cost.read_bytes);
    EXPECT_EQ(stats->bytes_written, plan.cost.write_bytes);
    EXPECT_EQ(stats->block_reads, plan.cost.block_reads);
    EXPECT_EQ(stats->block_writes, plan.cost.block_writes);
    // (3) memory requirement match.
    EXPECT_EQ(stats->peak_required_bytes, plan.cost.peak_memory_bytes);

    // (1) identical outputs.
    for (int arr : w.output_arrays) {
      auto diff = MaxAbsDifference(
          w.program.array(arr),
          ref_rt->stores[static_cast<size_t>(arr)].get(),
          rt->stores[static_cast<size_t>(arr)].get());
      ASSERT_TRUE(diff.ok());
      EXPECT_LE(*diff, 1e-9) << "output mismatch in array "
                             << w.program.array(arr).name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EndToEndTest,
    ::testing::Values(std::make_tuple(3, 4, 1), std::make_tuple(3, 4, 2),
                      std::make_tuple(2, 2, 3), std::make_tuple(4, 3, 2),
                      std::make_tuple(1, 5, 2), std::make_tuple(2, 6, 1)));

TEST(EndToEndBestPlan, Example1BestPlanBeatsOriginal) {
  Workload w = MakeExample1(6, 6, 1);
  OptimizationResult result = Optimize(w.program);
  const Plan& best = result.best();
  const Plan& original = result.plans[0];
  EXPECT_LT(best.cost.TotalBytes(), original.cost.TotalBytes());
  // Paper Section 6.1: the best plan realizes s1WC->s2RC, s2WE->s2RE and
  // s2WE->s2WE (n3 = 1 leaves no s2RC->s2RC opportunity).
  EXPECT_EQ(best.opportunities.size(), 3u);
}

}  // namespace
}  // namespace riot
