// Pig/relational-style workload tests: FILTER + block nested-loop join
// (paper Section 4.1 generality claim).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"
#include "testing/reference_search.h"

namespace riot {
namespace {

// Quantized keys so the equi-join has matches; key 0 never occurs in R/S
// (it marks filtered tuples).
Status InitRelations(const Workload& w, const Runtime& rt, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int id : w.input_arrays) {
    const ArrayInfo& arr = w.program.array(id);
    std::vector<double> buf(static_cast<size_t>(arr.ElemsPerBlock()));
    for (int64_t b = 0; b < arr.NumBlocks(); ++b) {
      DenseView v{buf.data(), arr.block_elems[0], arr.block_elems[1]};
      for (int64_t row = 0; row < v.rows; ++row) {
        // Keys in {-3..-1, 1..5}; R side will filter keys <= 0.
        int64_t key = static_cast<int64_t>(rng() % 9) - 3;
        if (key >= 0) key += 1;
        v.At(row, 0) = static_cast<double>(key);
        v.At(row, 1) = static_cast<double>(rng() % 100);
      }
      RIOT_RETURN_NOT_OK(
          rt.stores[static_cast<size_t>(id)]->WriteBlock(b, buf.data()));
    }
  }
  return Status::OK();
}

TEST(JoinFilterTest, SharingOpportunitiesIncludePipelineAndReuse) {
  Workload w = MakeJoinFilter(3, 4);
  ASSERT_TRUE(w.program.Validate().ok());
  AnalysisResult a = AnalyzeProgram(w.program);
  std::set<std::string> labels;
  for (const auto& o : a.sharing) labels.insert(o.Label(w.program));
  EXPECT_TRUE(labels.count("s1WU->s2RU"));  // pipeline FILTER into JOIN
  EXPECT_TRUE(labels.count("s2RU->s2RU"));  // reuse U across j
  EXPECT_TRUE(labels.count("s2RS->s2RS"));  // reuse S across i
}

TEST(JoinFilterTest, JoinCountsMatchBruteForce) {
  const int64_t nr = 3, ns = 4, rows = 16;
  Workload w = MakeJoinFilter(nr, ns, rows);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/jf");
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(InitRelations(w, *rt, 77).ok());

  Executor ex(w.program, rt->raw(), w.kernels);
  auto stats = ex.Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Brute force from the raw relations.
  auto r_data = ReadWholeArray(w.program.array(0), rt->stores[0].get())
                    .ValueOrDie();
  auto s_data = ReadWholeArray(w.program.array(2), rt->stores[2].get())
                    .ValueOrDie();
  auto t_data = ReadWholeArray(w.program.array(3), rt->stores[3].get())
                    .ValueOrDie();
  const ArrayInfo& rel = w.program.array(0);
  const ArrayInfo& t_info = w.program.array(3);
  for (int64_t i = 0; i < nr; ++i) {
    for (int64_t j = 0; j < ns; ++j) {
      double expect = 0;
      for (int64_t a = 0; a < rows; ++a) {
        double key = r_data[static_cast<size_t>(i * rel.ElemsPerBlock() + a)];
        if (key <= 0) continue;  // FILTER drops non-positive keys
        for (int64_t b = 0; b < rows; ++b) {
          double skey =
              s_data[static_cast<size_t>(j * rel.ElemsPerBlock() + b)];
          if (skey == key) expect += 1;
        }
      }
      double got =
          t_data[static_cast<size_t>(t_info.LinearBlockIndex({i, j}))];
      EXPECT_EQ(got, expect) << "T[" << i << "," << j << "]";
    }
  }
}

TEST(JoinFilterTest, OptimizedPlansEquivalentAndExact) {
  // Every feasible set's plan (the Apriori oracle's), then the plan the
  // optimizer chooses.
  Workload w = MakeJoinFilter(3, 3);
  OptimizationResult r = reference::AprioriSearch(w.program);
  r.plans.push_back(Optimize(w.program).best());
  EXPECT_GE(r.plans.size(), 4u);
  auto env = NewMemEnv();
  auto ref = OpenStores(env.get(), w.program, "/ref");
  ASSERT_TRUE(InitRelations(w, *ref, 5).ok());
  {
    Executor ex(w.program, ref->raw(), w.kernels);
    ASSERT_TRUE(ex.Run(w.program.original_schedule(), {}).ok());
  }
  for (size_t pi = 1; pi < r.plans.size(); ++pi) {
    const Plan& plan = r.plans[pi];
    auto rt = OpenStores(env.get(), w.program, "/p" + std::to_string(pi));
    ASSERT_TRUE(InitRelations(w, *rt, 5).ok());
    std::vector<const CoAccess*> q;
    for (int oi : plan.opportunities) {
      q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
    }
    ExecOptions eo;
    eo.memory_cap_bytes = plan.cost.peak_memory_bytes;
    Executor ex(w.program, rt->raw(), w.kernels, eo);
    auto stats = ex.Run(plan.schedule, q);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->bytes_read, plan.cost.read_bytes);
    EXPECT_EQ(stats->bytes_written, plan.cost.write_bytes);
    auto diff = MaxAbsDifference(w.program.array(3), ref->stores[3].get(),
                                 rt->stores[3].get());
    EXPECT_EQ(*diff, 0.0);
  }
}

TEST(JoinFilterTest, BestPlanPipelinesFilteredRelation) {
  // The filtered intermediate U should never be materialized when the best
  // plan pipelines it into the join's first outer iteration and keeps it.
  Workload w = MakeJoinFilter(4, 4);
  OptimizationResult r = Optimize(w.program);
  const Plan& best = r.best();
  EXPECT_LT(best.cost.TotalBytes(), r.plans[0].cost.TotalBytes());
  std::set<std::string> labels;
  for (int oi : best.opportunities) {
    labels.insert(r.analysis.sharing[static_cast<size_t>(oi)].Label(w.program));
  }
  EXPECT_TRUE(labels.count("s1WU->s2RU") || labels.count("s2RU->s2RU"))
      << "best plan should exploit U somehow: "
      << best.DescribeOpportunities(w.program, r.analysis.sharing);
}

}  // namespace
}  // namespace riot
