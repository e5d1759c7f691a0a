// Replacement-policy soak on a real workload (stress-labeled; the CI ASan
// leg runs it with replacement=opt instrumented): the 2mm program executes
// under the opportunistic-cache ablation across policies and shrinking
// caps. Every configuration must produce bit-for-bit the serial reference
// outputs, match the cache simulator's predicted reads/evictions exactly,
// and respect the Belady ordering — ScheduleOpt never reads more than LRU
// at any cap, and strictly fewer somewhere below the working set.
#include <gtest/gtest.h>

#include <map>

#include "core/cost_model.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace {

TEST(ReplacementStressTest, PolicyCapSweepExactAndBeladyOrdered) {
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/500);
  auto env = NewMemEnv();

  // Serial plan-exact reference outputs.
  auto ref_rt = OpenStores(env.get(), w.program, "/ref");
  ASSERT_TRUE(ref_rt.ok());
  ASSERT_TRUE(InitInputs(w, *ref_rt, 33).ok());
  {
    Executor ex(w.program, ref_rt->raw(), w.kernels);
    auto st = ex.Run(w.program.original_schedule(), {});
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }

  // The ablation's working set: with an effectively unbounded cache every
  // block is read once; caps below total_bytes create pressure.
  const PlanCost unshared =
      EvaluatePlanCost(w.program, w.program.original_schedule(), {});
  int64_t total_bytes = 0;
  for (size_t a = 0; a < w.program.arrays().size(); ++a) {
    total_bytes += w.program.array(static_cast<int>(a)).BlockBytes() *
                   w.program.array(static_cast<int>(a)).NumBlocks();
  }
  ASSERT_GT(total_bytes, 0);
  ASSERT_GT(unshared.peak_memory_bytes, 0);

  bool opt_strictly_better_somewhere = false;
  int run_idx = 0;
  for (const int64_t cap :
       {total_bytes, total_bytes / 2, total_bytes / 4, total_bytes / 8}) {
    if (cap < unshared.peak_memory_bytes) continue;  // below instance needs
    std::map<ReplacementKind, int64_t> reads;
    for (const ReplacementKind kind :
         {ReplacementKind::kLru, ReplacementKind::kScheduleOpt}) {
      SCOPED_TRACE("cap " + std::to_string(cap) + " policy " +
                   ReplacementKindName(kind));
      auto rt = OpenStores(env.get(), w.program,
                           "/r" + std::to_string(run_idx++));
      ASSERT_TRUE(rt.ok());
      ASSERT_TRUE(InitInputs(w, *rt, 33).ok());
      ExecOptions eo;
      eo.mode = ExecMode::kOpportunisticCache;
      eo.memory_cap_bytes = cap;
      eo.replacement = kind;
      Executor ex(w.program, rt->raw(), w.kernels, eo);
      auto stats = ex.Run(w.program.original_schedule(), {});
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      reads[kind] = stats->block_reads;

      // The cost model's cache simulator must predict this run exactly.
      CacheSimOptions sim;
      sim.policy = kind;
      sim.cap_bytes = cap;
      sim.opportunistic = true;
      auto predicted = SimulateCacheBehavior(
          w.program, w.program.original_schedule(), {}, sim);
      ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
      EXPECT_EQ(predicted->block_reads, stats->block_reads);
      EXPECT_EQ(predicted->block_writes, stats->block_writes);
      EXPECT_EQ(predicted->evictions, stats->pool.evictions);
      EXPECT_EQ(predicted->hits, stats->pool.hits);
      EXPECT_EQ(predicted->misses, stats->pool.misses);
      EXPECT_EQ(predicted->policy_saved_reads, stats->policy_saved_reads);

      // Same math under every policy and cap.
      for (int arr : w.output_arrays) {
        const ArrayInfo& info = w.program.array(arr);
        auto d = MaxAbsDifference(
            info, ref_rt->stores[static_cast<size_t>(arr)].get(),
            rt->stores[static_cast<size_t>(arr)].get());
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(*d, 0.0) << info.name;
      }
    }
    EXPECT_LE(reads[ReplacementKind::kScheduleOpt],
              reads[ReplacementKind::kLru])
        << "Belady lost to LRU at cap " << cap;
    if (cap < total_bytes &&
        reads[ReplacementKind::kScheduleOpt] <
            reads[ReplacementKind::kLru]) {
      opt_strictly_better_somewhere = true;
    }
  }
  EXPECT_TRUE(opt_strictly_better_somewhere)
      << "no cap below the working set showed an OPT-vs-LRU read gap";
}

}  // namespace
}  // namespace riot
