// E6 (DESIGN.md): linear regression, the paper's complete 7-step program
// (Section 6.3, Table 4, Figure 6). Paper headline: the best plan uses only
// 6.0% more memory than the unoptimized plan but saves 43.8% of I/O time
// (27.0% total runtime), by sharing the reads of X between the two
// out-of-core multiplications and eliminating intermediate materialization.
//
// Paper selected plans: Plan 0 (original), Plan 1 (keep U and V in memory
// during the accumulations), Plan 2 (best: Plan 1 + share X reads +
// eliminate Yhat/E materialization).
#include <cstdio>

#include "bench_common.h"

namespace riot {
namespace bench {
namespace {

void Run(int argc, char** argv) {
  std::printf("=== Figure 6 / Table 4: linear regression (7 steps) ===\n");
  BenchJson json("fig6_linreg", argc, argv);
  Harness h("fig6", MakeLinReg);
  OptimizerOptions opts;
  // The paper's machine has 8 GB; plans beyond that are not selectable.
  opts.memory_cap_bytes = int64_t{8000} * 1000 * 1000;
  const auto& r = h.Optimize(opts);
  const Program& p = h.paper_workload().program;
  std::printf("paper: 16 sharing opportunities, optimization 156.7 s "
              "(Python), 94%% of the search space pruned\n");
  std::printf("ours:  %zu opportunities, optimization %.1f s (C++)\n\n",
              r.analysis.sharing.size(), r.optimize_seconds);

  // Paper's selected plans. Plan 1 is the exact "keep U and V in memory
  // during the multiplication" set.
  int plan0 = 0;
  int plan1 = h.PlanFor({"s1WU->s1RU", "s1WU->s1WU", "s2WV->s2RV",
                         "s2WV->s2WV"});
  // Paper's best: +6% memory over plan 0. Our search also finds cheaper
  // higher-memory plans; the best plan within 1.10x plan 0's memory stands
  // for it, and should share X and skip writing Yhat and E.
  double mem0 = r.plans[0].cost.peak_memory_bytes / 1e6;
  OptimizerOptions envelope;
  envelope.memory_cap_bytes = static_cast<int64_t>(mem0 * 1.10 * 1e6);
  const OptimizationResult re = riot::Optimize(p, envelope);
  int plan2 = re.best_index == 0 ? -1 : h.AddPlan(re.best());
  if (plan2 >= 0) {
    std::printf("paper-envelope plan {%s}\n",
                re.best().DescribeOpportunities(p, re.analysis.sharing)
                    .c_str());
  }
  std::vector<PlanRun> runs;
  runs.push_back(h.RunPlan(plan0, "Plan 0 (original)"));
  if (plan1 >= 0) runs.push_back(h.RunPlan(plan1, "Plan 1 (pin U,V)"));
  if (plan2 >= 0) runs.push_back(h.RunPlan(plan2, "Plan 2 (share X, elim)"));
  int best = r.best_index;
  if (best != plan2 && best != plan1 && best != 0) {
    runs.push_back(h.RunPlan(best, "our best (8GB cap)"));
  }
  for (const PlanRun& run : runs) {
    json.Add(run.label, "plan", /*threads=*/1, /*pipeline_depth=*/0,
             run.measured);
  }
  Harness::PrintRuns(runs);

  if (plan2 >= 0) {
    const PlanCost& c0 = r.plans[0].cost;
    const PlanCost& c2 = r.plans[size_t(plan2)].cost;
    std::printf("\npaper: best plan = +6.0%% memory, -43.8%% I/O time\n");
    std::printf("ours (paper-envelope plan): %+.1f%% memory, %+.1f%% I/O\n",
                100.0 * (double(c2.peak_memory_bytes) /
                             double(c0.peak_memory_bytes) - 1.0),
                100.0 * (c2.io_seconds / c0.io_seconds - 1.0));
    const PlanCost& cb = r.plans[size_t(best)].cost;
    std::printf("ours (unrestricted best under 8 GB): %+.1f%% memory, "
                "%+.1f%% I/O {%s}\n",
                100.0 * (double(cb.peak_memory_bytes) /
                             double(c0.peak_memory_bytes) - 1.0),
                100.0 * (cb.io_seconds / c0.io_seconds - 1.0),
                r.plans[size_t(best)]
                    .DescribeOpportunities(p, r.analysis.sharing)
                    .c_str());
  }

  RunThreadSweep("fig6_linreg", MakeLinReg, &json);
  json.Flush();
}

}  // namespace
}  // namespace bench
}  // namespace riot

int main(int argc, char** argv) {
  riot::bench::Run(argc, argv);
  return 0;
}
