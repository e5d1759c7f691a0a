#ifndef RIOTSHARE_BENCH_BENCH_2MM_H_
#define RIOTSHARE_BENCH_BENCH_2MM_H_
// Shared driver for the two-matrix-multiplication experiment (paper
// Section 6.2, Table 3, Figures 4 and 5). Config A and Config B binaries
// differ only in the configuration passed to Run().
//
// Paper Section 6.2 background (Config A:
// Table 3, Figure 4). The paper's selected plans:
//   Plan 0: no sharing.
//   Plan 1: accumulate C and E in memory (both statements' W->R/W->W).
//   Plan 2: Plan 1 + fuse the nests, sharing the read of A (optimal here).
//   Plan 3: share B and D re-reads plus A across statements.
#include <cstdio>
#include <string>

#include "bench_common.h"

namespace riot {
namespace bench {
namespace {

inline void Run(TwoMatMulConfig config, const char* title, const char* optimal,
                int argc = 0, char** argv = nullptr) {
  std::printf("=== %s ===\n", title);
  const std::string bench_name =
      config == TwoMatMulConfig::kConfigA ? "fig4_2mm_a" : "fig5_2mm_b";
  BenchJson json(bench_name, argc, argv);
  Harness h(config == TwoMatMulConfig::kConfigA ? "fig4" : "fig5",
            [config](int64_t s) { return MakeTwoMatMul(config, s); });
  const auto& r = h.Optimize();
  const Program& p = h.paper_workload().program;
  h.PrintPlanSpace(12);
  std::printf("  (paper reports 40 plans under both configurations)\n\n");

  // The paper's four selected plans.
  struct Sel {
    const char* name;
    std::vector<std::string> labels;
  };
  std::vector<Sel> sels = {
      {"Plan 0 (no sharing)", {}},
      {"Plan 1 (accumulate C,E)",
       {"s1WC->s1RC", "s1WC->s1WC", "s2WE->s2RE", "s2WE->s2WE"}},
      {"Plan 2 (fuse, share A)",
       {"s1WC->s1RC", "s1WC->s1WC", "s2WE->s2RE", "s2WE->s2WE",
        "s1RA->s2RA"}},
      {"Plan 3 (share A,B,D)",
       {"s1RA->s2RA", "s1RB->s1RB", "s2RD->s2RD"}},
  };
  std::vector<PlanRun> runs;
  for (const auto& sel : sels) {
    int idx = h.PlanFor(sel.labels);
    if (idx < 0) {
      std::printf("  !! selected plan not found: %s\n", sel.name);
      continue;
    }
    runs.push_back(h.RunPlan(idx, sel.name));
    json.Add(sel.name, "plan", /*threads=*/1, /*pipeline_depth=*/0,
             runs.back().measured);
  }
  Harness::PrintRuns(runs);

  int best = r.best_index;
  std::printf("\noptimal plan: %d {%s}\n", best,
              r.plans[size_t(best)]
                  .DescribeOpportunities(p, r.analysis.sharing)
                  .c_str());
  std::printf("paper: %s is optimal under this configuration\n", optimal);

  // Parallel kernel dispatch: the compute-bound utilization story.
  RunThreadSweep(bench_name,
                 [config](int64_t s) { return MakeTwoMatMul(config, s); },
                 &json);
  json.Flush();
}

}  // namespace
}  // namespace bench
}  // namespace riot

#endif  // RIOTSHARE_BENCH_BENCH_2MM_H_
