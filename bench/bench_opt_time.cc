// E7 (DESIGN.md): optimization time and search-space pruning for the three
// evaluation programs (paper Section 6, "A Note on Optimization Time":
// 0.6 s / 2.1 s / 156.7 s in single-threaded Python; 94% of the linear
// regression search space pruned). Also ablates Apriori pruning against
// exhaustive power-set enumeration and shows that optimization time is
// independent of data scale.
//
//   bench_opt_time              the report above (uncapped: linreg's search
//                               takes minutes)
//   bench_opt_time --json PATH  the perfbench search configurations only
//                               (paper_io's and plan_search's programs at
//                               their combination caps), written to PATH
//                               (BENCH_opt.json): search counts and the
//                               best plan's I/O first, then per-phase times
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "ops/workload.h"

namespace riot {
namespace {

constexpr size_t kNoCap = std::numeric_limits<size_t>::max();

void Report(const char* name, Workload w, double paper_seconds,
            bool ablate_apriori) {
  OptimizerOptions opts;
  OptimizationResult r = Optimize(w.program, opts);
  double total_space = 1.0;
  for (size_t i = 0; i < r.analysis.sharing.size(); ++i) total_space *= 2.0;
  double explored = static_cast<double>(r.candidates_tested);
  std::printf("%-10s opps=%2zu  tested=%6lld  pruned-frac=%5.1f%%  "
              "plans=%6zu  time=%7.2fs  (paper: %.1fs in Python)\n",
              name, r.analysis.sharing.size(),
              static_cast<long long>(r.candidates_tested),
              100.0 * (1.0 - explored / total_space), r.plans.size(),
              r.optimize_seconds, paper_seconds);
  if (ablate_apriori) {
    OptimizerOptions ex;
    ex.use_apriori = false;
    OptimizationResult re = Optimize(w.program, ex);
    std::printf("  ablation: exhaustive enumeration tested %lld candidates "
                "in %.2fs (Apriori: %lld in %.2fs, same %zu plans)\n",
                static_cast<long long>(re.candidates_tested),
                re.optimize_seconds,
                static_cast<long long>(r.candidates_tested),
                r.optimize_seconds, r.plans.size());
  }
}

void Run() {
  std::printf("=== Optimization time (paper Section 6 notes) ===\n");
  Report("addmul", MakeAddMul(1), 0.6, /*ablate_apriori=*/true);
  Report("twomm_a", MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1), 2.1, true);
  Report("twomm_b", MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1), 2.1, false);
  Report("linreg", MakeLinReg(1), 156.7, false);

  // Scale independence: "optimization time for the same program does not
  // change with the scale of the dataset."
  std::printf("\nscale independence (addmul):\n");
  for (int64_t scale : {1, 10, 40}) {
    OptimizationResult r = Optimize(MakeAddMul(scale).program);
    std::printf("  scale 1/%-3lld -> %.3f s, %zu plans\n",
                static_cast<long long>(scale), r.optimize_seconds,
                r.plans.size());
  }
}

// One paper-scale search of perfbench (perfbench/bench_workloads.cc): the
// program, its combination cap and the workloads that search it so.
struct SearchConfig {
  const char* program;
  Workload (*make)();
  size_t cap;
  const char* workloads;
};

Workload AddMulPaper() { return MakeAddMul(1); }
Workload TwoMmAPaper() {
  return MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1);
}
Workload CovariancePaper() { return MakeCovariance(1); }
Workload RidgePaper() { return MakeRidge(1); }
Workload LinRegPaper() { return MakeLinReg(1); }
Workload ChainPaper() { return MakeElementwiseChain(1); }

// perfbench's worker count for plan search (kLoadThreads).
constexpr size_t kSearchThreads = 4;

int RunJson(const char* path) {
  const std::vector<SearchConfig> configs = {
      {"addmul", AddMulPaper, kNoCap, "paper_io plan_search"},
      {"twomm_a", TwoMmAPaper, kNoCap, "paper_io"},
      {"twomm_a", TwoMmAPaper, 2, "plan_search"},
      {"covariance", CovariancePaper, kNoCap, "paper_io"},
      {"covariance", CovariancePaper, 3, "plan_search"},
      {"ridge", RidgePaper, 1, "plan_search"},
      {"linreg", LinRegPaper, 2, "paper_io"},
      {"linreg", LinRegPaper, 1, "plan_search"},
      {"chain", ChainPaper, kNoCap, "paper_io"},
  };
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"opt\",\n  \"num_threads\": %zu,\n"
               "  \"runs\": [\n", kSearchThreads);
  std::printf("%-10s %4s %6s %6s %6s %6s %6s %7s %6s %6s %12s %9s %8s "
              "%8s\n",
              "program", "cap", "tested", "found", "closur", "dropd",
              "plans", "reals", "reads", "writes", "peak_B", "pred_io_s",
              "opt_s", "clos_shr");
  for (size_t i = 0; i < configs.size(); ++i) {
    const SearchConfig& c = configs[i];
    Workload w = c.make();
    OptimizerOptions opts;
    opts.num_threads = kSearchThreads;
    opts.max_combination_size = c.cap;
    const OptimizationResult r = Optimize(w.program, opts);
    const Plan& best = r.best();
    const double phases = r.analysis_seconds + r.find_schedule_seconds +
                          r.closure_seconds + r.costing_seconds;
    const double closure_share =
        phases > 0 ? r.closure_seconds / phases : 0.0;
    const long long cap = c.cap == kNoCap ? -1 : static_cast<long long>(c.cap);
    std::printf("%-10s %4lld %6lld %6lld %6lld %6lld %6zu %7lld %6lld %6lld "
                "%12lld %9.1f %8.3f %8.3f\n",
                c.program, cap, static_cast<long long>(r.candidates_tested),
                static_cast<long long>(r.schedules_found),
                static_cast<long long>(r.closure_plans),
                static_cast<long long>(r.closures_dropped), r.plans.size(),
                static_cast<long long>(r.realizes_calls),
                static_cast<long long>(best.cost.block_reads),
                static_cast<long long>(best.cost.block_writes),
                static_cast<long long>(best.cost.peak_memory_bytes),
                best.cost.io_seconds, r.optimize_seconds, closure_share);
    std::fprintf(
        f,
        "    {\"program\": \"%s\", \"cap\": %lld, \"workloads\": \"%s\",\n"
        "     \"opportunities\": %zu, \"candidates_tested\": %lld, "
        "\"candidates_pruned\": %lld, \"schedules_found\": %lld, "
        "\"closure_plans\": %lld, \"closures_dropped\": %lld, "
        "\"realizes_calls\": %lld, \"plans\": %zu,\n"
        "     \"best_block_reads\": %lld, \"best_block_writes\": %lld, "
        "\"best_bytes\": %lld, \"best_peak_bytes\": %lld, "
        "\"best_q_size\": %zu, \"best_is_closure\": %s, "
        "\"best_pred_io_s\": %.4f,\n"
        "     \"optimize_s\": %.4f, \"analysis_s\": %.4f, "
        "\"find_schedule_s\": %.4f, \"closure_s\": %.4f, "
        "\"costing_s\": %.4f, \"closure_share\": %.4f}%s\n",
        c.program, cap, c.workloads, r.analysis.sharing.size(),
        static_cast<long long>(r.candidates_tested),
        static_cast<long long>(r.candidates_pruned),
        static_cast<long long>(r.schedules_found),
        static_cast<long long>(r.closure_plans),
        static_cast<long long>(r.closures_dropped),
        static_cast<long long>(r.realizes_calls), r.plans.size(),
        static_cast<long long>(best.cost.block_reads),
        static_cast<long long>(best.cost.block_writes),
        static_cast<long long>(best.cost.TotalBytes()),
        static_cast<long long>(best.cost.peak_memory_bytes),
        best.opportunities.size(), best.closure_of >= 0 ? "true" : "false",
        best.cost.io_seconds, r.optimize_seconds, r.analysis_seconds,
        r.find_schedule_seconds, r.closure_seconds, r.costing_seconds,
        closure_share, i + 1 < configs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace riot

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return riot::RunJson(argv[i + 1]);
  }
  riot::Run();
  return 0;
}
