// E7 (DESIGN.md): optimization time and search-space pruning for the
// evaluation programs (paper Section 6, "A Note on Optimization Time":
// 0.6 s / 2.1 s / 156.7 s in single-threaded Python; 94% of the linear
// regression search space pruned), and that optimization time is
// independent of data scale.
//
//   bench_opt_time              the report above
//   bench_opt_time --json PATH  one uncapped search per program at paper
//                               scale, written to PATH (BENCH_opt.json):
//                               FindSchedule calls, skips, cliques, LP
//                               calls and the best plan, then search
//                               seconds at 1 and 4 threads and the
//                               one-thread phase split
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "ops/workload.h"

namespace riot {
namespace {

void Report(const char* name, Workload w, double paper_seconds) {
  OptimizationResult r = Optimize(w.program);
  double total_space = 1.0;
  for (size_t i = 0; i < r.analysis.sharing.size(); ++i) total_space *= 2.0;
  double explored = static_cast<double>(r.candidates_tested);
  std::printf("%-10s opps=%2zu  tested=%4lld  pruned-frac=%5.1f%%  "
              "plans=%3zu  time=%6.2fs  (paper: %.1fs in Python)\n",
              name, r.analysis.sharing.size(),
              static_cast<long long>(r.candidates_tested),
              100.0 * (1.0 - explored / total_space), r.plans.size(),
              r.optimize_seconds, paper_seconds);
}

void Run() {
  std::printf("=== Optimization time (paper Section 6 notes) ===\n");
  Report("addmul", MakeAddMul(1), 0.6);
  Report("twomm_a", MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1), 2.1);
  Report("twomm_b", MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1), 2.1);
  Report("linreg", MakeLinReg(1), 156.7);

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

struct SearchConfig {
  const char* program;
  Workload (*make)();
};

Workload AddMulPaper() { return MakeAddMul(1); }
Workload TwoMmAPaper() {
  return MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1);
}
Workload TwoMmBPaper() {
  return MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1);
}
Workload CovariancePaper() { return MakeCovariance(1); }
Workload RidgePaper() { return MakeRidge(1); }
Workload LinRegPaper() { return MakeLinReg(1); }
Workload ChainPaper() { return MakeElementwiseChain(1); }

OptimizationResult SearchAt(const Program& program, size_t threads) {
  OptimizerOptions opts;
  opts.num_threads = threads;
  return Optimize(program, opts);
}

int RunJson(const char* path) {
  const std::vector<SearchConfig> configs = {
      {"addmul", AddMulPaper},         {"twomm_a", TwoMmAPaper},
      {"twomm_b", TwoMmBPaper},        {"covariance", CovariancePaper},
      {"ridge", RidgePaper},           {"linreg", LinRegPaper},
      {"chain", ChainPaper},
  };
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"opt\",\n  \"runs\": [\n");
  std::printf("%-10s %4s %5s %5s %5s %5s %6s %5s %6s %6s %12s %9s %7s %7s\n",
              "program", "opps", "calls", "cert", "infs", "clqs", "lps",
              "plans", "reads", "writes", "peak_B", "pred_io_s", "1t_s",
              "4t_s");
  for (size_t i = 0; i < configs.size(); ++i) {
    const SearchConfig& c = configs[i];
    Workload w = c.make();
    // Counts and plans are the same at any thread count; LP calls are
    // taken at one thread, where no call is speculative.
    const OptimizationResult r = SearchAt(w.program, 1);
    const double four_s = SearchAt(w.program, 4).optimize_seconds;
    const Plan& best = r.best();
    std::printf("%-10s %4zu %5lld %5lld %5lld %5lld %6lld %5zu %6lld %6lld "
                "%12lld %9.1f %7.3f %7.3f\n",
                c.program, r.analysis.sharing.size(),
                static_cast<long long>(r.candidates_tested),
                static_cast<long long>(r.certified_skips),
                static_cast<long long>(r.infeasible_skips),
                static_cast<long long>(r.cliques),
                static_cast<long long>(r.lp_calls), r.plans.size(),
                static_cast<long long>(best.cost.block_reads),
                static_cast<long long>(best.cost.block_writes),
                static_cast<long long>(best.cost.peak_memory_bytes),
                best.cost.io_seconds, r.optimize_seconds, four_s);
    std::fprintf(
        f,
        "    {\"program\": \"%s\", \"opportunities\": %zu,\n"
        "     \"find_schedule_calls\": %lld, \"certified_skips\": %lld, "
        "\"infeasible_skips\": %lld, \"schedules_found\": %lld, "
        "\"cliques\": %lld, \"lp_calls\": %lld, \"plans\": %zu,\n"
        "     \"best_block_reads\": %lld, \"best_block_writes\": %lld, "
        "\"best_bytes\": %lld, \"best_peak_bytes\": %lld, "
        "\"best_q_size\": %zu, \"best_pred_io_s\": %.4f,\n"
        "     \"search_s_1t\": %.4f, \"search_s_4t\": %.4f, "
        "\"analysis_s\": %.4f, \"find_schedule_s\": %.4f, "
        "\"costing_s\": %.4f}%s\n",
        c.program, r.analysis.sharing.size(),
        static_cast<long long>(r.candidates_tested),
        static_cast<long long>(r.certified_skips),
        static_cast<long long>(r.infeasible_skips),
        static_cast<long long>(r.schedules_found),
        static_cast<long long>(r.cliques),
        static_cast<long long>(r.lp_calls), r.plans.size(),
        static_cast<long long>(best.cost.block_reads),
        static_cast<long long>(best.cost.block_writes),
        static_cast<long long>(best.cost.TotalBytes()),
        static_cast<long long>(best.cost.peak_memory_bytes),
        best.opportunities.size(), best.cost.io_seconds, r.optimize_seconds,
        four_s, r.analysis_seconds, r.find_schedule_seconds,
        r.costing_seconds,
        i + 1 < configs.size() ? "," : "");
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
