// Ridge regression written as array expressions, end to end:
//
//   beta_l = (X'X + lambda_l I)^-1 X'y     for lambda in {2.5, 9.0}
//
// The point of the expression front end, in one example:
//   * the factory spells the full formula out twice (once per lambda) and
//     hash-consed CSE materializes the shared X'X and X'y exactly once;
//   * every intermediate (X'X, X'y, the regularized matrices, their
//     inverses) is a scratch temporary — non-persistent — so the
//     optimizer's write elision keeps them off disk when the schedule
//     allows;
//   * no kernels are written anywhere: the executor synthesizes them from
//     the statements' typed ops.
#include <cmath>
#include <cstdio>

#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

int main() {
  using namespace riot;
  // Scale 200: X is 16 blocks of 150 x 15 (2400 observations, 15
  // predictors); y has 2 response columns.
  Workload w = MakeRidge(/*scale=*/200);
  w.program.Validate().CheckOK();
  std::printf("%s\n", w.program.ToString().c_str());
  std::printf("8 statements for two lambdas — X'X and X'y appear once "
              "each (10 without CSE)\n\n");

  OptimizationResult r = Optimize(w.program);
  const Plan& best = r.best();
  std::printf("best plan {%s}\n",
              best.DescribeOpportunities(w.program, r.analysis.sharing)
                  .c_str());
  std::printf("predicted I/O: %.2f MB (%.2f MB written) vs %.2f MB "
              "(%.2f MB written) unoptimized — the write gap is the "
              "scratch temporaries never touching disk\n\n",
              best.cost.TotalBytes() / 1e6, best.cost.write_bytes / 1e6,
              r.plans[0].cost.TotalBytes() / 1e6,
              r.plans[0].cost.write_bytes / 1e6);

  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/ridge");
  rt.status().CheckOK();
  InitInputs(w, *rt, /*seed=*/2026).CheckOK();
  std::vector<const CoAccess*> q;
  for (int oi : best.opportunities) {
    q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
  }
  ExecOptions eo;
  eo.memory_cap_bytes = best.cost.peak_memory_bytes;
  Executor ex(w.program, rt->raw(), w.kernels, eo);
  auto stats = ex.Run(best.schedule, q);
  stats.status().CheckOK();
  std::printf("executed: read %.2f MB, wrote %.2f MB (predicted %.2f), "
              "peak mem %.2f MB\n\n",
              stats->bytes_read / 1e6, stats->bytes_written / 1e6,
              best.cost.write_bytes / 1e6,
              stats->peak_required_bytes / 1e6);

  // Model summary: coefficient norms shrink as lambda grows.
  for (size_t li = 0; li < w.output_arrays.size(); ++li) {
    const int arr = w.output_arrays[li];
    const ArrayInfo& info = w.program.array(arr);
    auto beta = ReadWholeArray(info, rt->stores[static_cast<size_t>(arr)]
                                         .get());
    if (!beta.ok()) {
      std::fprintf(stderr, "failed to read %s back: %s\n",
                   info.name.c_str(), beta.status().ToString().c_str());
      return 1;
    }
    double norm = 0;
    for (double v : *beta) norm += v * v;
    std::printf("lambda %s: ||beta|| = %.5f\n", li == 0 ? "2.5" : "9.0",
                std::sqrt(norm));
  }
  return 0;
}
