// Ordinary least squares over out-of-core data (paper Section 6.3):
//   U = X'X; V = X'Y; W = U^-1; beta = W V; Yhat = X beta; E = Y - Yhat;
//   RSS(E)
// Runs the full 7-step pipeline at a reduced scale, optimized end to end,
// and prints the fitted-model summary.
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
  // Scale 200: X is 25 blocks of 300 x 20 (7500 observations, 20
  // predictors, 2 response columns).
  Workload w = MakeLinReg(/*scale=*/200);
  w.program.Validate().CheckOK();

  OptimizationResult r = Optimize(w.program);
  const Plan& best = r.best();
  std::printf("tested %lld candidate sharing sets; best plan {%s}\n",
              static_cast<long long>(r.candidates_tested),
              best.DescribeOpportunities(w.program, r.analysis.sharing)
                  .c_str());
  std::printf("predicted I/O: %.2f MB vs %.2f MB unoptimized\n\n",
              best.cost.TotalBytes() / 1e6,
              r.plans[0].cost.TotalBytes() / 1e6);

  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/lr");
  rt.status().CheckOK();
  InitInputs(w, *rt, /*seed=*/2026).CheckOK();
  std::vector<const CoAccess*> q;
  for (int oi : best.opportunities) {
    q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
  }
  Executor ex(w.program, rt->raw(), w.kernels);
  auto stats = ex.Run(best.schedule, q);
  stats.status().CheckOK();
  std::printf("executed: read %.2f MB, wrote %.2f MB, compute %.3f s\n\n",
              stats->bytes_read / 1e6, stats->bytes_written / 1e6,
              stats->compute_seconds);

  // Model summary: beta column norms and per-response RSS.
  const ArrayInfo& beta_info = w.program.array(5);
  const ArrayInfo& rss_info = w.program.array(8);
  auto beta_or = ReadWholeArray(beta_info, rt->stores[5].get());
  auto rss_or = ReadWholeArray(rss_info, rt->stores[8].get());
  if (!beta_or.ok() || !rss_or.ok()) {
    std::fprintf(stderr, "failed to read model back: %s\n",
                 (!beta_or.ok() ? beta_or.status() : rss_or.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  const std::vector<double>& beta = *beta_or;
  const std::vector<double>& rss = *rss_or;
  const int64_t m = beta_info.block_elems[0];
  const int64_t k = beta_info.block_elems[1];
  for (int64_t c = 0; c < k; ++c) {
    double norm = 0;
    for (int64_t f = 0; f < m; ++f) {
      double b = beta[static_cast<size_t>(c * m + f)];
      norm += b * b;
    }
    std::printf("response %lld: ||beta|| = %8.4f, RSS = %10.4f\n",
                static_cast<long long>(c), std::sqrt(norm),
                rss[static_cast<size_t>(c)]);
  }
  return 0;
}
