// The RIOTShare optimizer (paper Section 5): finds feasible sets of sharing
// opportunities, a legal schedule for each (FindSchedule, Algorithm 3),
// costs the plans and selects the cheapest whose memory fits the cap.
//
// Feasibility is downward closed (Lemma 2), and a plan's I/O depends on its
// set alone and never grows with it, so with no cap the optimum is a
// maximal feasible set. The search finds that border exactly, as
// maximal-itemset miners do (Max-Miner, Dualize and Advance): it tests each
// singleton and pair, then each maximal clique of the feasible-pair graph
// (Bron-Kerbosch), descending one opportunity at a time from each that
// fails. A found schedule's *closure* (every opportunity
// ScheduleSolver::Realizes accepts under it) certifies its subsets, so a set
// inside a known closure, or holding a known infeasible set, takes no
// solver call. Sets are decided in order as if one at a time; the workers
// test a step ahead and drop results an earlier set made moot, so the
// result is the same at any thread count. The plans are plan 0 (the original
// schedule) and each maximal closure under its schedule.
//
// Under a cap those miss, the search descends from the maximal closures,
// cheapest set first, costing a set under the known schedules that realize
// it and calling FindSchedule only when none fits. A subset never does less
// I/O, so the first set that fits is added as the best plan. None fits
// below plan 0's peak, the largest instance footprint.
#ifndef RIOTSHARE_CORE_OPTIMIZER_H_
#define RIOTSHARE_CORE_OPTIMIZER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/coaccess.h"
#include "core/cost_model.h"
#include "core/schedule_solver.h"
#include "ir/program.h"
#include "ir/schedule.h"

namespace riot {

struct OptimizerOptions {
  /// Memory cap for plan selection; plans above the cap stay in the result
  /// but are not eligible as "best".
  int64_t memory_cap_bytes = std::numeric_limits<int64_t>::max();
  /// Multi-tenant hint: the number of sessions expected to share the
  /// buffer pool `memory_cap_bytes` describes. With N > 1 the optimizer
  /// selects plans against the per-session slice (cap / N), so a plan is
  /// only called "fitting" when it fits the memory the session runtime
  /// will actually grant it, not the whole pool.
  int concurrent_sessions = 1;
  /// 0 = the original plan only, with no search. Other values are ignored
  /// (the search is exact); kept for callers that still set it.
  size_t max_combination_size = std::numeric_limits<size_t>::max();
  /// Worker threads for FindSchedule calls. 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Measure this host's kernel throughput (CalibrateKernelRates, once per
  /// process, cached) and rank plans by io + compute seconds instead of
  /// I/O alone. Off by default: calibration costs ~calibrate_budget_ms of
  /// wall time on first use and makes plan choice host-dependent, which
  /// differential tests pin down by leaving it off. A caller that already
  /// set `cost.compute` keeps its own table.
  bool calibrate_compute_rates = false;
  int calibrate_budget_ms = 200;
  /// Worker count the calibration sweep contends at — set it to the
  /// executor's `exec_threads` so the compute term prices instances at the
  /// per-worker rate they will actually see (bandwidth-bound classes
  /// degrade under siblings; a solo-measured rate is optimistic). Tables
  /// are cached per worker count, measured once per process each.
  int calibrate_exec_threads = 1;
  CostModelOptions cost;
  AnalysisOptions analysis;
  SolverOptions solver;
};

/// \brief One legal execution plan: a schedule realizing a specific set of
/// sharing opportunities, with its evaluated cost.
struct Plan {
  std::vector<int> opportunities;  // indices into OptimizationResult sharing
  Schedule schedule;
  PlanCost cost;

  std::string DescribeOpportunities(const Program& p,
                                    const std::vector<CoAccess>& o) const;
};

struct OptimizationResult {
  AnalysisResult analysis;
  std::vector<Plan> plans;  // plans[0] is always the original schedule
  int best_index = 0;       // min I/O time among plans within the memory cap
  /// FindSchedule calls whose outcomes the search used: the same at any
  /// thread count. Calls made ahead and dropped are speculative_calls.
  int64_t candidates_tested = 0;
  int64_t speculative_calls = 0;
  int64_t candidates_pruned = 0;  // certified_skips + infeasible_skips
  int64_t certified_skips = 0;    // inside a known closure
  int64_t infeasible_skips = 0;   // holding a known infeasible set
  int64_t schedules_found = 0;    // FindSchedule calls that found one
  int64_t cliques = 0;            // maximal cliques of the pair graph
  int64_t lp_calls = 0;           // LPs solved, speculative calls too
  double optimize_seconds = 0.0;  // wall time
  /// Seconds summed over the worker threads: analysis, FindSchedule (with
  /// each found schedule's closure) and costing.
  double analysis_seconds = 0.0;
  double find_schedule_seconds = 0.0;
  double costing_seconds = 0.0;

  const Plan& best() const { return plans[static_cast<size_t>(best_index)]; }
};

/// \brief Runs analysis, plan search, and costing for the program.
OptimizationResult Optimize(const Program& program,
                            const OptimizerOptions& options = {});

}  // namespace riot

#endif  // RIOTSHARE_CORE_OPTIMIZER_H_
