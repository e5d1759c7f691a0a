// The RIOTShare optimizer (paper Section 5): enumerates feasible
// combinations of sharing opportunities with an Apriori-like search
// (Algorithm 2, using the antimonotonicity of Lemma 2), finds a legal
// schedule for each feasible combination (Algorithm 3), costs every plan,
// and selects the cheapest plan whose memory requirement fits the cap.
//
// A schedule found for a set Q often realizes more than Q. For each found
// plan the optimizer also collects every opportunity
// ScheduleSolver::Realizes accepts under its schedule; when that set is
// strictly larger than Q it appends a *closure plan*: the same schedule
// with the realized set as its Q, costed by the same exact model. Closure
// plans follow every found plan, in found-plan order, one per opportunity
// set (a set the search already found keeps its found plan). They sit
// beside their found plans, never replace them: selection is unchanged, so
// a closure wins only when it is strictly cheaper, and the found plan
// stays eligible when the closure's larger peak misses the memory cap.
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
  /// selects plans against the per-session slice (cap / N) — and scales
  /// the cost model's `pressure_cap_bytes` the same way — so a plan is
  /// only called "fitting" when it fits the memory the session runtime
  /// will actually grant it, not the whole pool.
  int concurrent_sessions = 1;
  /// Apriori candidate pruning (Lemma 2); false = exhaustive power set
  /// (ablation; exponential in |O| without pruning).
  bool use_apriori = true;
  /// Optional cap on the size of the opportunity sets FindSchedule tests
  /// (0 = the original plan only). A closure plan may realize more.
  size_t max_combination_size = std::numeric_limits<size_t>::max();
  /// Worker threads for candidate testing within an Apriori level
  /// (candidates are independent). 0 = hardware concurrency.
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
  /// For a closure plan, the index of the found plan whose schedule it
  /// shares; -1 for plan 0 and for found plans.
  int closure_of = -1;

  std::string DescribeOpportunities(const Program& p,
                                    const std::vector<CoAccess>& o) const;
};

struct OptimizationResult {
  AnalysisResult analysis;
  std::vector<Plan> plans;  // plans[0] is always the original schedule
  int best_index = 0;       // min I/O time among plans within the memory cap
  int64_t candidates_tested = 0;
  int64_t candidates_pruned = 0;   // skipped thanks to Apriori
  int64_t schedules_found = 0;
  int64_t closure_plans = 0;       // plans.size() = 1 + found + closures
  int64_t closures_dropped = 0;    // failed to lower or to cost
  int64_t realizes_calls = 0;      // ScheduleSolver::Realizes for closures
  double optimize_seconds = 0.0;   // wall time
  /// Per-phase seconds, summed over the search's worker threads: analysis,
  /// FindSchedule, closures (Realizes plus costing the closure plans) and
  /// costing the found plans. At one thread they add up to about
  /// optimize_seconds.
  double analysis_seconds = 0.0;
  double find_schedule_seconds = 0.0;
  double closure_seconds = 0.0;
  double costing_seconds = 0.0;

  const Plan& best() const { return plans[static_cast<size_t>(best_index)]; }
};

/// \brief Runs analysis, plan search, and costing for the program.
OptimizationResult Optimize(const Program& program,
                            const OptimizerOptions& options = {});

}  // namespace riot

#endif  // RIOTSHARE_CORE_OPTIMIZER_H_
