#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "util/logging.h"

namespace riot {

std::string Plan::DescribeOpportunities(const Program& p,
                                        const std::vector<CoAccess>& o) const {
  if (opportunities.empty()) return "(none)";
  std::ostringstream os;
  for (size_t i = 0; i < opportunities.size(); ++i) {
    if (i) os << ", ";
    os << o[static_cast<size_t>(opportunities[i])].Label(p);
  }
  return os.str();
}

namespace {

// Generates size-k candidates whose every (k-1)-subset is feasible
// (Apriori candidate generation; Algorithm 2 line 5).
std::vector<std::vector<int>> GenerateCandidates(
    const std::set<std::vector<int>>& feasible_km1, size_t k, int num_opps,
    bool use_apriori, int64_t* pruned) {
  std::vector<std::vector<int>> candidates;
  if (k == 1) {
    for (int i = 0; i < num_opps; ++i) candidates.push_back({i});
    return candidates;
  }
  // Join step: extend each feasible (k-1)-set with a larger element.
  std::set<std::vector<int>> seen;
  auto all_subsets_feasible = [&](const std::vector<int>& c) {
    std::vector<int> sub(c.begin(), c.end() - 1);
    for (size_t drop = 0; drop + 1 < c.size(); ++drop) {
      sub = c;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
      if (!feasible_km1.count(sub)) return false;
    }
    return true;
  };
  std::set<std::vector<int>> base;
  if (use_apriori) {
    base = feasible_km1;
  } else {
    // Exhaustive: every (k-1)-subset of opportunity ids.
    std::vector<int> idx(k - 1);
    std::function<void(size_t, int)> gen = [&](size_t pos, int start) {
      if (pos == k - 1) {
        base.insert(idx);
        return;
      }
      for (int i = start; i < num_opps; ++i) {
        idx[pos] = i;
        gen(pos + 1, i + 1);
      }
    };
    gen(0, 0);
  }
  for (const auto& s : base) {
    for (int next = s.back() + 1; next < num_opps; ++next) {
      std::vector<int> c = s;
      c.push_back(next);
      if (seen.count(c)) continue;
      seen.insert(c);
      if (use_apriori && !all_subsets_feasible(c)) {
        ++*pruned;
        continue;
      }
      candidates.push_back(c);
    }
  }
  return candidates;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

OptimizationResult Optimize(const Program& program,
                            const OptimizerOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  // Multi-tenant hint: plan selection (and pressure simulation) happens
  // against the per-session slice of the pool, not the whole cap.
  const int sessions = std::max(1, options.concurrent_sessions);
  const int64_t session_cap_bytes = options.memory_cap_bytes / sessions;
  CostModelOptions session_cost = options.cost;
  if (session_cost.pressure_cap_bytes > 0) {
    session_cost.pressure_cap_bytes /= sessions;
  }
  if (options.calibrate_compute_rates && !session_cost.compute.has_value()) {
    // One measurement per process and worker count: every Optimize call at
    // the same calibrate_exec_threads shares a table so repeated
    // optimizations don't each pay the calibration budget (and rank
    // identically within a run).
    static std::mutex calibrated_mu;
    static std::map<int, KernelRateTable>* calibrated_by_workers =
        new std::map<int, KernelRateTable>();
    const int workers = std::max(1, options.calibrate_exec_threads);
    std::lock_guard<std::mutex> lock(calibrated_mu);
    auto it = calibrated_by_workers->find(workers);
    if (it == calibrated_by_workers->end()) {
      it = calibrated_by_workers
               ->emplace(workers, CalibrateKernelRates(
                                      options.calibrate_budget_ms, workers))
               .first;
    }
    session_cost.compute = it->second;
  }
  OptimizationResult result;
  {
    auto ta = std::chrono::steady_clock::now();
    result.analysis = AnalyzeProgram(program, options.analysis);
    result.analysis_seconds = SecondsSince(ta);
  }
  const auto& sharing = result.analysis.sharing;
  const int num_opps = static_cast<int>(sharing.size());
  auto q_of = [&](const std::vector<int>& opps) {
    std::vector<const CoAccess*> q;
    for (int oi : opps) q.push_back(&sharing[static_cast<size_t>(oi)]);
    return q;
  };

  ScheduleSolver solver(program, result.analysis.dependences, options.solver);

  // Candidate enumeration costs every plan with the exact linear model
  // only; the (much dearer) capped cache simulation is deferred to the
  // pressure fallback below, which runs it for the few surviving plans and
  // only when no plan fits the cap.
  CostModelOptions enumerate_cost = session_cost;  // incl. calibrated rates
  enumerate_cost.pressure_cap_bytes = 0;

  // Plan 0: the unmodified original schedule.
  {
    auto tc = std::chrono::steady_clock::now();
    Plan plan;
    plan.schedule = program.original_schedule();
    plan.cost = EvaluatePlanCost(program, plan.schedule, {}, enumerate_cost);
    result.plans.push_back(std::move(plan));
    result.costing_seconds += SecondsSince(tc);
  }

  // Warm the per-statement instance cache before the parallel section (the
  // cache is lazily built and not thread-safe to initialize concurrently).
  for (const auto& s : program.statements()) program.InstancesOf(s.id);

  const size_t workers =
      options.num_threads > 0
          ? options.num_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  // Runs task(i) for every i < n on up to `workers` threads; the tasks are
  // independent (FindSchedule, Realizes and costing are const, and
  // ScheduleSolver's stats are atomic), and each writes only slot i.
  auto parallel_for = [workers](size_t n,
                                const std::function<void(size_t)>& task) {
    std::atomic<size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) break;
        task(i);
      }
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < std::min(workers, n); ++t) {
      pool.emplace_back(worker);
    }
    worker();
    for (auto& t : pool) t.join();
  };

  // A found plan's closure: its schedule with every opportunity that
  // schedule realizes, when that is more than the candidate it was found
  // for. Pending until the search ends, so closures are deduplicated
  // against every found plan.
  struct Closure {
    int found_plan = -1;
    std::vector<int> opportunities;
  };
  std::vector<Closure> closures;

  std::set<std::vector<int>> feasible_prev;  // C_{k-1}
  size_t k = 1;
  while (k <= static_cast<size_t>(num_opps) &&
         k <= options.max_combination_size &&
         (k == 1 || !feasible_prev.empty())) {
    auto candidates = GenerateCandidates(feasible_prev, k, num_opps,
                                         options.use_apriori,
                                         &result.candidates_pruned);
    result.candidates_tested += static_cast<int64_t>(candidates.size());
    struct Tested {
      std::optional<Schedule> schedule;
      PlanCost cost;
      std::vector<int> realized;  // the closure's set; empty = no closure
      int64_t realizes_calls = 0;
      double find_s = 0, cost_s = 0, closure_s = 0;
    };
    std::vector<Tested> tested(candidates.size());
    parallel_for(candidates.size(), [&](size_t i) {
      const std::vector<int>& cand = candidates[i];
      Tested& t = tested[i];
      auto t0 = std::chrono::steady_clock::now();
      t.schedule = solver.FindSchedule(q_of(cand));
      t.find_s = SecondsSince(t0);
      if (!t.schedule) return;
      t0 = std::chrono::steady_clock::now();
      t.cost = EvaluatePlanCost(program, *t.schedule, q_of(cand),
                                enumerate_cost);
      t.cost_s = SecondsSince(t0);
      t0 = std::chrono::steady_clock::now();
      for (int oi = 0; oi < num_opps; ++oi) {
        const bool in_q = std::binary_search(cand.begin(), cand.end(), oi);
        if (!in_q) ++t.realizes_calls;
        if (in_q ||
            solver.Realizes(*t.schedule, sharing[static_cast<size_t>(oi)])) {
          t.realized.push_back(oi);
        }
      }
      if (t.realized.size() == cand.size()) t.realized.clear();
      t.closure_s = SecondsSince(t0);
    });

    std::set<std::vector<int>> feasible_k;
    for (size_t i = 0; i < candidates.size(); ++i) {
      Tested& t = tested[i];
      result.find_schedule_seconds += t.find_s;
      result.costing_seconds += t.cost_s;
      result.closure_seconds += t.closure_s;
      result.realizes_calls += t.realizes_calls;
      if (!t.schedule) continue;
      ++result.schedules_found;
      feasible_k.insert(candidates[i]);
      if (!t.realized.empty()) {
        closures.push_back({static_cast<int>(result.plans.size()),
                            std::move(t.realized)});
      }
      Plan plan;
      plan.opportunities = candidates[i];
      plan.schedule = std::move(*t.schedule);
      plan.cost = t.cost;
      result.plans.push_back(std::move(plan));
    }
    feasible_prev = std::move(feasible_k);
    ++k;
  }

  // Closure plans, after every found plan and in found-plan order, each
  // opportunity set once. A closure that fails to lower or to cost is
  // dropped and counted.
  {
    std::set<std::vector<int>> sets;
    for (const Plan& p : result.plans) sets.insert(p.opportunities);
    std::vector<Closure> fresh;
    for (Closure& c : closures) {
      if (sets.insert(c.opportunities).second) fresh.push_back(std::move(c));
    }
    std::vector<std::optional<PlanCost>> costs(fresh.size());
    std::vector<double> seconds(fresh.size(), 0.0);
    parallel_for(fresh.size(), [&](size_t i) {
      auto t0 = std::chrono::steady_clock::now();
      const Schedule& sched =
          result.plans[static_cast<size_t>(fresh[i].found_plan)].schedule;
      auto cost = TryEvaluatePlanCost(
          program, sched, q_of(fresh[i].opportunities), enumerate_cost);
      if (cost.ok()) costs[i] = std::move(cost).ValueOrDie();
      seconds[i] = SecondsSince(t0);
    });
    for (size_t i = 0; i < fresh.size(); ++i) {
      result.closure_seconds += seconds[i];
      if (!costs[i]) {
        ++result.closures_dropped;
        continue;
      }
      Plan plan;
      plan.opportunities = std::move(fresh[i].opportunities);
      plan.schedule =
          result.plans[static_cast<size_t>(fresh[i].found_plan)].schedule;
      plan.cost = *costs[i];
      plan.closure_of = fresh[i].found_plan;
      result.plans.push_back(std::move(plan));
      ++result.closure_plans;
    }
  }

  // Best plan under the (per-session) memory cap.
  result.best_index = 0;
  for (size_t i = 0; i < result.plans.size(); ++i) {
    const Plan& p = result.plans[i];
    if (p.cost.peak_memory_bytes > session_cap_bytes) continue;
    const Plan& cur = result.plans[static_cast<size_t>(result.best_index)];
    const bool cur_fits = cur.cost.peak_memory_bytes <= session_cap_bytes;
    if (!cur_fits || p.cost.TotalSeconds() < cur.cost.TotalSeconds()) {
      result.best_index = static_cast<int>(i);
    }
  }

  // Memory-pressure pricing: when no plan's exact requirement fits the cap
  // and the cost model simulated a bounded cache
  // (CostModelOptions::pressure_cap_bytes), rank by simulated capped I/O
  // time instead of defaulting to the original schedule — the schedule
  // that degrades best under a plain replacement policy wins.
  if (session_cost.pressure_cap_bytes > 0 &&
      result.plans[static_cast<size_t>(result.best_index)]
              .cost.peak_memory_bytes > session_cap_bytes) {
    CacheSimOptions sim;
    sim.policy = session_cost.pressure_policy;
    sim.cap_bytes = session_cost.pressure_cap_bytes;
    sim.opportunistic = true;
    int best_capped = -1;
    for (size_t i = 0; i < result.plans.size(); ++i) {
      Plan& p = result.plans[i];
      auto r = SimulateCacheBehavior(program, p.schedule,
                                     q_of(p.opportunities), sim, session_cost);
      if (!r.ok()) continue;  // infeasible at the cap
      p.cost.capped_block_reads = r->block_reads;
      p.cost.capped_evictions = r->evictions;
      p.cost.capped_io_seconds = r->io_seconds;
      if (best_capped < 0 ||
          p.cost.CappedTotalSeconds() <
              result.plans[static_cast<size_t>(best_capped)]
                  .cost.CappedTotalSeconds()) {
        best_capped = static_cast<int>(i);
      }
    }
    if (best_capped >= 0) result.best_index = best_capped;
  }

  result.optimize_seconds = SecondsSince(t0);
  return result;
}

}  // namespace riot
