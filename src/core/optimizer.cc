#include "core/optimizer.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>

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

using OppSet = std::vector<int>;  // ascending opportunity indices

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool Contains(const OppSet& super, const OppSet& sub) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

OppSet Without(OppSet s, size_t i) {
  s.erase(s.begin() + static_cast<std::ptrdiff_t>(i));
  return s;
}

// Appends every maximal clique that extends `r` with vertices of `p` and
// none of `x` (Bron-Kerbosch, pivoting on the first vertex of p or x);
// nbr[v] lists v's neighbours, ascending like r, p and x.
void MaximalCliques(const OppSet& r, OppSet p, OppSet x,
                    const std::vector<OppSet>& nbr, std::vector<OppSet>* out) {
  if (p.empty() && x.empty() && !r.empty()) out->push_back(r);
  if (p.empty()) return;
  auto meet = [](const OppSet& a, const OppSet& b) {
    OppSet m;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(m));
    return m;
  };
  const OppSet& around = nbr[static_cast<size_t>((x.empty() ? p : x)[0])];
  for (int v : OppSet(p)) {
    if (std::binary_search(around.begin(), around.end(), v)) continue;
    const OppSet& nv = nbr[static_cast<size_t>(v)];
    OppSet rv = r;
    rv.insert(std::upper_bound(rv.begin(), rv.end(), v), v);
    MaximalCliques(rv, meet(p, nv), meet(x, nv), nbr, out);
    p.erase(std::lower_bound(p.begin(), p.end(), v));
    x.insert(std::upper_bound(x.begin(), x.end(), v), v);
  }
}

// The search of core/optimizer.h over one program's opportunities.
struct Search {
  // A schedule FindSchedule found, with its closure: every opportunity it
  // realizes. The closure depends on the schedule alone, since FindSchedule
  // returns only schedules that realize their whole set.
  struct Found {
    Schedule schedule;
    OppSet closure;
  };
  using Tested = std::pair<std::optional<Found>, double>;  // and seconds

  const Program& program;
  const ScheduleSolver& solver;
  const CostModelOptions& cost;
  const size_t workers;
  OptimizationResult* r;
  const std::vector<CoAccess>& sharing = r->analysis.sharing;
  std::vector<Found> found = {};          // each schedule once
  std::set<std::string> found_text = {};  // found's schedules, as text
  std::vector<OppSet> infeasible = {};
  std::set<OppSet> tested = {};  // every set FindSchedule ran on

  std::vector<const CoAccess*> QOf(const OppSet& s) const {
    std::vector<const CoAccess*> q;
    for (int oi : s) q.push_back(&sharing[static_cast<size_t>(oi)]);
    return q;
  }

  // True when a known closure certifies `s`, false when `s` holds a known
  // infeasible set, nullopt when neither decides it.
  std::optional<bool> Known(const OppSet& s) const {
    for (const Found& f : found) {
      if (Contains(f.closure, s)) return true;
    }
    for (const OppSet& bad : infeasible) {
      if (Contains(s, bad)) return false;
    }
    return std::nullopt;
  }

  // FindSchedule on `s`, with the closure of what it finds. Const, so the
  // workers run it concurrently.
  Tested Run(const OppSet& s) const {
    auto t0 = std::chrono::steady_clock::now();
    Tested t;
    if (auto schedule = solver.FindSchedule(QOf(s))) {
      OppSet closure;
      for (size_t oi = 0; oi < sharing.size(); ++oi) {
        if (std::binary_search(s.begin(), s.end(), static_cast<int>(oi)) ||
            solver.Realizes(*schedule, sharing[oi])) {
          closure.push_back(static_cast<int>(oi));
        }
      }
      t.first = Found{std::move(*schedule), std::move(closure)};
    }
    t.second = SecondsSince(t0);
    return t;
  }

  // Records Run's outcome for `s`; true when it found a schedule.
  bool Commit(const OppSet& s, Tested t) {
    ++r->candidates_tested;
    r->find_schedule_seconds += t.second;
    tested.insert(s);
    if (!t.first) {
      infeasible.push_back(s);
      return false;
    }
    ++r->schedules_found;
    if (found_text.insert(t.first->schedule.ToString()).second) {
      found.push_back(std::move(*t.first));
    }
    return true;
  }

  // Decides each set in order, as if one at a time: feasible when a known
  // closure certifies it or FindSchedule finds a schedule, infeasible when
  // it holds a known infeasible set or FindSchedule fails. Each step tests
  // the next undecided sets, one per worker, and drops the result of one
  // that a set before it in the step made moot, so the outcomes never
  // depend on the thread count.
  std::vector<bool> Test(const std::vector<OppSet>& sets) {
    std::vector<bool> feasible(sets.size());
    for (size_t begin = 0, end = 0; begin < sets.size(); begin = end) {
      std::vector<size_t> step;
      for (; end < sets.size() && step.size() < workers; ++end) {
        if (!Known(sets[end])) step.push_back(end);
      }
      std::vector<Tested> results(step.size());
      std::vector<std::thread> pool;
      for (size_t k = 1; k < step.size(); ++k) {
        pool.emplace_back([&, k]() { results[k] = Run(sets[step[k]]); });
      }
      if (!step.empty()) results[0] = Run(sets[step[0]]);
      for (auto& t : pool) t.join();
      for (size_t i = begin, k = 0; i < end; ++i) {
        const std::optional<bool> known = Known(sets[i]);
        if (!known) {
          feasible[i] = Commit(sets[i], std::move(results[k++]));
          continue;
        }
        feasible[i] = *known;
        ++(*known ? r->certified_skips : r->infeasible_skips);
        if (k < step.size() && step[k] == i) {  // tested ahead, dropped
          ++r->speculative_calls;
          r->find_schedule_seconds += results[k++].second;
        }
      }
    }
    return feasible;
  }

  // The plan's cost; nullopt when it does not lower.
  std::optional<PlanCost> Cost(const Schedule& schedule, const OppSet& s) {
    auto t0 = std::chrono::steady_clock::now();
    auto c = TryEvaluatePlanCost(program, schedule, QOf(s), cost);
    r->costing_seconds += SecondsSince(t0);
    return c.ok() ? std::optional<PlanCost>(*c) : std::nullopt;
  }

  // Finds a schedule for every maximal feasible set, then adds one plan
  // per maximal closure, first found first.
  void FindBorder() {
    // Singletons, then pairs: the feasible ones are the graph's vertices
    // and edges. A pair holding an infeasible singleton is ruled out.
    std::vector<OppSet> sets;
    const int n = static_cast<int>(sharing.size());
    for (int a = 0; a < n; ++a) sets.push_back({a});
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) sets.push_back({a, b});
    }
    std::vector<bool> ok = Test(sets);
    OppSet nodes;
    std::vector<OppSet> nbr(sharing.size());  // ascending: pairs are sorted
    for (size_t k = 0; k < sets.size(); ++k) {
      const OppSet& s = sets[k];
      if (ok[k] && s.size() == 1) nodes.push_back(s[0]);
      if (ok[k] && s.size() == 2) {
        nbr[static_cast<size_t>(s[0])].push_back(s[1]);
        nbr[static_cast<size_t>(s[1])].push_back(s[0]);
      }
    }

    // Every feasible set is a clique. Descend from each maximal clique that
    // fails, one opportunity at a time, larger sets first (their closures
    // certify the most); sets of two or fewer are already decided.
    std::vector<OppSet> frontier;
    MaximalCliques({}, nodes, {}, nbr, &frontier);
    r->cliques = static_cast<int64_t>(frontier.size());
    std::set<OppSet> visited;
    while (!frontier.empty()) {
      std::sort(frontier.begin(), frontier.end(),
                [](const OppSet& a, const OppSet& b) {
                  return a.size() != b.size() ? a.size() > b.size() : a < b;
                });
      frontier.erase(std::remove_if(frontier.begin(), frontier.end(),
                                    [&](const OppSet& s) {
                                      return s.size() <= 2 ||
                                             !visited.insert(s).second;
                                    }),
                     frontier.end());
      ok = Test(frontier);
      std::vector<OppSet> next;
      for (size_t k = 0; k < frontier.size(); ++k) {
        for (size_t i = 0; !ok[k] && i < frontier[k].size(); ++i) {
          next.push_back(Without(frontier[k], i));
        }
      }
      frontier = std::move(next);
    }

    for (size_t i = 0; i < found.size(); ++i) {
      const OppSet& ci = found[i].closure;
      const bool maximal = std::none_of(
          found.begin(), found.end(), [&](const Found& f) {
            return &f != &found[i] && Contains(f.closure, ci) &&
                   (f.closure != ci || &f < &found[i]);
          });
      // A closure that does not lower is left out.
      auto c = maximal ? Cost(found[i].schedule, ci) : std::nullopt;
      if (c) r->plans.push_back(Plan{ci, found[i].schedule, *c});
    }
  }

  // Under a cap the maximal closures miss, adds the cheapest subset of one
  // that fits under some schedule.
  void DescendUnderCap(int64_t cap) {
    // Every plan runs every instance, so none peaks below the largest
    // instance footprint, which is plan 0's peak; plan 0 has no sharing.
    if (r->plans[0].cost.peak_memory_bytes > cap) return;
    // Sets cheapest first. A set's subsets never cost less, so the first
    // set that fits under some schedule is the cheapest that can.
    double best = r->plans[0].cost.TotalSeconds();
    std::set<std::pair<double, OppSet>> queue;
    std::set<OppSet> queued;  // no subset equals a maximal closure
    for (const Plan& p : r->plans) {
      if (p.cost.peak_memory_bytes <= cap) {
        best = std::min(best, p.cost.TotalSeconds());
      } else {
        queue.insert({p.cost.TotalSeconds(), p.opportunities});
      }
    }
    auto fits = [&](size_t f, const OppSet& q) {
      if (!Contains(found[f].closure, q)) return false;
      auto c = Cost(found[f].schedule, q);
      if (!c || c->peak_memory_bytes > cap) return false;
      r->plans.push_back(Plan{q, found[f].schedule, *c});
      return true;
    };
    while (!queue.empty() && queue.begin()->first < best) {
      const OppSet s = queue.begin()->second;
      queue.erase(queue.begin());
      // Under each known schedule that realizes it; then, if none fits,
      // under the schedule FindSchedule finds for it, with its closure or
      // alone.
      const size_t known = found.size();
      for (size_t f = 0; f < known; ++f) {
        if (fits(f, s)) return;
      }
      if (!tested.count(s)) Commit(s, Run(s));
      for (size_t f = known; f < found.size(); ++f) {
        if (fits(f, found[f].closure) || fits(f, s)) return;
      }
      // Queue its subsets one opportunity smaller, costed under a schedule
      // that realizes them all (every queued set is inside a closure).
      const Found& holder = *std::find_if(
          found.begin(), found.end(),
          [&](const Found& f) { return Contains(f.closure, s); });
      for (size_t i = 0; s.size() > 1 && i < s.size(); ++i) {
        OppSet child = Without(s, i);
        if (!queued.insert(child).second) continue;
        if (auto c = Cost(holder.schedule, child)) {
          queue.insert({c->TotalSeconds(), std::move(child)});
        }
      }
    }
  }
};

}  // namespace

OptimizationResult Optimize(const Program& program,
                            const OptimizerOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  // Multi-tenant hint: plan selection happens against the per-session
  // slice of the pool, not the whole cap.
  const int sessions = std::max(1, options.concurrent_sessions);
  const int64_t session_cap_bytes = options.memory_cap_bytes / sessions;
  CostModelOptions cost = options.cost;
  if (options.calibrate_compute_rates && !cost.compute.has_value()) {
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
    cost.compute = it->second;
  }
  OptimizationResult result;
  auto ta = std::chrono::steady_clock::now();
  result.analysis = AnalyzeProgram(program, options.analysis);
  result.analysis_seconds = SecondsSince(ta);

  // Plan 0: the unmodified original schedule.
  auto tc = std::chrono::steady_clock::now();
  const Schedule& original = program.original_schedule();
  result.plans.push_back(
      {{}, original, EvaluatePlanCost(program, original, {}, cost)});
  result.costing_seconds += SecondsSince(tc);

  if (options.max_combination_size > 0) {
    // The instance cache builds lazily and is not thread-safe to build
    // concurrently: warm it before the workers start.
    for (const auto& s : program.statements()) program.InstancesOf(s.id);
    ScheduleSolver solver(program, result.analysis.dependences,
                          options.solver);
    const size_t workers = std::max<size_t>(
        1, options.num_threads > 0 ? options.num_threads
                                   : std::thread::hardware_concurrency());
    Search search{program, solver, cost, workers, &result};
    search.FindBorder();
    search.DescendUnderCap(session_cap_bytes);
    result.lp_calls = solver.stats().lp_calls.load();
  }
  result.candidates_pruned = result.certified_skips + result.infeasible_skips;

  // Best plan under the (per-session) memory cap, first on ties. No plan
  // peaks below plan 0, so when plan 0 misses the cap it stays the choice.
  for (size_t i = 1; i < result.plans.size(); ++i) {
    const PlanCost& c = result.plans[i].cost;
    if (c.peak_memory_bytes <= session_cap_bytes &&
        c.TotalSeconds() < result.best().cost.TotalSeconds()) {
      result.best_index = static_cast<int>(i);
    }
  }

  result.optimize_seconds = SecondsSince(t0);
  return result;
}

}  // namespace riot
