// The plan search as it stood before the border search: the Apriori
// lattice (paper Algorithm 2, pruned by Lemma 2), which tests every
// feasible opportunity set up to a size cap with FindSchedule, plus a
// closure plan for each found schedule that realizes more than its set.
// Kept as the oracle core/optimizer's Optimize must match:
// ExpectSearchMatchesReference compares their choices with no cap and
// under memory caps, and checks the two facts the border search rests on.
#ifndef RIOTSHARE_TESTS_TESTING_REFERENCE_SEARCH_H_
#define RIOTSHARE_TESTS_TESTING_REFERENCE_SEARCH_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/coaccess.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/schedule_solver.h"
#include "ir/program.h"

namespace riot {
namespace reference {

/// \brief Runs task(i) for every i < n on `workers` threads.
inline void ParallelFor(size_t workers, size_t n,
                        const std::function<void(size_t)>& task) {
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i; (i = next.fetch_add(1)) < n;) task(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::min(workers, n); ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
}

/// \brief Apriori candidate generation: the size-k sets whose every
/// (k-1)-subset is feasible.
inline std::vector<std::vector<int>> GenerateCandidates(
    const std::set<std::vector<int>>& feasible_km1, size_t k, int num_opps,
    int64_t* pruned) {
  std::vector<std::vector<int>> candidates;
  if (k == 1) {
    for (int i = 0; i < num_opps; ++i) candidates.push_back({i});
    return candidates;
  }
  auto all_subsets_feasible = [&](const std::vector<int>& c) {
    for (size_t drop = 0; drop + 1 < c.size(); ++drop) {
      std::vector<int> sub = c;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
      if (!feasible_km1.count(sub)) return false;
    }
    return true;
  };
  for (const auto& s : feasible_km1) {
    for (int next = s.back() + 1; next < num_opps; ++next) {
      std::vector<int> c = s;
      c.push_back(next);
      if (!all_subsets_feasible(c)) {
        ++*pruned;
        continue;
      }
      candidates.push_back(c);
    }
  }
  return candidates;
}

/// \brief The Apriori search over sets of at most `max_combination_size`
/// opportunities. plans[0] is the original schedule; then every found
/// plan, level by level; then one closure plan per found schedule whose
/// realized set is larger than its own and not already a plan. best_index
/// is chosen as Optimize chooses, under `memory_cap_bytes`.
inline OptimizationResult AprioriSearch(
    const Program& program,
    size_t max_combination_size = std::numeric_limits<size_t>::max(),
    int64_t memory_cap_bytes = std::numeric_limits<int64_t>::max(),
    size_t num_threads = 4) {
  OptimizationResult result;
  result.analysis = AnalyzeProgram(program);
  const auto& sharing = result.analysis.sharing;
  const int num_opps = static_cast<int>(sharing.size());
  auto q_of = [&](const std::vector<int>& opps) {
    std::vector<const CoAccess*> q;
    for (int oi : opps) q.push_back(&sharing[static_cast<size_t>(oi)]);
    return q;
  };
  ScheduleSolver solver(program, result.analysis.dependences);
  {
    Plan plan;
    plan.schedule = program.original_schedule();
    plan.cost = EvaluatePlanCost(program, plan.schedule, {});
    result.plans.push_back(std::move(plan));
  }
  for (const auto& s : program.statements()) program.InstancesOf(s.id);

  struct Closure {
    size_t found_plan;
    std::vector<int> opportunities;
  };
  std::vector<Closure> closures;
  std::set<std::vector<int>> feasible_prev;
  for (size_t k = 1; k <= static_cast<size_t>(num_opps) &&
                     k <= max_combination_size &&
                     (k == 1 || !feasible_prev.empty());
       ++k) {
    auto candidates = GenerateCandidates(feasible_prev, k, num_opps,
                                         &result.candidates_pruned);
    result.candidates_tested += static_cast<int64_t>(candidates.size());
    struct Tested {
      std::optional<Schedule> schedule;
      PlanCost cost;
      std::vector<int> realized;
    };
    std::vector<Tested> tested(candidates.size());
    ParallelFor(num_threads, candidates.size(), [&](size_t i) {
      const std::vector<int>& cand = candidates[i];
      Tested& t = tested[i];
      t.schedule = solver.FindSchedule(q_of(cand));
      if (!t.schedule) return;
      t.cost = EvaluatePlanCost(program, *t.schedule, q_of(cand));
      for (int oi = 0; oi < num_opps; ++oi) {
        if (std::binary_search(cand.begin(), cand.end(), oi) ||
            solver.Realizes(*t.schedule, sharing[static_cast<size_t>(oi)])) {
          t.realized.push_back(oi);
        }
      }
      if (t.realized.size() == cand.size()) t.realized.clear();
    });
    std::set<std::vector<int>> feasible_k;
    for (size_t i = 0; i < candidates.size(); ++i) {
      Tested& t = tested[i];
      if (!t.schedule) continue;
      ++result.schedules_found;
      feasible_k.insert(candidates[i]);
      if (!t.realized.empty()) {
        closures.push_back({result.plans.size(), std::move(t.realized)});
      }
      Plan plan;
      plan.opportunities = candidates[i];
      plan.schedule = std::move(*t.schedule);
      plan.cost = t.cost;
      result.plans.push_back(std::move(plan));
    }
    feasible_prev = std::move(feasible_k);
  }

  std::set<std::vector<int>> sets;
  for (const Plan& p : result.plans) sets.insert(p.opportunities);
  for (Closure& c : closures) {
    if (!sets.insert(c.opportunities).second) continue;
    const Schedule& schedule = result.plans[c.found_plan].schedule;
    auto cost = TryEvaluatePlanCost(program, schedule, q_of(c.opportunities));
    if (!cost.ok()) continue;
    Plan plan;
    plan.opportunities = std::move(c.opportunities);
    plan.schedule = schedule;
    plan.cost = *cost;
    result.plans.push_back(std::move(plan));
  }

  for (size_t i = 0; i < result.plans.size(); ++i) {
    const Plan& p = result.plans[i];
    if (p.cost.peak_memory_bytes > memory_cap_bytes) continue;
    const Plan& cur = result.plans[static_cast<size_t>(result.best_index)];
    if (cur.cost.peak_memory_bytes > memory_cap_bytes ||
        p.cost.TotalSeconds() < cur.cost.TotalSeconds()) {
      result.best_index = static_cast<int>(i);
    }
  }
  return result;
}

/// \brief Index of the plan Optimize would choose among `plans` under
/// `cap`: the cheapest that fits, the first on ties, plan 0 when none fits.
inline size_t ChooseUnderCap(const std::vector<Plan>& plans, int64_t cap) {
  size_t best = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].cost.peak_memory_bytes > cap) continue;
    if (plans[best].cost.peak_memory_bytes > cap ||
        plans[i].cost.TotalSeconds() < plans[best].cost.TotalSeconds()) {
      best = i;
    }
  }
  return best;
}

/// \brief Checks Optimize against the Apriori oracle on `program`:
///   * with no cap, the chosen plan's block reads and writes equal the
///     oracle's;
///   * at `cap_factors` x the uncapped best's peak, the chosen plan fits
///     and its predicted seconds are at most the oracle's choice's;
///   * with `check_plans`, every oracle plan (S, its schedule) does no more
///     I/O than the same schedule with any one opportunity dropped from S,
///     and the same set costs the same bytes under every border schedule
///     that realizes it. The border search relies on these two facts.
inline void ExpectSearchMatchesReference(
    const Program& program,
    std::vector<double> cap_factors = {1.0, 0.9, 0.75},
    bool check_plans = true) {
  const OptimizationResult ref = AprioriSearch(program);
  OptimizerOptions opts;
  opts.num_threads = 4;
  const OptimizationResult got = Optimize(program, opts);
  ASSERT_EQ(got.analysis.sharing.size(), ref.analysis.sharing.size());
  EXPECT_EQ(got.best().cost.block_reads, ref.best().cost.block_reads);
  EXPECT_EQ(got.best().cost.block_writes, ref.best().cost.block_writes);
  EXPECT_EQ(got.best().cost.TotalBytes(), ref.best().cost.TotalBytes());

  for (double factor : cap_factors) {
    SCOPED_TRACE("cap factor " + std::to_string(factor));
    const int64_t cap = static_cast<int64_t>(
        factor * static_cast<double>(got.best().cost.peak_memory_bytes));
    OptimizerOptions capped = opts;
    capped.memory_cap_bytes = cap;
    const OptimizationResult r = Optimize(program, capped);
    const Plan& want = ref.plans[ChooseUnderCap(ref.plans, cap)];
    if (want.cost.peak_memory_bytes <= cap) {
      EXPECT_LE(r.best().cost.peak_memory_bytes, cap);
    }
    EXPECT_LE(r.best().cost.TotalSeconds(), want.cost.TotalSeconds())
        << "oracle: " << want.DescribeOpportunities(program, ref.analysis.sharing)
        << "; chose: "
        << r.best().DescribeOpportunities(program, r.analysis.sharing);
  }

  auto q_of = [&](const std::vector<int>& opps) {
    std::vector<const CoAccess*> q;
    for (int oi : opps) q.push_back(&ref.analysis.sharing[size_t(oi)]);
    return q;
  };
  if (!check_plans) return;
  for (const Plan& p : ref.plans) {
    const int64_t bytes = p.cost.TotalBytes();
    for (size_t i = 0; i < p.opportunities.size(); ++i) {
      std::vector<int> sub = p.opportunities;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(i));
      auto c = TryEvaluatePlanCost(program, p.schedule, q_of(sub));
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      EXPECT_GE(c->TotalBytes(), bytes)
          << "dropping one opportunity from "
          << p.DescribeOpportunities(program, ref.analysis.sharing)
          << " saved I/O";
    }
    for (const Plan& border : got.plans) {
      if (!std::includes(border.opportunities.begin(),
                         border.opportunities.end(), p.opportunities.begin(),
                         p.opportunities.end())) {
        continue;
      }
      auto c = TryEvaluatePlanCost(program, border.schedule,
                                   q_of(p.opportunities));
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      EXPECT_EQ(c->TotalBytes(), bytes)
          << p.DescribeOpportunities(program, ref.analysis.sharing)
          << " under another schedule";
    }
  }
}

}  // namespace reference
}  // namespace riot

#endif  // RIOTSHARE_TESTS_TESTING_REFERENCE_SEARCH_H_
