// Optimizer (border search over maximal sharing sets) tests. The Apriori
// search it replaced is the oracle, in tests/testing/reference_search.h.
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/schedule_solver.h"
#include "ops/workload.h"
#include "testing/reference_search.h"

namespace riot {
namespace {

TEST(OptimizerTest, PlanZeroIsOriginal) {
  Workload w = MakeExample1(2, 3, 2);
  OptimizationResult r = Optimize(w.program);
  ASSERT_FALSE(r.plans.empty());
  EXPECT_TRUE(r.plans[0].opportunities.empty());
  EXPECT_EQ(r.plans[0].cost.read_bytes, r.plans[0].cost.baseline_read_bytes);
}

TEST(OptimizerTest, PlansAreTheMaximalFeasibleSets) {
  // Feasibility is downward closed (Lemma 2), so the border search returns
  // exactly the maximal sets among every feasible set the Apriori lattice
  // finds, and each of them holds every feasible set.
  Workload w = MakeExample1(2, 3, 2);
  const OptimizationResult ref = reference::AprioriSearch(w.program);
  std::set<std::vector<int>> maximal;
  for (const Plan& p : ref.plans) {
    bool inside = false;
    for (const Plan& q : ref.plans) {
      inside |= q.opportunities.size() > p.opportunities.size() &&
                std::includes(q.opportunities.begin(), q.opportunities.end(),
                              p.opportunities.begin(), p.opportunities.end());
    }
    if (!inside) maximal.insert(p.opportunities);
  }
  const OptimizationResult r = Optimize(w.program);
  std::set<std::vector<int>> found;
  for (size_t i = 1; i < r.plans.size(); ++i) {
    found.insert(r.plans[i].opportunities);
  }
  EXPECT_EQ(found, maximal);
  EXPECT_LT(r.candidates_tested, ref.candidates_tested);
}

TEST(OptimizerTest, BestPlanRespectsMemoryCap) {
  Workload w = MakeExample1(3, 4, 2);
  OptimizerOptions unlimited;
  auto r1 = Optimize(w.program, unlimited);
  const Plan& unconstrained_best = r1.best();
  // Now cap memory at just below the unconstrained best's requirement; the
  // chosen plan must fit and can only be costlier.
  OptimizerOptions capped;
  capped.memory_cap_bytes = unconstrained_best.cost.peak_memory_bytes - 1;
  auto r2 = Optimize(w.program, capped);
  EXPECT_LE(r2.best().cost.peak_memory_bytes, capped.memory_cap_bytes);
  EXPECT_GE(r2.best().cost.io_seconds, unconstrained_best.cost.io_seconds);
}

TEST(OptimizerTest, ConcurrentSessionsHintSelectsAgainstPerSessionSlice) {
  // N concurrent sessions share the pool: a cap that admits the
  // unconstrained best for one session must be divided by N, so the hint
  // must pick the same plan a solo run under cap/N would pick.
  Workload w = MakeExample1(3, 4, 2);
  OptimizerOptions unlimited;
  auto r1 = Optimize(w.program, unlimited);
  const int64_t best_peak = r1.best().cost.peak_memory_bytes;

  OptimizerOptions hinted;
  hinted.memory_cap_bytes = 4 * best_peak - 1;  // whole pool: would fit
  hinted.concurrent_sessions = 4;               // per-session slice: won't
  auto r2 = Optimize(w.program, hinted);
  EXPECT_LE(r2.best().cost.peak_memory_bytes,
            hinted.memory_cap_bytes / hinted.concurrent_sessions);

  OptimizerOptions solo_slice;
  solo_slice.memory_cap_bytes = hinted.memory_cap_bytes / 4;
  auto r3 = Optimize(w.program, solo_slice);
  EXPECT_EQ(r2.best().opportunities, r3.best().opportunities);
}

TEST(OptimizerTest, BestPlanNeverWorseThanOriginal) {
  for (auto [n1, n2, n3] : {std::tuple<int64_t, int64_t, int64_t>{2, 2, 1},
                            {3, 2, 2},
                            {2, 4, 3}}) {
    Workload w = MakeExample1(n1, n2, n3);
    auto r = Optimize(w.program);
    EXPECT_LE(r.best().cost.io_seconds, r.plans[0].cost.io_seconds);
  }
}

TEST(OptimizerTest, SavingsComeFromRealizedOpportunities) {
  Workload w = MakeExample1(3, 3, 2);
  auto r = Optimize(w.program);
  for (const auto& p : r.plans) {
    if (p.opportunities.empty()) {
      EXPECT_EQ(p.cost.TotalBytes(),
                p.cost.baseline_read_bytes + p.cost.baseline_write_bytes);
    } else {
      EXPECT_LE(p.cost.TotalBytes(),
                p.cost.baseline_read_bytes + p.cost.baseline_write_bytes);
    }
  }
}

TEST(OptimizerTest, SupersetNeverReadsMoreButMayUseMoreMemory) {
  // Adding opportunities to a feasible set only adds savings (union
  // semantics), at possibly higher memory cost, whatever the two sets'
  // schedules: over every pair of nested sets the Apriori lattice finds.
  // ExpectSearchMatchesReference checks it over the paper programs and the
  // random corpus one opportunity at a time under one schedule.
  Workload w = MakeExample1(2, 3, 2);
  const OptimizationResult ref = reference::AprioriSearch(w.program);
  int64_t pairs = 0;
  for (const Plan& p : ref.plans) {
    for (const Plan& sup : ref.plans) {
      if (sup.opportunities.size() <= p.opportunities.size() ||
          !std::includes(sup.opportunities.begin(), sup.opportunities.end(),
                         p.opportunities.begin(), p.opportunities.end())) {
        continue;
      }
      ++pairs;
      EXPECT_LE(sup.cost.TotalBytes(), p.cost.TotalBytes())
          << "superset lost savings";
    }
  }
  EXPECT_GT(pairs, 0);
}

TEST(OptimizerTest, MaxCombinationSizeAboveZeroIsIgnored) {
  // The search is exact, so a size cap has nothing left to bound: only 0
  // (the original plan alone) is read.
  Workload w = MakeExample1(2, 3, 2);
  OptimizerOptions capped;
  capped.max_combination_size = 1;
  const OptimizationResult r = Optimize(w.program, capped);
  const OptimizationResult uncapped = Optimize(w.program);
  ASSERT_EQ(r.plans.size(), uncapped.plans.size());
  for (size_t i = 0; i < r.plans.size(); ++i) {
    EXPECT_EQ(r.plans[i].opportunities, uncapped.plans[i].opportunities);
  }
  EXPECT_EQ(r.best_index, uncapped.best_index);
  EXPECT_EQ(r.candidates_tested, uncapped.candidates_tested);
}

TEST(OptimizerTest, StatsArePopulated) {
  Workload w = MakeExample1(2, 3, 2);
  OptimizerOptions opts;
  opts.num_threads = 1;
  auto r = Optimize(w.program, opts);
  EXPECT_GT(r.candidates_tested, 0);
  EXPECT_GT(r.schedules_found, 0);
  EXPECT_LE(r.schedules_found, r.candidates_tested);
  EXPECT_GT(r.certified_skips, 0);
  EXPECT_EQ(r.candidates_pruned, r.certified_skips + r.infeasible_skips);
  EXPECT_EQ(r.speculative_calls, 0);  // nothing runs ahead at one thread
  EXPECT_GT(r.cliques, 0);
  EXPECT_GT(r.lp_calls, 0);
  EXPECT_GT(r.optimize_seconds, 0.0);
  EXPECT_GT(r.find_schedule_seconds, 0.0);
  EXPECT_GT(r.costing_seconds, 0.0);
  // Plan 0 and one plan per maximal closure, each from a found schedule.
  EXPECT_GT(r.plans.size(), 1u);
  EXPECT_LE(static_cast<int64_t>(r.plans.size()), 1 + r.schedules_found);
}

// The opportunities `solver` accepts under `sched`.
std::vector<int> RealizedSet(const ScheduleSolver& solver,
                             const Schedule& sched,
                             const std::vector<CoAccess>& sharing) {
  std::vector<int> out;
  for (size_t i = 0; i < sharing.size(); ++i) {
    if (solver.Realizes(sched, sharing[i])) out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST(OptimizerTest, PlansCarryWhatTheirSchedulesRealize) {
  // With no cap, every plan after plan 0 is a found schedule with all it
  // realizes as its set, and no plan's set holds another's.
  for (Workload w : {MakeExample1(2, 3, 2), MakeAddMul(100),
                     MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1000)}) {
    auto r = Optimize(w.program);
    ScheduleSolver solver(w.program, r.analysis.dependences);
    ASSERT_GT(r.plans.size(), 1u);
    for (size_t i = 1; i < r.plans.size(); ++i) {
      const Plan& p = r.plans[i];
      EXPECT_TRUE(solver.IsLegal(p.schedule)) << "plan " << i;
      EXPECT_EQ(p.opportunities,
                RealizedSet(solver, p.schedule, r.analysis.sharing))
          << "plan " << i;
      for (size_t j = 1; j < r.plans.size(); ++j) {
        const Plan& q = r.plans[j];
        EXPECT_FALSE(j != i && std::includes(q.opportunities.begin(),
                                             q.opportunities.end(),
                                             p.opportunities.begin(),
                                             p.opportunities.end()))
            << "plan " << i << " inside plan " << j;
      }
    }
  }
}

TEST(OptimizerTest, CapZeroIsTheOriginalPlanOnly) {
  Workload w = MakeExample1(2, 3, 2);
  OptimizerOptions opts;
  opts.max_combination_size = 0;
  auto r = Optimize(w.program, opts);
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_TRUE(r.plans[0].opportunities.empty());
  EXPECT_EQ(r.candidates_tested, 0);
  EXPECT_EQ(r.lp_calls, 0);
}

TEST(OptimizerTest, SearchIdenticalAcrossThreadCounts) {
  // Sets are decided as if one at a time, so plans, choice and counts are
  // the same at 1 and 8 threads, with and without a memory cap; only the
  // speculative calls the extra workers make and discard differ.
  for (Workload w : {MakeExample1(3, 4, 2), MakeCovariance(1000),
                     MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1000)}) {
    OptimizerOptions serial;
    serial.num_threads = 1;
    const int64_t peak =
        Optimize(w.program, serial).best().cost.peak_memory_bytes;
    for (int64_t cap : {std::numeric_limits<int64_t>::max(), peak * 3 / 4}) {
      serial.memory_cap_bytes = cap;
      OptimizerOptions parallel = serial;
      parallel.num_threads = 8;
      auto rs = Optimize(w.program, serial);
      auto rp = Optimize(w.program, parallel);
      ASSERT_EQ(rs.plans.size(), rp.plans.size());
      for (size_t i = 0; i < rs.plans.size(); ++i) {
        EXPECT_EQ(rs.plans[i].opportunities, rp.plans[i].opportunities);
        EXPECT_EQ(rs.plans[i].schedule.ToString(),
                  rp.plans[i].schedule.ToString());
        EXPECT_EQ(rs.plans[i].cost.TotalBytes(),
                  rp.plans[i].cost.TotalBytes());
        EXPECT_EQ(rs.plans[i].cost.peak_memory_bytes,
                  rp.plans[i].cost.peak_memory_bytes);
      }
      EXPECT_EQ(rs.best_index, rp.best_index);
      EXPECT_EQ(rs.candidates_tested, rp.candidates_tested);
      EXPECT_EQ(rs.certified_skips, rp.certified_skips);
      EXPECT_EQ(rs.infeasible_skips, rp.infeasible_skips);
      EXPECT_EQ(rs.schedules_found, rp.schedules_found);
      EXPECT_EQ(rs.cliques, rp.cliques);
    }
  }
}

TEST(OptimizerTest, PaperProgramsChooseExpectedPlans) {
  // With no cap every program gets its exhaustive optimum, linreg and ridge
  // included, in a few dozen FindSchedule calls.
  struct Case {
    const char* name;
    Workload w;
    int64_t reads, writes;
  };
  std::vector<Case> cases;
  cases.push_back({"addmul", MakeAddMul(1), 432, 12});
  cases.push_back({"twomm_a", MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1),
                   1080, 120});
  cases.push_back({"twomm_b", MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1),
                   1200, 864});
  cases.push_back({"covariance", MakeCovariance(1), 32, 1});
  cases.push_back({"ridge", MakeRidge(1), 32, 2});
  cases.push_back({"linreg", MakeLinReg(1), 100, 5});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto r = Optimize(c.w.program);
    EXPECT_EQ(r.best().cost.block_reads, c.reads);
    EXPECT_EQ(r.best().cost.block_writes, c.writes);
    EXPECT_LE(r.candidates_tested, 64);
  }
}

TEST(OptimizerTest, MatchesAprioriOracleOnPaperPrograms) {
  // Exhaustive search on ridge and linreg takes minutes; they are checked
  // in tests/core/search_stress_test.cc.
  struct Case {
    const char* name;
    Workload w;
  };
  std::vector<Case> cases;
  cases.push_back({"addmul", MakeAddMul(100)});
  cases.push_back({"twomm_a", MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1000)});
  cases.push_back({"twomm_b", MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1000)});
  cases.push_back({"covariance", MakeCovariance(1000)});
  cases.push_back({"chain", MakeElementwiseChain(1000)});
  cases.push_back({"example1", MakeExample1(3, 4, 2)});
  cases.push_back({"joinfilter", MakeJoinFilter(4, 4)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    reference::ExpectSearchMatchesReference(c.w.program);
  }
}

TEST(OptimizerTest, SingleThreadMatchesParallel) {
  Workload w = MakeExample1(2, 3, 2);
  OptimizerOptions serial;
  serial.num_threads = 1;
  OptimizerOptions parallel;
  parallel.num_threads = 8;
  auto rs = Optimize(w.program, serial);
  auto rp = Optimize(w.program, parallel);
  std::set<std::vector<int>> ss, sp;
  for (const auto& p : rs.plans) ss.insert(p.opportunities);
  for (const auto& p : rp.plans) sp.insert(p.opportunities);
  EXPECT_EQ(ss, sp);
}

TEST(OptimizerTest, AblationNoMultiplicityReductionStillSound) {
  Workload w = MakeExample1(2, 2, 2);
  OptimizerOptions opts;
  opts.analysis.multiplicity_reduction = false;
  auto r = Optimize(w.program, opts);
  // Plans still legal: best never worse than original.
  EXPECT_LE(r.best().cost.io_seconds, r.plans[0].cost.io_seconds);
}

TEST(OptimizerTest, CalibratedComputeRatesRankByIoPlusCompute) {
  // The calibrate_compute_rates flag measures this host's kernel rates
  // once and prices plans by io + compute; without it (and without a
  // caller-set rate table) ranking is I/O-only and compute_seconds stays
  // zero. Feasibility (the opportunity sets) must not change -- only the
  // ranking inputs do.
  Workload w = MakeExample1(2, 3, 2);
  OptimizerOptions plain;
  OptimizerOptions calibrated;
  calibrated.calibrate_compute_rates = true;
  calibrated.calibrate_budget_ms = 20;  // keep the one-time probe cheap
  auto rp = Optimize(w.program, plain);
  auto rc = Optimize(w.program, calibrated);

  ASSERT_FALSE(rp.plans.empty());
  ASSERT_FALSE(rc.plans.empty());
  for (const auto& p : rp.plans) {
    EXPECT_EQ(p.cost.compute_seconds, 0.0);
  }
  bool any_compute = false;
  for (const auto& p : rc.plans) {
    EXPECT_GE(p.cost.compute_seconds, 0.0);
    any_compute |= p.cost.compute_seconds > 0;
    EXPECT_DOUBLE_EQ(p.cost.TotalSeconds(),
                     p.cost.io_seconds + p.cost.compute_seconds);
  }
  EXPECT_TRUE(any_compute);

  std::set<std::vector<int>> sp, sc;
  for (const auto& p : rp.plans) sp.insert(p.opportunities);
  for (const auto& p : rc.plans) sc.insert(p.opportunities);
  EXPECT_EQ(sp, sc);

  // A caller-set rate table wins over calibration (the flag only fills a
  // missing table), so explicit tables remain reproducible across hosts.
  KernelRateTable fixed;
  fixed.elementwise_gflops = 1.0;
  fixed.gemm_gflops = 1.0;
  OptimizerOptions manual = calibrated;
  manual.cost.compute = fixed;
  auto rm1 = Optimize(w.program, manual);
  auto rm2 = Optimize(w.program, manual);
  ASSERT_EQ(rm1.plans.size(), rm2.plans.size());
  for (size_t i = 0; i < rm1.plans.size(); ++i) {
    EXPECT_DOUBLE_EQ(rm1.plans[i].cost.compute_seconds,
                     rm2.plans[i].cost.compute_seconds);
  }
}

}  // namespace
}  // namespace riot
