// Replacement-policy x memory-cap sweep (paper Section 2: buffer-pool
// sharing is "low-level, opportunistic, and extremely sensitive to ... the
// replacement policy"). Runs the 2mm workload under the
// opportunistic-cache ablation at shrinking caps with LRU and ScheduleOpt
// (Belady/MIN from the plan's access script), quantifying how
// much of the LRU read traffic the schedule's foreknowledge eliminates —
// and cross-checks each measured point against the cost model's cache
// simulator.
//
// A second, multi-tenant sweep runs three concurrent 2mm sessions over ONE
// shared sub-working-set pool, kernels serialized into a fixed global
// order by a LockstepGate so the numbers are deterministic: with several
// plans bound at once ScheduleOpt's merged future-use clock must still
// beat LRU (checked strictly at the tightest cap), outputs must stay
// bit-identical to solo runs, and every point is cross-checked against
// SimulateMultiTenantCache exactly. `--json <path>` emits both sweeps
// machine-readably (reads, evictions, wall) for the perf
// trajectory.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/cost_model.h"
#include "core/access_plan.h"
#include "exec/verify.h"
#include "ops/lockstep.h"
#include "storage/buffer_pool.h"
#include "util/logging.h"

namespace riot {
namespace bench {
namespace {

void Run(BenchJson* json) {
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, ExecScale(100));
  w.program.Validate().CheckOK();
  auto env = NewMemEnv();

  int64_t total_bytes = 0;
  for (size_t a = 0; a < w.program.arrays().size(); ++a) {
    const ArrayInfo& arr = w.program.array(static_cast<int>(a));
    total_bytes += arr.BlockBytes() * arr.NumBlocks();
  }
  const PlanCost unshared =
      EvaluatePlanCost(w.program, w.program.original_schedule(), {});

  std::printf(
      "\n=== replacement policy x cap sweep (2mm Config A, opportunistic "
      "cache, MemEnv, 1/%lld scale; total array bytes %.1f MB) ===\n",
      static_cast<long long>(ExecScale(100)), total_bytes / 1e6);
  std::printf("%10s %8s %12s %10s %8s %12s %9s\n", "cap(%)", "policy",
              "block_reads", "evictions", "hits", "saved_reads", "wall(s)");

  int run_idx = 0;
  for (const double frac : {1.0, 0.5, 0.25, 0.125}) {
    const int64_t cap = static_cast<int64_t>(total_bytes * frac);
    if (cap < unshared.peak_memory_bytes) {
      std::printf("%9.0f%% %8s (cap below the largest instance footprint; "
                  "skipped)\n", frac * 100, "-");
      continue;
    }
    int64_t lru_reads = 0;
    for (const ReplacementKind kind :
         {ReplacementKind::kLru, ReplacementKind::kScheduleOpt}) {
      auto rt = OpenStores(env.get(), w.program,
                           "/swp" + std::to_string(run_idx++));
      rt.status().CheckOK();
      InitInputs(w, *rt, /*seed=*/1234).CheckOK();
      ExecOptions eo;
      eo.mode = ExecMode::kOpportunisticCache;
      eo.memory_cap_bytes = cap;
      eo.replacement = kind;
      Executor ex(w.program, rt->raw(), w.kernels, eo);
      auto stats = ex.Run(w.program.original_schedule(), {});
      stats.status().CheckOK();

      // The measured point must match the cache simulator exactly — the
      // same guarantee the differential tests enforce, kept visible here.
      CacheSimOptions sim;
      sim.policy = kind;
      sim.cap_bytes = cap;
      sim.opportunistic = true;
      auto predicted = SimulateCacheBehavior(
          w.program, w.program.original_schedule(), {}, sim);
      predicted.status().CheckOK();
      RIOT_CHECK_EQ(predicted->block_reads, stats->block_reads);
      RIOT_CHECK_EQ(predicted->evictions, stats->pool.evictions);

      if (kind == ReplacementKind::kLru) lru_reads = stats->block_reads;
      std::printf("%9.0f%% %8s %12lld %10lld %8lld %12lld %9.3f",
                  frac * 100, ReplacementKindName(kind).c_str(),
                  static_cast<long long>(stats->block_reads),
                  static_cast<long long>(stats->pool.evictions),
                  static_cast<long long>(stats->pool.hits),
                  static_cast<long long>(stats->policy_saved_reads),
                  stats->wall_seconds);
      if (kind == ReplacementKind::kScheduleOpt && lru_reads > 0) {
        std::printf("   (%.1f%% of LRU reads)\n",
                    100.0 * static_cast<double>(stats->block_reads) /
                        static_cast<double>(lru_reads));
      } else {
        std::printf("\n");
      }
      if (json != nullptr) {
        json->Add("original", "replacement", /*threads=*/1,
                  /*pipeline_depth=*/0, *stats, ReplacementKindName(kind),
                  cap);
      }
    }
  }
  std::printf(
      "(ScheduleOpt = Belady/MIN over the plan's exact future block-access "
      "order; the gap to LRU is read traffic the schedule's foreknowledge "
      "eliminates. Every row is cross-checked against the cost model's "
      "cache simulator.)\n");
}

// Three concurrent 2mm sessions over one shared pool, kernels serialized
// into a fixed seeded interleaving so every (cap, policy) point is exactly
// reproducible and exactly predictable by SimulateMultiTenantCache.
void RunMultiTenant(BenchJson* json) {
  const int kTenants = 3;
  auto env = NewMemEnv();

  struct Tenant {
    Workload w;
    int64_t footprint = 0;
    size_t instances = 0;
    std::vector<int> pool_ids;
  };
  std::vector<Tenant> tenants(kTenants);
  int next_pool_id = 0;
  int64_t total_bytes = 0;
  int64_t sum_footprint = 0;
  for (int t = 0; t < kTenants; ++t) {
    Tenant& ten = tenants[static_cast<size_t>(t)];
    ten.w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, ExecScale(100));
    ten.w.program.Validate().CheckOK();
    const PlanCost cost = EvaluatePlanCost(
        ten.w.program, ten.w.program.original_schedule(), {});
    ten.footprint = cost.peak_memory_bytes;
    sum_footprint += ten.footprint;
    ten.instances = LowerPlan(ten.w.program,
                              ten.w.program.original_schedule(), {})
                        .ValueOrDie()
                        .order.size();
    for (size_t a = 0; a < ten.w.program.arrays().size(); ++a) {
      const ArrayInfo& arr = ten.w.program.array(static_cast<int>(a));
      total_bytes += arr.BlockBytes() * arr.NumBlocks();
      ten.pool_ids.push_back(next_pool_id++);
    }
  }

  // One seeded interleaving shared by every (cap, policy) point: reads
  // are only comparable on a fixed global kernel order.
  std::vector<int> interleaving;
  for (int t = 0; t < kTenants; ++t) {
    interleaving.insert(interleaving.end(),
                        tenants[static_cast<size_t>(t)].instances, t);
  }
  std::mt19937_64 rng(4242);
  std::shuffle(interleaving.begin(), interleaving.end(), rng);

  // Solo references: the bit-identity baseline for every tenant.
  std::vector<std::unique_ptr<Runtime>> ref_rts;
  for (int t = 0; t < kTenants; ++t) {
    Tenant& ten = tenants[static_cast<size_t>(t)];
    auto rt = OpenStores(env.get(), ten.w.program,
                         "/mt_ref" + std::to_string(t));
    rt.status().CheckOK();
    InitInputs(ten.w, *rt, /*seed=*/1234 + t).CheckOK();
    Executor ex(ten.w.program, rt->raw(), ten.w.kernels);
    ex.Run(ten.w.program.original_schedule(), {}).status().CheckOK();
    ref_rts.push_back(std::make_unique<Runtime>(std::move(rt).ValueOrDie()));
  }

  std::printf(
      "\n=== multi-tenant replacement sweep (%d lockstep 2mm sessions, one "
      "shared pool; sum of footprints %.1f MB, total array bytes %.1f MB) "
      "===\n",
      kTenants, sum_footprint / 1e6, total_bytes / 1e6);
  std::printf("%12s %8s %12s %10s %10s %12s\n", "cap(MB)", "policy",
              "block_reads", "evictions", "hits", "saved_reads");

  // Tightest cap: well below the tenants' combined working set (so
  // evictions decide the read counts) but far above the sum of pinned
  // footprints (so no policy degenerates into evict-everything, where all
  // of them read alike).
  const int64_t tight_cap = std::max(sum_footprint, total_bytes / 8);
  int run_idx = 0;
  for (const int64_t cap : {tight_cap, total_bytes / 2, total_bytes}) {
    std::map<ReplacementKind, int64_t> total_reads;
    for (const ReplacementKind kind :
         {ReplacementKind::kLru, ReplacementKind::kScheduleOpt}) {
      BufferPool pool(cap, MakeReplacementPolicy(kind));
      LockstepGate gate(kTenants, interleaving);

      std::vector<std::unique_ptr<Runtime>> rts;
      std::vector<std::unique_ptr<PoolAccount>> accounts;
      std::vector<std::vector<StatementKernel>> gated_kernels;
      for (int t = 0; t < kTenants; ++t) {
        Tenant& ten = tenants[static_cast<size_t>(t)];
        auto rt = OpenStores(env.get(), ten.w.program,
                             "/mt" + std::to_string(run_idx) + "_" +
                                 std::to_string(t));
        rt.status().CheckOK();
        InitInputs(ten.w, *rt, /*seed=*/1234 + t).CheckOK();
        rts.push_back(
            std::make_unique<Runtime>(std::move(rt).ValueOrDie()));
        auto account = std::make_unique<PoolAccount>();
        account->budget_bytes = ten.footprint;
        accounts.push_back(std::move(account));
        std::vector<StatementKernel> wrapped;
        for (const StatementKernel& k : ten.w.kernels) {
          wrapped.push_back([&gate, t, k](const std::vector<int64_t>& iter,
                                          const std::vector<DenseView*>& v) {
            gate.EnterKernel(t);
            k(iter, v);
          });
        }
        gated_kernels.push_back(std::move(wrapped));
      }
      ++run_idx;

      std::vector<Result<ExecStats>> stats(
          kTenants, Result<ExecStats>(Status::Internal("not run")));
      std::vector<std::thread> threads;
      for (int t = 0; t < kTenants; ++t) {
        Tenant& ten = tenants[static_cast<size_t>(t)];
        threads.emplace_back([&, t]() {
          SessionBinding binding;
          binding.account = accounts[static_cast<size_t>(t)].get();
          binding.pool_array_ids = ten.pool_ids;
          ExecOptions eo;
          eo.shared_pool = &pool;
          eo.replacement = kind;
          eo.session = &binding;
          Executor ex(ten.w.program, rts[static_cast<size_t>(t)]->raw(),
                      gated_kernels[static_cast<size_t>(t)], eo);
          stats[static_cast<size_t>(t)] =
              ex.Run(ten.w.program.original_schedule(), {});
          gate.Finish(t);
        });
        gate.AwaitArrival(t);
      }
      gate.Start();
      for (std::thread& th : threads) th.join();

      // Exact simulator cross-check + bit-identity, same guarantees the
      // differential oracle enforces, kept visible in the bench.
      std::vector<TenantCacheScript> scripts;
      for (int t = 0; t < kTenants; ++t) {
        Tenant& ten = tenants[static_cast<size_t>(t)];
        TenantCacheScript ts;
        ts.program = &ten.w.program;
        ts.schedule = &ten.w.program.original_schedule();
        ts.pool_array_ids = ten.pool_ids;
        ts.budget_bytes = ten.footprint;
        scripts.push_back(std::move(ts));
      }
      CacheSimOptions sim;
      sim.policy = kind;
      sim.cap_bytes = cap;
      auto predicted = SimulateMultiTenantCache(scripts, interleaving, sim);
      predicted.status().CheckOK();

      ExecStats agg;
      for (int t = 0; t < kTenants; ++t) {
        stats[static_cast<size_t>(t)].status().CheckOK();
        const ExecStats& st = *stats[static_cast<size_t>(t)];
        const CacheSimResult& per =
            predicted->per_tenant[static_cast<size_t>(t)];
        RIOT_CHECK_EQ(per.block_reads, st.block_reads);
        RIOT_CHECK_EQ(per.policy_saved_reads, st.policy_saved_reads);
        agg.block_reads += st.block_reads;
        agg.block_writes += st.block_writes;
        agg.bytes_read += st.bytes_read;
        agg.bytes_written += st.bytes_written;
        agg.policy_saved_reads += st.policy_saved_reads;
        agg.io_seconds += st.io_seconds;
        agg.compute_seconds += st.compute_seconds;
        agg.wall_seconds += st.wall_seconds;
        for (int arr : tenants[static_cast<size_t>(t)].w.output_arrays) {
          auto diff = MaxAbsDifference(
              tenants[static_cast<size_t>(t)].w.program.array(arr),
              ref_rts[static_cast<size_t>(t)]
                  ->stores[static_cast<size_t>(arr)]
                  .get(),
              rts[static_cast<size_t>(t)]
                  ->stores[static_cast<size_t>(arr)]
                  .get());
          diff.status().CheckOK();
          RIOT_CHECK_EQ(*diff, 0.0);
        }
      }
      const BufferPoolStats ps = pool.stats();
      RIOT_CHECK_EQ(predicted->total.evictions, ps.evictions);
      RIOT_CHECK_EQ(predicted->total.hits, ps.hits);
      agg.pool = ps;
      total_reads[kind] = agg.block_reads;

      std::printf("%12.1f %8s %12lld %10lld %10lld %12lld\n", cap / 1e6,
                  ReplacementKindName(kind).c_str(),
                  static_cast<long long>(agg.block_reads),
                  static_cast<long long>(ps.evictions),
                  static_cast<long long>(ps.hits),
                  static_cast<long long>(agg.policy_saved_reads));
      if (json != nullptr) {
        json->Add("multitenant", "replacement", /*threads=*/kTenants,
                  /*pipeline_depth=*/0, agg, ReplacementKindName(kind),
                  cap);
      }
    }
    // The merged-clock payoff, asserted where it matters: at the tightest
    // (sub-working-set) cap the schedules' foreknowledge must beat LRU
    // strictly even with every plan bound at once.
    if (cap == tight_cap) {
      RIOT_CHECK_LT(total_reads[ReplacementKind::kScheduleOpt],
                    total_reads[ReplacementKind::kLru]);
    } else {
      RIOT_CHECK_LE(total_reads[ReplacementKind::kScheduleOpt],
                    total_reads[ReplacementKind::kLru]);
    }
  }
  std::printf(
      "(one fixed kernel interleaving per table: every policy faces the "
      "identical global access order, so the read gap is the policy alone. "
      "Each row is cross-checked against SimulateMultiTenantCache and "
      "bit-compared against solo runs.)\n");
}

}  // namespace
}  // namespace bench
}  // namespace riot

int main(int argc, char** argv) {
  riot::bench::BenchJson json("replacement", argc, argv);
  riot::bench::Run(&json);
  riot::bench::RunMultiTenant(&json);
  json.Flush();
  return 0;
}
