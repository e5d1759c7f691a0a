// Multi-tenant differential soak (stress-labeled; the CI TSan leg runs it
// instrumented): {2, 4, 8} concurrent sessions — mixed programs, mixed
// plans (original and optimizer-best), mixed pipeline depths — execute
// over ONE shared BufferPool/IoPool, with inputs shared per program so
// cross-session dedup and load coalescing are exercised for real. Every
// session's outputs must be bit-identical to its own solo serial run,
// every session's charged bytes must stay within its admitted budget, no
// pin may leak, and no session may fail or livelock in admission.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.h"
#include "core/optimizer.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/session_runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace {

struct PlanUnderTest {
  Schedule schedule;
  std::vector<const CoAccess*> realized;
  int64_t peak_bytes = 0;
};

// One program variant: workload + its two plans + shared inputs + per-plan
// solo reference outputs.
struct Variant {
  Workload w;
  OptimizationResult opt;          // owns the schedules/sharing realized
  std::vector<PlanUnderTest> plans;  // [0] original, [1] optimizer best
  Runtime shared_inputs;
  std::vector<Runtime> refs;  // solo reference outputs per plan
};

void BuildVariant(Variant* v, Env* env, const std::string& tag,
                  uint64_t seed) {
  v->opt = Optimize(v->w.program);

  auto plan_of = [&](const Plan& p) {
    PlanUnderTest put;
    put.schedule = p.schedule;
    for (int oi : p.opportunities) {
      put.realized.push_back(
          &v->opt.analysis.sharing[static_cast<size_t>(oi)]);
    }
    put.peak_bytes =
        EvaluatePlanCost(v->w.program, put.schedule, put.realized)
            .peak_memory_bytes;
    return put;
  };
  v->plans.push_back(plan_of(v->opt.plans[0]));
  v->plans.push_back(plan_of(v->opt.best()));

  auto shared = OpenStores(env, v->w.program, "/" + tag + "_in");
  shared.status().CheckOK();
  v->shared_inputs = std::move(shared).ValueOrDie();
  InitInputs(v->w, v->shared_inputs, seed).CheckOK();

  // Solo references: private pool, plan-exact serial engine, per plan.
  for (size_t pi = 0; pi < v->plans.size(); ++pi) {
    auto rt = OpenStores(env, v->w.program,
                         "/" + tag + "_ref" + std::to_string(pi));
    rt.status().CheckOK();
    InitInputs(v->w, *rt, seed).CheckOK();
    Executor ex(v->w.program, rt->raw(), v->w.kernels);
    ex.Run(v->plans[pi].schedule, v->plans[pi].realized)
        .status()
        .CheckOK();
    v->refs.push_back(std::move(rt).ValueOrDie());
  }
}

// Session stores: shared inputs, private everything else.
std::vector<BlockStore*> SessionStores(const Variant& v, Runtime& mine) {
  std::vector<BlockStore*> stores = mine.raw();
  for (int arr : v.w.input_arrays) {
    stores[static_cast<size_t>(arr)] =
        v.shared_inputs.stores[static_cast<size_t>(arr)].get();
  }
  return stores;
}

TEST(SessionStressTest, ConcurrentFuzzedSessionsBitExactBudgetedNoLeaks) {
  auto env = NewMemEnv();
  std::vector<Variant> variants(2);
  variants[0].w = MakeExample1(4, 4, 4);
  variants[1].w = MakeExample1(5, 3, 4);
  BuildVariant(&variants[0], env.get(), "va", /*seed=*/11);
  BuildVariant(&variants[1], env.get(), "vb", /*seed=*/23);

  int64_t max_peak = 0;
  for (const Variant& v : variants) {
    for (const PlanUnderTest& p : v.plans) {
      max_peak = std::max(max_peak, p.peak_bytes);
    }
  }
  ASSERT_GT(max_peak, 0);

  int round = 0;
  for (const int nsessions : {2, 4, 8}) {
    SCOPED_TRACE("nsessions " + std::to_string(nsessions));
    // Capacity for ~3 max-size tenants: with 8 sessions admission MUST
    // park some of them and still drain the queue (livelock check).
    SessionRuntimeOptions ro;
    ro.pool_cap_bytes = 3 * max_peak;
    ro.io_threads = 2;
    SessionRuntime runtime(ro);

    struct SessionCase {
      const Variant* variant;
      const PlanUnderTest* plan;
      int depth;
      Runtime rt;
      Result<SessionStats> result = Status::Internal("unset");
    };
    std::vector<SessionCase> cases(static_cast<size_t>(nsessions));
    for (int i = 0; i < nsessions; ++i) {
      SessionCase& c = cases[static_cast<size_t>(i)];
      c.variant = &variants[static_cast<size_t>(i % 2)];
      c.plan = &c.variant->plans[static_cast<size_t>((i / 2) % 2)];
      c.depth = i % 3;
      auto rt = OpenStores(env.get(), c.variant->w.program,
                           "/r" + std::to_string(round) + "_s" +
                               std::to_string(i));
      rt.status().CheckOK();
      c.rt = std::move(rt).ValueOrDie();
    }

    std::vector<std::thread> threads;
    for (int i = 0; i < nsessions; ++i) {
      threads.emplace_back([&runtime, &c = cases[static_cast<size_t>(i)]] {
        SessionSpec spec;
        spec.program = &c.variant->w.program;
        spec.schedule = &c.plan->schedule;
        spec.realized = c.plan->realized;
        spec.stores = SessionStores(*c.variant, c.rt);
        spec.kernels = &c.variant->w.kernels;
        spec.exec.pipeline_depth = c.depth;
        c.result = runtime.Run(spec);
      });
    }
    for (auto& t : threads) t.join();

    for (int i = 0; i < nsessions; ++i) {
      SessionCase& c = cases[static_cast<size_t>(i)];
      SCOPED_TRACE("session " + std::to_string(i));
      ASSERT_TRUE(c.result.ok()) << c.result.status().ToString();
      // Budget enforced: charged bytes never exceeded the admitted slice.
      // (budget_rejections may be transiently nonzero: a shared input
      // frame stays on its first claimant's tab until every tenant's pin
      // drops, so a tenant can be briefly over-charged for a frame only
      // its neighbor still uses — the executor parks and retries, and the
      // peak-charge bound below is what the budget guarantees.)
      EXPECT_LE(c.result->peak_charged_bytes, c.result->budget_bytes);
      // Bit-exact versus this session's own solo serial run.
      const size_t plan_idx =
          static_cast<size_t>(c.plan - c.variant->plans.data());
      const Runtime& ref = c.variant->refs[plan_idx];
      for (int arr : c.variant->w.output_arrays) {
        Status eq = VerifyBitEqual(
            c.variant->w.program.array(arr),
            ref.stores[static_cast<size_t>(arr)].get(),
            c.rt.stores[static_cast<size_t>(arr)].get());
        EXPECT_TRUE(eq.ok()) << eq.ToString();
      }
    }

    // No leaked pins, retentions, or in-flight state in the shared pool.
    BufferPoolSnapshot snap = runtime.pool()->Snapshot();
    EXPECT_EQ(snap.pinned_frames, 0);
    EXPECT_EQ(snap.required_bytes, 0);
    EXPECT_EQ(snap.prefetch_bytes, 0);
    EXPECT_EQ(snap.pending_writebacks, 0);

    RuntimeStats rs = runtime.stats();
    EXPECT_EQ(rs.sessions_completed, nsessions);
    EXPECT_EQ(rs.sessions_failed, 0);
    EXPECT_EQ(rs.sessions_rejected, 0);
    EXPECT_LE(rs.peak_reserved_bytes, ro.pool_cap_bytes);
    EXPECT_GT(rs.bytes_read, 0);
    // Whether any session observably parked depends on timing (a fast
    // tenant may finish before the queue fills); the livelock check is
    // that every session completed above. Deterministic parking is
    // covered by session_runtime_test's gated-kernel case.

    // Retire this round's private stores from the shared pool before
    // their Runtime objects die (address reuse must never alias cache).
    for (SessionCase& c : cases) {
      for (size_t a = 0; a < c.rt.stores.size(); ++a) {
        const int arr = static_cast<int>(a);
        const auto& inputs = c.variant->w.input_arrays;
        if (std::find(inputs.begin(), inputs.end(), arr) != inputs.end()) {
          continue;  // shared input store, still alive
        }
        Status st = runtime.ReleaseStore(c.rt.stores[a].get());
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    }
    ++round;
  }
}

}  // namespace
}  // namespace riot
