// SessionRuntime fast suite: admission control (reject / park / FIFO),
// per-session budgets charged against the shared pool, cross-session
// input sharing, and bit-exact outputs versus solo serial runs. The heavy
// {2,4,8}-session differential soak lives in session_stress_test.cc.
#include "ops/session_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/cost_model.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace {

// Serial solo reference: private pool, plan-exact, depth 0.
Runtime MustSoloRun(const Workload& w, Env* env, const std::string& dir,
                    uint64_t seed) {
  auto rt = OpenStores(env, w.program, dir);
  rt.status().CheckOK();
  InitInputs(w, *rt, seed).CheckOK();
  Executor ex(w.program, rt->raw(), w.kernels);
  ex.Run(w.program.original_schedule(), {}).status().CheckOK();
  return std::move(rt).ValueOrDie();
}

int64_t PlanPeakBytes(const Workload& w) {
  return EvaluatePlanCost(w.program, w.program.original_schedule(), {})
      .peak_memory_bytes;
}

TEST(SessionRuntimeTest, RejectsFootprintBeyondCapUpFront) {
  Workload w = MakeExample1(2, 2, 2);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/r");
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(InitInputs(w, *rt, 1).ok());

  SessionRuntimeOptions opts;
  opts.pool_cap_bytes = PlanPeakBytes(w) / 2;  // can never fit, even alone
  SessionRuntime runtime(opts);

  SessionSpec spec;
  spec.program = &w.program;
  Schedule sched = w.program.original_schedule();
  spec.schedule = &sched;
  spec.stores = rt->raw();
  spec.kernels = &w.kernels;
  auto r = runtime.Run(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(runtime.stats().sessions_rejected, 1);
  EXPECT_EQ(runtime.stats().sessions_completed, 0);
}

TEST(SessionRuntimeTest, SingleSessionBitExactAndWithinBudget) {
  Workload w = MakeExample1(3, 3, 3);
  auto env = NewMemEnv();
  Runtime ref = MustSoloRun(w, env.get(), "/ref", 42);

  auto rt = OpenStores(env.get(), w.program, "/s0");
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(InitInputs(w, *rt, 42).ok());

  SessionRuntimeOptions opts;
  opts.pool_cap_bytes = 4 * PlanPeakBytes(w);
  SessionRuntime runtime(opts);

  SessionSpec spec;
  spec.program = &w.program;
  Schedule sched = w.program.original_schedule();
  spec.schedule = &sched;
  spec.stores = rt->raw();
  spec.kernels = &w.kernels;
  spec.exec.pipeline_depth = 1;  // prefetch through the shared IoPool
  auto r = runtime.Run(spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r->budget_bytes, PlanPeakBytes(w));
  EXPECT_LE(r->peak_charged_bytes, r->budget_bytes);
  EXPECT_GT(r->peak_charged_bytes, 0);
  EXPECT_EQ(r->budget_rejections, 0);
  EXPECT_GT(r->exec.bytes_read, 0);
  for (int arr : w.output_arrays) {
    EXPECT_TRUE(VerifyBitEqual(w.program.array(arr),
                               ref.stores[static_cast<size_t>(arr)].get(),
                               rt->stores[static_cast<size_t>(arr)].get())
                    .ok());
  }
  BufferPoolSnapshot snap = runtime.pool()->Snapshot();
  EXPECT_EQ(snap.pinned_frames, 0);
  EXPECT_EQ(snap.required_bytes, 0);
  EXPECT_EQ(runtime.stats().sessions_completed, 1);
}

TEST(SessionRuntimeTest, ConcurrentSessionsShareInputsBitExact) {
  // Two sessions of the same program over the SAME input stores but
  // private outputs: frames of shared inputs dedup across sessions, and
  // both outputs must equal the solo reference bit for bit.
  Workload w = MakeExample1(4, 4, 4);
  auto env = NewMemEnv();
  Runtime ref = MustSoloRun(w, env.get(), "/ref", 7);

  auto shared = OpenStores(env.get(), w.program, "/shared");
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(InitInputs(w, *shared, 7).ok());

  auto rt_a_or = OpenStores(env.get(), w.program, "/sa");
  auto rt_b_or = OpenStores(env.get(), w.program, "/sb");
  ASSERT_TRUE(rt_a_or.ok() && rt_b_or.ok());
  Runtime rt_a = std::move(rt_a_or).ValueOrDie();
  Runtime rt_b = std::move(rt_b_or).ValueOrDie();

  // Per-session store maps: inputs from the shared runtime, the rest
  // (intermediate C, output E) private.
  auto session_stores = [&](Runtime& mine) {
    std::vector<BlockStore*> stores = mine.raw();
    for (int arr : w.input_arrays) {
      stores[static_cast<size_t>(arr)] =
          shared->stores[static_cast<size_t>(arr)].get();
    }
    return stores;
  };

  SessionRuntimeOptions opts;
  opts.pool_cap_bytes = 3 * PlanPeakBytes(w);
  SessionRuntime runtime(opts);

  Schedule sched = w.program.original_schedule();
  auto run_one = [&](Runtime& mine, int depth,
                     Result<SessionStats>* out) {
    SessionSpec spec;
    spec.program = &w.program;
    spec.schedule = &sched;
    spec.stores = session_stores(mine);
    spec.kernels = &w.kernels;
    spec.exec.pipeline_depth = depth;
    *out = runtime.Run(spec);
  };

  Result<SessionStats> ra = Status::Internal("unset");
  Result<SessionStats> rb = Status::Internal("unset");
  std::thread ta([&] { run_one(rt_a, 0, &ra); });
  std::thread tb([&] { run_one(rt_b, 2, &rb); });
  ta.join();
  tb.join();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_LE(ra->peak_charged_bytes, ra->budget_bytes);
  EXPECT_LE(rb->peak_charged_bytes, rb->budget_bytes);

  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    EXPECT_TRUE(VerifyBitEqual(info,
                               ref.stores[static_cast<size_t>(arr)].get(),
                               rt_a.stores[static_cast<size_t>(arr)].get())
                    .ok());
    EXPECT_TRUE(VerifyBitEqual(info,
                               ref.stores[static_cast<size_t>(arr)].get(),
                               rt_b.stores[static_cast<size_t>(arr)].get())
                    .ok());
  }
  BufferPoolSnapshot snap = runtime.pool()->Snapshot();
  EXPECT_EQ(snap.pinned_frames, 0);
  EXPECT_EQ(snap.required_bytes, 0);
  RuntimeStats rs = runtime.stats();
  EXPECT_EQ(rs.sessions_completed, 2);
  EXPECT_EQ(rs.sessions_failed, 0);

  // Retiring a private store drops its cache; the shared inputs too.
  EXPECT_TRUE(runtime
                  .ReleaseStore(rt_a.stores[static_cast<size_t>(
                                                w.output_arrays[0])]
                                    .get())
                  .ok());
  for (int arr : w.input_arrays) {
    EXPECT_TRUE(runtime
                    .ReleaseStore(
                        shared->stores[static_cast<size_t>(arr)].get())
                    .ok());
  }
}

TEST(SessionRuntimeTest, TenantsWritingOneSharedOutputAtDepth2) {
  // Two depth-2 sessions compute the same elementwise program from private
  // copies of the same inputs into ONE shared output store, so both write
  // every output block through one shared frame, on a disk slow enough
  // that each write-behind is still in flight when the other tenant
  // reaches the block. B runs one instance behind A: B's k-th kernel waits
  // until A has started its (k+1)-th, so A has written block k out (behind
  // or synchronously) while B holds, or is about to pin, the same frame.
  // Neither tenant may crash, tear the block or leak a pin, and the output
  // must equal the solo reference bit for bit.
  Workload w = MakeElementwiseChain(1000);
  ASSERT_EQ(w.program.statements().size(), 1u);  // fused: one write a block
  ASSERT_EQ(w.output_arrays.size(), 1u);
  const int out = w.output_arrays[0];
  auto mem = NewMemEnv();
  Runtime ref = MustSoloRun(w, mem.get(), "/ref", 11);
  auto slow = NewThrottledEnv(mem.get(), 1000.0, 1000.0,
                              /*per_request_ms=*/2.0, /*sleep_scale=*/1.0);
  auto rt_a = OpenStores(slow.get(), w.program, "/a");
  auto rt_b = OpenStores(slow.get(), w.program, "/b");
  auto rt_z = OpenStores(slow.get(), w.program, "/z");
  ASSERT_TRUE(rt_a.ok() && rt_b.ok() && rt_z.ok());
  ASSERT_TRUE(InitInputs(w, *rt_a, 11).ok());
  ASSERT_TRUE(InitInputs(w, *rt_b, 11).ok());

  SessionRuntimeOptions opts;
  opts.pool_cap_bytes = 8 * PlanPeakBytes(w);
  SessionRuntime runtime(opts);

  std::mutex mu;
  std::condition_variable cv;
  int a_calls = 0;
  bool a_done = false;
  int b_calls = 0;
  StatementKernel inner = w.kernels[0];
  std::vector<StatementKernel> kernels_a = w.kernels;
  kernels_a[0] = [&, inner](const std::vector<int64_t>& iter,
                            const std::vector<DenseView*>& views) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++a_calls;
    }
    cv.notify_all();
    inner(iter, views);
  };
  std::vector<StatementKernel> kernels_b = w.kernels;
  kernels_b[0] = [&, inner](const std::vector<int64_t>& iter,
                            const std::vector<DenseView*>& views) {
    {
      std::unique_lock<std::mutex> lock(mu);
      const int k = b_calls++;
      cv.wait(lock, [&] { return a_done || a_calls >= k + 2; });
    }
    inner(iter, views);
  };

  Schedule sched = w.program.original_schedule();
  auto make_spec = [&](const Runtime& mine,
                       const std::vector<StatementKernel>* kernels) {
    SessionSpec spec;
    spec.program = &w.program;
    spec.schedule = &sched;
    spec.stores = mine.raw();
    spec.stores[static_cast<size_t>(out)] =
        rt_z->stores[static_cast<size_t>(out)].get();
    spec.kernels = kernels;
    spec.exec.pipeline_depth = 2;
    return spec;
  };

  Result<SessionStats> ra = Status::Internal("unset");
  Result<SessionStats> rb = Status::Internal("unset");
  std::thread ta([&] {
    ra = runtime.Run(make_spec(*rt_a, &kernels_a));
    {
      std::lock_guard<std::mutex> lock(mu);
      a_done = true;
    }
    cv.notify_all();
  });
  std::thread tb([&] { rb = runtime.Run(make_spec(*rt_b, &kernels_b)); });
  ta.join();
  tb.join();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->exec.block_writes, rb->exec.block_writes);
  EXPECT_TRUE(VerifyBitEqual(w.program.array(out),
                             ref.stores[static_cast<size_t>(out)].get(),
                             rt_z->stores[static_cast<size_t>(out)].get())
                  .ok());
  BufferPoolSnapshot snap = runtime.pool()->Snapshot();
  EXPECT_EQ(snap.pinned_frames, 0);
  EXPECT_EQ(snap.required_bytes, 0);
  EXPECT_EQ(snap.pending_writebacks, 0);
  EXPECT_EQ(runtime.stats().sessions_completed, 2);
}

TEST(SessionRuntimeTest, AdmissionParksUntilCapacityFrees) {
  // Deterministic parking: session A's kernel blocks on a gate while B —
  // whose reservation cannot coexist with A's — queues behind it. B must
  // be admitted only after A completes, and both must succeed.
  Workload w = MakeExample1(2, 2, 2);
  auto env = NewMemEnv();
  const int64_t peak = PlanPeakBytes(w);

  auto rt_a = OpenStores(env.get(), w.program, "/a");
  auto rt_b = OpenStores(env.get(), w.program, "/b");
  ASSERT_TRUE(rt_a.ok() && rt_b.ok());
  ASSERT_TRUE(InitInputs(w, *rt_a, 3).ok());
  ASSERT_TRUE(InitInputs(w, *rt_b, 3).ok());

  SessionRuntimeOptions opts;
  opts.pool_cap_bytes = 3 * peak;  // fits one 2*peak reservation, not two
  SessionRuntime runtime(opts);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool a_started = false;
  bool gate_open = false;

  // A's kernels signal entry and wait for the gate on first invocation.
  std::vector<StatementKernel> gated = w.kernels;
  StatementKernel inner = gated[0];
  gated[0] = [&, inner](const std::vector<int64_t>& iter,
                        const std::vector<DenseView*>& views) {
    {
      std::unique_lock<std::mutex> lock(gate_mu);
      a_started = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    inner(iter, views);
  };

  Schedule sched = w.program.original_schedule();
  auto make_spec = [&](const Runtime& rt,
                       const std::vector<StatementKernel>* kernels) {
    SessionSpec spec;
    spec.program = &w.program;
    spec.schedule = &sched;
    spec.stores = rt.raw();
    spec.kernels = kernels;
    spec.footprint_bytes = 2 * peak;
    return spec;
  };

  Result<SessionStats> ra = Status::Internal("unset");
  Result<SessionStats> rb = Status::Internal("unset");
  std::thread ta([&] { ra = runtime.Run(make_spec(*rt_a, &gated)); });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return a_started; });
  }
  // A is admitted and running (blocked in its kernel); B cannot fit.
  std::thread tb([&] { rb = runtime.Run(make_spec(*rt_b, &w.kernels)); });
  // Wait until B is observably parked in the admission queue.
  for (int i = 0; i < 2000 && runtime.stats().sessions_parked == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime.stats().sessions_parked, 1);
  EXPECT_EQ(runtime.stats().sessions_completed, 0);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  ta.join();
  tb.join();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_TRUE(rb->parked_for_admission);
  RuntimeStats rs = runtime.stats();
  EXPECT_EQ(rs.sessions_completed, 2);
  EXPECT_EQ(rs.sessions_parked, 1);
  EXPECT_LE(rs.peak_reserved_bytes, opts.pool_cap_bytes);
  EXPECT_EQ(rs.peak_concurrent_sessions, 1);
}

TEST(SessionRuntimeTest, ParkTimeoutGiveUpLeaksNothing) {
  // Fault injection for the starved-fetch give-up path: a session whose
  // declared footprint (hence pool budget) is too small for even one
  // block deterministically starves — every fetch is a budget rejection,
  // the executor parks-and-retries, and after park_timeout_seconds it
  // gives up with kResourceExhausted. The give-up must leak nothing: no
  // pins, no load latches, no admission reservation — the co-tenant
  // running beside it finishes bit-exact, and a follow-up session needing
  // the WHOLE cap (proof the reservation was returned) reusing the SAME
  // stores (proof no latch/pin survived on their frames) runs clean.
  Workload w = MakeExample1(2, 2, 2);
  auto env = NewMemEnv();
  Runtime ref = MustSoloRun(w, env.get(), "/ref", 3);
  const int64_t peak = PlanPeakBytes(w);

  auto rt_a = OpenStores(env.get(), w.program, "/a");
  auto rt_b = OpenStores(env.get(), w.program, "/b");
  ASSERT_TRUE(rt_a.ok() && rt_b.ok());
  ASSERT_TRUE(InitInputs(w, *rt_a, 3).ok());
  ASSERT_TRUE(InitInputs(w, *rt_b, 3).ok());

  SessionRuntimeOptions opts;
  opts.pool_cap_bytes = 4 * peak;
  opts.park_timeout_seconds = 0.05;  // starved fetches give up fast
  SessionRuntime runtime(opts);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool a_started = false;
  bool gate_open = false;
  std::vector<StatementKernel> gated = w.kernels;
  StatementKernel inner = gated[0];
  gated[0] = [&, inner](const std::vector<int64_t>& iter,
                        const std::vector<DenseView*>& views) {
    {
      std::unique_lock<std::mutex> lock(gate_mu);
      a_started = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    inner(iter, views);
  };

  Schedule sched = w.program.original_schedule();
  auto make_spec = [&](const Runtime& rt,
                       const std::vector<StatementKernel>* kernels,
                       int64_t footprint) {
    SessionSpec spec;
    spec.program = &w.program;
    spec.schedule = &sched;
    spec.stores = rt.raw();
    spec.kernels = kernels;
    spec.footprint_bytes = footprint;
    return spec;
  };

  Result<SessionStats> ra = Status::Internal("unset");
  std::thread ta(
      [&] { ra = runtime.Run(make_spec(*rt_a, &gated, 2 * peak)); });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return a_started; });
  }

  // B: a 16-byte budget cannot hold any block — starves and gives up.
  auto rb = runtime.Run(make_spec(*rt_b, &w.kernels, 16));
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(runtime.stats().sessions_failed, 1);

  // The co-tenant was never disturbed.
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  ta.join();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    EXPECT_TRUE(VerifyBitEqual(info,
                               ref.stores[static_cast<size_t>(arr)].get(),
                               rt_a->stores[static_cast<size_t>(arr)].get())
                    .ok());
  }

  // No pins or required bytes survive the give-up.
  BufferPoolSnapshot snap = runtime.pool()->Snapshot();
  EXPECT_EQ(snap.pinned_frames, 0);
  EXPECT_EQ(snap.required_bytes, 0);

  // Full-cap follow-up over B's stores: admits without parking (the dead
  // session's reservation is gone) and runs to a bit-exact finish (its
  // frames carry no stale latch or pin).
  auto rc = runtime.Run(make_spec(*rt_b, &w.kernels, 4 * peak));
  ASSERT_TRUE(rc.ok()) << rc.status().ToString();
  EXPECT_FALSE(rc->parked_for_admission);
  EXPECT_LE(rc->peak_charged_bytes, rc->budget_bytes);
  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    EXPECT_TRUE(VerifyBitEqual(info,
                               ref.stores[static_cast<size_t>(arr)].get(),
                               rt_b->stores[static_cast<size_t>(arr)].get())
                    .ok());
  }
  EXPECT_EQ(runtime.stats().sessions_completed, 2);
}

}  // namespace
}  // namespace riot
