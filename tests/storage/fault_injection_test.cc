// Failure injection: I/O errors must propagate cleanly (as Status) through
// every layer — block stores, buffer pool, executor — never crash or
// corrupt.
#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/session_runtime.h"
#include "ops/workload.h"
#include "storage/block_store.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"

namespace riot {
namespace {

TEST(FaultInjectionTest, StoreSurfacesInjectedErrors) {
  auto mem = NewMemEnv();
  auto env = NewFaultyEnv(mem.get(), /*fail_after_ops=*/3);
  auto store = OpenDaf(env.get(), "/f", 64, 8);
  std::vector<uint8_t> buf(64);
  EXPECT_TRUE((*store)->WriteBlock(0, buf.data()).ok());
  EXPECT_TRUE((*store)->WriteBlock(1, buf.data()).ok());
  EXPECT_TRUE((*store)->ReadBlock(0, buf.data()).ok());
  auto st = (*store)->ReadBlock(1, buf.data());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, BufferPoolPropagatesLoadFailure) {
  auto mem = NewMemEnv();
  {
    auto pre = OpenDaf(mem.get(), "/f", 64, 8);
    std::vector<uint8_t> buf(64);
    ASSERT_TRUE((*pre)->WriteBlock(0, buf.data()).ok());
  }
  auto env = NewFaultyEnv(mem.get(), 0);  // fail immediately
  auto store = OpenDaf(env.get(), "/f", 64, 8);
  BufferPool pool(1024);
  // The frame's creator fills it; its read fails, so it discards the frame
  // instead of publishing it with MarkLoaded.
  bool resident = true;
  auto f = pool.Fetch(0, 0, 64, &resident, nullptr, /*coalesce_loads=*/true);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(resident);
  Status st = (*store)->ReadBlock(0, (*f)->data.data());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  pool.Discard(*f);
  // The pool must not leak the garbage frame: the next fetch misses again.
  EXPECT_EQ(pool.Probe(0, 0), nullptr);
  EXPECT_EQ(pool.used_bytes(), 0);
  auto again = pool.Fetch(0, 0, 64, &resident, nullptr,
                          /*coalesce_loads=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(resident);
  pool.Discard(*again);
  EXPECT_EQ(pool.PinnedFrames(), 0);
}

TEST(FaultInjectionTest, ExecutorReturnsErrorMidPlan) {
  Workload w = MakeExample1(2, 2, 1);
  auto mem = NewMemEnv();
  // Initialize inputs through the healthy env, then run through a faulty
  // wrapper that dies partway into execution.
  {
    auto rt = OpenStores(mem.get(), w.program, "/d");
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  }
  auto env = NewFaultyEnv(mem.get(), /*fail_after_ops=*/7);
  auto rt = OpenStores(env.get(), w.program, "/d");
  ASSERT_TRUE(rt.ok());
  Executor ex(w.program, rt->raw(), w.kernels);
  auto stats = ex.Run(w.program.original_schedule(), {});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, ParallelExecutorSurfacesErrorsCleanly) {
  // An I/O error injected at an arbitrary point of a parallel run must
  // surface as a clean Status from Executor::Run: all kernel and I/O
  // workers joined (a hang here trips the ctest timeout), no frame left
  // pinned, no retention left behind — asserted through a shared pool.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto mem = NewMemEnv();
  {
    auto rt = OpenStores(mem.get(), w.program, "/d");
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  }
  size_t failures = 0;
  for (int64_t fail_after : {0, 1, 3, 9, 17, 40, 77, 150, 400}) {
    SCOPED_TRACE("fail_after=" + std::to_string(fail_after));
    auto env = NewFaultyEnv(mem.get(), fail_after);
    auto rt = OpenStores(env.get(), w.program, "/d");
    if (!rt.ok()) continue;  // store open itself hit the fault: also clean
    BufferPool pool(int64_t{1} << 30);
    ExecOptions eo;
    eo.exec_threads = 4;
    eo.pipeline_depth = 2;
    eo.shared_pool = &pool;
    Executor ex(w.program, rt->raw(), w.kernels, eo);
    auto stats = ex.Run(w.program.original_schedule(), {});
    if (!stats.ok()) {
      EXPECT_EQ(stats.status().code(), StatusCode::kIoError)
          << stats.status().ToString();
      ++failures;
    }
    EXPECT_EQ(pool.PinnedFrames(), 0);
    EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  }
  EXPECT_GT(failures, 0u) << "every fail point outran the program";
}

TEST(FaultInjectionTest, FailedLoadNeverPoisonsSharedPool) {
  // A failed disk read leaves its target frame zero-filled; the frame must
  // be discarded, not left registered as clean cache — otherwise a later
  // run sharing the pool (whose parallel engine serves resident frames
  // without re-reading disk) would silently compute on zeros.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto mem = NewMemEnv();
  Runtime healthy_ref;
  {
    auto rt = OpenStores(mem.get(), w.program, "/p");
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
    auto ref = OpenStores(mem.get(), w.program, "/p_ref");
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(InitInputs(w, *ref, 5).ok());
    Executor ex(w.program, ref->raw(), w.kernels);
    auto st = ex.Run(w.program.original_schedule(), {});
    ASSERT_TRUE(st.ok());
    healthy_ref = std::move(ref).ValueOrDie();
  }

  BufferPool pool(int64_t{1} << 30);
  size_t poisoned_attempts = 0;
  for (int64_t fail_after : {5, 20, 60, 120}) {
    auto env = NewFaultyEnv(mem.get(), fail_after);
    auto rt = OpenStores(env.get(), w.program, "/p");
    if (!rt.ok()) continue;
    ExecOptions eo;
    eo.exec_threads = 4;
    eo.pipeline_depth = 2;
    eo.shared_pool = &pool;
    Executor ex(w.program, rt->raw(), w.kernels, eo);
    auto stats = ex.Run(w.program.original_schedule(), {});
    if (!stats.ok()) ++poisoned_attempts;
    EXPECT_EQ(pool.PinnedFrames(), 0);
  }
  ASSERT_GT(poisoned_attempts, 0u);

  // Same pool, healthy env: outputs must match a fresh reference exactly.
  auto rt = OpenStores(mem.get(), w.program, "/p");
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  ExecOptions eo;
  eo.exec_threads = 4;
  eo.pipeline_depth = 2;
  eo.shared_pool = &pool;
  Executor ex(w.program, rt->raw(), w.kernels, eo);
  auto stats = ex.Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    auto d = MaxAbsDifference(
        info, healthy_ref.stores[static_cast<size_t>(arr)].get(),
        rt->stores[static_cast<size_t>(arr)].get());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, 0.0) << "array " << info.name;
  }
}

TEST(FaultInjectionTest, SerialPipelinedExecutorReleasesPinsOnError) {
  // The serial engine's error paths honor the same shared-pool contract.
  Workload w = MakeExample1(2, 2, 1);
  auto mem = NewMemEnv();
  {
    auto rt = OpenStores(mem.get(), w.program, "/s");
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(InitInputs(w, *rt, 5).ok());
  }
  for (int depth : {0, 2}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    auto env = NewFaultyEnv(mem.get(), /*fail_after_ops=*/7);
    auto rt = OpenStores(env.get(), w.program, "/s");
    ASSERT_TRUE(rt.ok());
    BufferPool pool(int64_t{1} << 30);
    ExecOptions eo;
    eo.pipeline_depth = depth;
    eo.shared_pool = &pool;
    Executor ex(w.program, rt->raw(), w.kernels, eo);
    auto stats = ex.Run(w.program.original_schedule(), {});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
    EXPECT_EQ(pool.PinnedFrames(), 0);
    EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  }
}

// Pipelined runs of one small program, failed at every store op in turn.
// Every write of a depth >= 1 run goes through write-behind, and reads go
// to the I/O workers as lookahead or instance fan-out. Failing the k-th
// op, for every k, must end the run with that op's IoError, leave no pin,
// retention or prefetch frame behind, and leave the pool reusable — in
// solo serial and parallel runs and in a session run alike.
class PipelinedFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_ = NewMemEnv();
    auto ref = OpenStores(mem_.get(), w_.program, "/wb_ref");
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(InitInputs(w_, *ref, 5).ok());
    Executor ex(w_.program, ref->raw(), w_.kernels);
    auto st = ex.Run(w_.program.original_schedule(), {});
    ASSERT_TRUE(st.ok());
    writes_ = st->block_writes;
    ASSERT_GT(writes_, 0);
    ref_ = std::move(ref).ValueOrDie();
    peak_ = EvaluatePlanCost(w_.program, w_.program.original_schedule(), {})
                .peak_memory_bytes;
  }

  // Opens the stores through `env` after resetting the inputs on the
  // healthy disk.
  Result<Runtime> FreshStores(Env* env) {
    {
      auto init = OpenStores(mem_.get(), w_.program, "/wb");
      RIOT_RETURN_NOT_OK(init.status());
      RIOT_RETURN_NOT_OK(InitInputs(w_, *init, 5));
    }
    return OpenStores(env, w_.program, "/wb");
  }

  void ExpectOutputsMatchReference(const Runtime& rt) {
    for (int arr : w_.output_arrays) {
      auto d = MaxAbsDifference(
          w_.program.array(arr), ref_.stores[static_cast<size_t>(arr)].get(),
          rt.stores[static_cast<size_t>(arr)].get());
      ASSERT_TRUE(d.ok());
      EXPECT_EQ(*d, 0.0) << "array " << w_.program.array(arr).name;
    }
  }

  Workload w_ = MakeExample1(2, 3, 1);
  std::unique_ptr<Env> mem_;
  Runtime ref_;
  int64_t writes_ = 0;
  int64_t peak_ = 0;
};

TEST_F(PipelinedFaultTest, SerialRunFailsEveryWriteCleanly) {
  BufferPool pool(peak_ * 3 / 2);
  ExecOptions eo;
  eo.pipeline_depth = 2;
  eo.shared_pool = &pool;
  for (int64_t k = 0; k < writes_; ++k) {
    SCOPED_TRACE("failing write " + std::to_string(k));
    auto env = NewFaultyEnv(mem_.get(), k, FaultOps::kWrites);
    auto rt = FreshStores(env.get());
    ASSERT_TRUE(rt.ok());
    Executor ex(w_.program, rt->raw(), w_.kernels, eo);
    auto stats = ex.Run(w_.program.original_schedule(), {});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kIoError)
        << stats.status().ToString();
    EXPECT_EQ(pool.PinnedFrames(), 0);
    EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  }
  // The same pool, healthy disk: the run succeeds with exact outputs.
  auto rt = FreshStores(mem_.get());
  ASSERT_TRUE(rt.ok());
  Executor ex(w_.program, rt->raw(), w_.kernels, eo);
  auto stats = ex.Run(w_.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->block_writes, writes_);
  ExpectOutputsMatchReference(*rt);
}

TEST_F(PipelinedFaultTest, ParallelRunFailsEveryWriteCleanly) {
  BufferPool pool(peak_ * 3 / 2);
  ExecOptions eo;
  eo.exec_threads = 4;
  eo.pipeline_depth = 2;
  eo.shared_pool = &pool;
  for (int64_t k = 0; k < writes_; ++k) {
    SCOPED_TRACE("failing write " + std::to_string(k));
    auto env = NewFaultyEnv(mem_.get(), k, FaultOps::kWrites);
    auto rt = FreshStores(env.get());
    ASSERT_TRUE(rt.ok());
    Executor ex(w_.program, rt->raw(), w_.kernels, eo);
    auto stats = ex.Run(w_.program.original_schedule(), {});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kIoError)
        << stats.status().ToString();
    EXPECT_EQ(pool.PinnedFrames(), 0);
    EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  }
  // The same pool, healthy disk: the run succeeds with exact outputs.
  auto rt = FreshStores(mem_.get());
  ASSERT_TRUE(rt.ok());
  Executor ex(w_.program, rt->raw(), w_.kernels, eo);
  auto stats = ex.Run(w_.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->block_writes, writes_);
  ExpectOutputsMatchReference(*rt);
}

TEST_F(PipelinedFaultTest, SessionRunFailsEveryWriteCleanly) {
  SessionRuntimeOptions ro;
  ro.pool_cap_bytes = peak_ * 3 / 2;
  SessionRuntime runtime(ro);
  const Schedule sched = w_.program.original_schedule();
  auto run = [&](Env* env) -> Status {
    auto rt = FreshStores(env);
    RIOT_RETURN_NOT_OK(rt.status());
    SessionSpec spec;
    spec.program = &w_.program;
    spec.schedule = &sched;
    spec.stores = rt->raw();
    spec.kernels = &w_.kernels;
    spec.exec.pipeline_depth = 2;
    Status st = runtime.Run(spec).status();
    // Stores die with `rt`: drop their cached frames first.
    for (BlockStore* store : spec.stores) {
      RIOT_RETURN_NOT_OK(runtime.ReleaseStore(store));
    }
    if (st.ok()) ExpectOutputsMatchReference(*rt);
    return st;
  };
  for (int64_t k = 0; k < writes_; ++k) {
    SCOPED_TRACE("failing write " + std::to_string(k));
    auto env = NewFaultyEnv(mem_.get(), k, FaultOps::kWrites);
    Status st = run(env.get());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    EXPECT_EQ(runtime.pool()->PinnedFrames(), 0);
    EXPECT_EQ(runtime.pool()->PinnedOrRetainedBytes(), 0);
  }
  Status st = run(mem_.get());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(runtime.stats().sessions_failed, writes_);
}

TEST_F(PipelinedFaultTest, SerialRunFailsEveryOpCleanly) {
  // At depth 1 and a cap of the plan's peak, each C = A + B instance reads
  // one block on the consumer and fans the other out to an I/O worker, so
  // failing every op in turn lands failures on worker reads too.
  const PlanCost cost =
      EvaluatePlanCost(w_.program, w_.program.original_schedule(), {});
  BufferPool pool(peak_);
  ExecOptions eo;
  eo.pipeline_depth = 1;
  eo.shared_pool = &pool;
  auto run = [&](Env* env, Runtime* rt) -> Result<ExecStats> {
    auto fresh = FreshStores(env);
    RIOT_RETURN_NOT_OK(fresh.status());
    *rt = std::move(fresh).ValueOrDie();
    Executor ex(w_.program, rt->raw(), w_.kernels, eo);
    return ex.Run(w_.program.original_schedule(), {});
  };
  int64_t k = 0;
  for (;; ++k) {
    SCOPED_TRACE("failing op " + std::to_string(k));
    auto env = NewFaultyEnv(mem_.get(), k, FaultOps::kAll);
    Runtime rt;
    auto stats = run(env.get(), &rt);
    if (stats.ok()) break;
    EXPECT_EQ(stats.status().code(), StatusCode::kIoError)
        << stats.status().ToString();
    EXPECT_EQ(pool.PinnedFrames(), 0);
    EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
    EXPECT_EQ(pool.prefetch_bytes(), 0);
    // The same pool, healthy disk: exact reads, writes and outputs.
    Runtime healthy_rt;
    auto healthy = run(mem_.get(), &healthy_rt);
    ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
    EXPECT_GT(healthy->pool.prefetch_issued, 0);
    EXPECT_EQ(healthy->prefetch_wasted, 0);
    EXPECT_EQ(healthy->block_reads, cost.block_reads);
    EXPECT_EQ(healthy->block_writes, cost.block_writes);
    ExpectOutputsMatchReference(healthy_rt);
  }
  // Every index below the run's op count failed it; at the count it ran.
  EXPECT_EQ(k, cost.block_reads + cost.block_writes);
}

TEST(FaultInjectionTest, LabTreeOpenRejectsCorruptHeader) {
  auto env = NewMemEnv();
  {
    auto f = env->OpenFile("/t", true);
    const char garbage[64] = "not a labtree";
    ASSERT_TRUE((*f)->Write(0, sizeof(garbage), garbage).ok());
  }
  auto store = OpenLabTree(env.get(), "/t", 64);
  EXPECT_FALSE(store.ok());
}

TEST(FaultInjectionTest, LabTreeRejectsBlockSizeMismatch) {
  auto env = NewMemEnv();
  {
    auto store = OpenLabTree(env.get(), "/t", 128);
    std::vector<uint8_t> buf(128);
    ASSERT_TRUE((*store)->WriteBlock(0, buf.data()).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto reopened = OpenLabTree(env.get(), "/t", 256);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace riot
