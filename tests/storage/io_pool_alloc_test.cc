// The IoPool workers never allocate (storage/io_pool.h): with glibc, a
// thread that calls malloc or free gets an arena of its own, and two busy
// I/O workers holding two extra arenas show up in the process's resident
// memory. This test replaces the global operator new/delete, counts the
// calls made on IoPool worker threads (IoPool::OnWorkerThread), and runs
// the pipelines that put the workers to work — depth-2 runs at one and at
// four kernel workers, and a depth-2 SessionRuntime run with prefetch
// hits — over DAF stores on a MemEnv whose output files start empty, so
// both the extending first writes (kept synchronous on the consumer) and
// the overwrites (written behind on the workers) occur. Every count must
// be zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/session_runtime.h"
#include "ops/workload.h"
#include "storage/env.h"
#include "storage/io_pool.h"

namespace {

std::atomic<int64_t> g_worker_calls{0};

void CountIfWorker() {
  if (riot::IoPool::OnWorkerThread()) {
    g_worker_calls.fetch_add(1, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t n, std::size_t align) {
  CountIfWorker();
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) {
  CountIfWorker();
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlloc(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace riot {
namespace {

std::atomic<int64_t> g_worker_writes{0}, g_consumer_writes{0};

// Forwards to a store, counting where its writes ran: the overwrites go
// behind on the workers, the extending first writes stay on the consumer.
class WriteSiteCounter : public BlockStore {
 public:
  explicit WriteSiteCounter(BlockStore* base)
      : BlockStore(base->block_bytes()), base_(base) {}
  Status ReadBlock(int64_t block, void* buf) override {
    return base_->ReadBlock(block, buf);
  }
  Status WriteBlock(int64_t block, const void* buf) override {
    (IoPool::OnWorkerThread() ? g_worker_writes : g_consumer_writes)
        .fetch_add(1);
    return base_->WriteBlock(block, buf);
  }
  bool HasBlock(int64_t block) override { return base_->HasBlock(block); }

 private:
  BlockStore* const base_;
};

Runtime MustOpen(const Workload& w, Env* env, const std::string& dir) {
  auto rt = OpenStores(env, w.program, dir);
  rt.status().CheckOK();
  InitInputs(w, *rt, /*seed=*/11).CheckOK();
  return std::move(rt).ValueOrDie();
}

void ExpectOutputsEqual(const Workload& w, const Runtime& ref,
                        const Runtime& got) {
  for (int arr : w.output_arrays) {
    const size_t a = static_cast<size_t>(arr);
    EXPECT_TRUE(VerifyBitEqual(w.program.array(arr), ref.stores[a].get(),
                               got.stores[a].get())
                    .ok());
  }
}

// The counter is live: a write callback that allocates is counted.
TEST(IoPoolAllocTest, CountsAllocationsOnWorkers) {
  auto env = NewMemEnv();
  auto store = OpenDaf(env.get(), "/probe", 64, 1);
  ASSERT_TRUE(store.ok());
  std::vector<char> buf(64, 1);
  // An overwrite: extending the file would allocate inside the store.
  ASSERT_TRUE((*store)->WriteBlock(0, buf.data()).ok());
  static std::atomic<int*> sink{nullptr};
  const int64_t before = g_worker_calls.load();
  {
    IoPool io(1);
    io.WriteBlockAsync(store->get(), 0, buf.data(), [](Status) {
      sink.store(new int(1));
      delete sink.exchange(nullptr);
    });
  }  // joins the worker
  EXPECT_EQ(g_worker_calls.load() - before, 2);
  EXPECT_FALSE(IoPool::OnWorkerThread());
}

TEST(IoPoolAllocTest, SerialDepthTwoRunNeverAllocatesOnWorkers) {
  Workload w = MakeExample1(3, 3, 3);
  auto env = NewMemEnv();
  Runtime ref = MustOpen(w, env.get(), "/ref");
  Executor(w.program, ref.raw(), w.kernels)
      .Run(w.program.original_schedule(), {})
      .status()
      .CheckOK();

  Runtime rt = MustOpen(w, env.get(), "/d2");
  std::vector<std::unique_ptr<WriteSiteCounter>> counted;
  std::vector<BlockStore*> stores;
  for (BlockStore* s : rt.raw()) {
    counted.push_back(std::make_unique<WriteSiteCounter>(s));
    stores.push_back(counted.back().get());
  }
  ExecOptions opts;
  opts.pipeline_depth = 2;
  g_worker_writes = 0;
  g_consumer_writes = 0;
  const int64_t before = g_worker_calls.load();
  auto stats = Executor(w.program, stores, w.kernels, opts)
                   .Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(g_worker_calls.load() - before, 0);
  // The workers read ahead and wrote behind; the consumer extended files.
  EXPECT_GT(stats->prefetch_hits, 0);
  EXPECT_GT(g_worker_writes.load(), 0);
  EXPECT_GT(g_consumer_writes.load(), 0);
  ExpectOutputsEqual(w, ref, rt);
}

TEST(IoPoolAllocTest, ParallelDepthTwoRunNeverAllocatesOnWorkers) {
  Workload w = MakeExample1(3, 3, 3);
  auto env = NewMemEnv();
  Runtime ref = MustOpen(w, env.get(), "/ref");
  Executor(w.program, ref.raw(), w.kernels)
      .Run(w.program.original_schedule(), {})
      .status()
      .CheckOK();

  Runtime rt = MustOpen(w, env.get(), "/p4");
  std::vector<std::unique_ptr<WriteSiteCounter>> counted;
  std::vector<BlockStore*> stores;
  for (BlockStore* s : rt.raw()) {
    counted.push_back(std::make_unique<WriteSiteCounter>(s));
    stores.push_back(counted.back().get());
  }
  ExecOptions opts;
  opts.exec_threads = 4;
  opts.pipeline_depth = 2;
  g_worker_writes = 0;
  const int64_t before = g_worker_calls.load();
  auto stats = Executor(w.program, stores, w.kernels, opts)
                   .Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(g_worker_calls.load() - before, 0);
  // The kernel workers wrote behind, too.
  EXPECT_GT(g_worker_writes.load(), 0);
  ExpectOutputsEqual(w, ref, rt);
}

TEST(IoPoolAllocTest, SessionDepthTwoRunNeverAllocatesOnWorkers) {
  Workload w = MakeExample1(3, 3, 3);
  auto env = NewMemEnv();
  Runtime ref = MustOpen(w, env.get(), "/ref");
  Executor(w.program, ref.raw(), w.kernels)
      .Run(w.program.original_schedule(), {})
      .status()
      .CheckOK();

  Runtime rt = MustOpen(w, env.get(), "/s");
  SessionRuntimeOptions ropts;
  ropts.pool_cap_bytes =
      4 * EvaluatePlanCost(w.program, w.program.original_schedule(), {})
              .peak_memory_bytes;
  SessionRuntime runtime(ropts);
  SessionSpec spec;
  spec.program = &w.program;
  spec.schedule = &w.program.original_schedule();
  spec.stores = rt.raw();
  spec.kernels = &w.kernels;
  spec.exec.pipeline_depth = 2;
  const int64_t before = g_worker_calls.load();
  auto r = runtime.Run(spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(g_worker_calls.load() - before, 0);
  EXPECT_GT(r->exec.prefetch_hits, 0);
  EXPECT_GT(runtime.io()->writes_completed(), 0);
  ExpectOutputsEqual(w, ref, rt);
}

}  // namespace
}  // namespace riot
