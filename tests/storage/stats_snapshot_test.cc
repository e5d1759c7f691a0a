// BufferPool::Snapshot(): counters and frame-state aggregates captured
// under ONE lock acquisition. Reading stats() and used_bytes() /
// PinnedFrames() as separate calls can interleave with IoPool
// write-through completions and concurrent fetches, observing counters
// mid-update relative to frame state; Snapshot() must always return a
// view in which the pool's invariants hold. This test hammers the pool
// from reader, writer, and session-style threads while the main thread
// snapshots continuously — it is a TSan target (CI sanitizer matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "storage/block_store.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/io_pool.h"
#include "testing/pool_fetch.h"

namespace riot {
namespace {

constexpr int64_t kBlock = 256;
constexpr int64_t kBlocks = 64;

class StatsSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    auto s = OpenDaf(env_.get(), "/s", kBlock, kBlocks);
    ASSERT_TRUE(s.ok());
    store_ = std::move(s).ValueOrDie();
    std::vector<uint8_t> buf(kBlock, 0);
    for (int64_t b = 0; b < kBlocks; ++b) {
      ASSERT_TRUE(store_->WriteBlock(b, buf.data()).ok());
    }
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockStore> store_;
};

TEST_F(StatsSnapshotTest, InvariantsHoldUnderConcurrentTraffic) {
  IoPool io(2);
  BufferPool pool(8 * kBlock);

  std::atomic<bool> stop{false};

  // Reader threads: fetch/unpin a rotating window (hits, misses,
  // evictions).
  auto reader = [&](int seed) {
    uint64_t x = static_cast<uint64_t>(seed) * 2654435761u + 1;
    while (!stop.load()) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      int64_t b = static_cast<int64_t>(x >> 33) % kBlocks;
      auto f = FetchFilled(&pool, store_.get(), 0, b);
      if (f.ok()) pool.Unpin(*f);
    }
  };
  // Writer thread: rewrites blocks of the readers' array and writes them
  // through behind it, so writes land on the IoPool workers (completion
  // callbacks, frames released at the next pool call) while the snapshots
  // run.
  WriteThroughLedger ledger;
  auto writer = [&] {
    int64_t b = 0;
    while (!stop.load()) {
      const int64_t blk = b++ % kBlocks;
      bool resident = false;
      auto f = pool.Fetch(0, blk, kBlock, &resident, nullptr,
                          /*coalesce_loads=*/true);
      if (!f.ok()) {
        // Cap pressure from this thread's own writes: let one land.
        (void)pool.AwaitOldestWrite(&ledger);
        continue;
      }
      // The block's previous write (this thread's) lands before the
      // buffer changes.
      if (resident && !pool.AwaitWrite(0, blk).ok()) {
        pool.Unpin(*f);
        continue;
      }
      std::fill((*f)->data.begin(), (*f)->data.end(),
                static_cast<uint8_t>(b));
      if (!resident) pool.MarkLoaded(*f);
      if (!pool.WriteThroughAsync(*f, /*caller_pins=*/1, store_.get(), &io,
                                  /*channel=*/0, &ledger)) {
        // A reader pins it too: write it now instead.
        (void)store_->WriteBlock(blk, (*f)->data.data());
      }
      pool.Unpin(*f);
    }
  };
  // Session-style thread: budgeted, coalescing fetches against a second
  // array id (the multi-tenant fetch path).
  PoolAccount account;
  account.budget_bytes = 4 * kBlock;
  auto tenant = [&] {
    int64_t b = 0;
    while (!stop.load()) {
      bool resident = false;
      auto f = pool.Fetch(1, b % kBlocks, kBlock, &resident, &account,
                          /*coalesce_loads=*/true);
      if (f.ok()) {
        if (!resident) {
          // The manual load runs beside the I/O workers' writes to the
          // same store, as the BlockStore contract allows.
          Status st = store_->ReadBlock(b % kBlocks, (*f)->data.data());
          if (st.ok()) {
            pool.MarkLoaded(*f);
          } else {
            pool.Discard(*f);
            ++b;
            continue;
          }
        }
        pool.Unpin(*f);
      }
      ++b;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader, 1);
  threads.emplace_back(reader, 2);
  threads.emplace_back(writer);
  threads.emplace_back(tenant);

  // Continuous snapshots: every view must be internally consistent. Run
  // for a fixed window (not a fixed count) and yield between views so the
  // worker threads actually interleave on small hosts.
  BufferPoolSnapshot prev = pool.Snapshot();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    BufferPoolSnapshot s = pool.Snapshot();
    ASSERT_GE(s.required_bytes, 0);
    ASSERT_LE(s.required_bytes, s.used_bytes);
    ASSERT_LE(s.used_bytes, pool.cap_bytes());
    ASSERT_GE(s.pinned_frames, 0);
    ASSERT_GE(s.pending_writebacks, 0);
    // Counters are monotonic between consecutive consistent views.
    ASSERT_GE(s.stats.hits, prev.stats.hits);
    ASSERT_GE(s.stats.misses, prev.stats.misses);
    ASSERT_GE(s.stats.evictions, prev.stats.evictions);
    ASSERT_GE(s.stats.coalesced_loads, prev.stats.coalesced_loads);
    ASSERT_GE(s.stats.writeback_stall_seconds,
              prev.stats.writeback_stall_seconds);
    // Every eviction had an insertion: misses + prefetch issues bound it.
    ASSERT_LE(s.stats.evictions,
              s.stats.misses + s.stats.prefetch_issued);
    prev = s;
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  // Quiesce: land the write-throughs and check the drained view.
  ASSERT_TRUE(pool.DrainWriteThroughs(&ledger).ok());
  EXPECT_GT(ledger.landed.load(), 0);
  BufferPoolSnapshot end = pool.Snapshot();
  EXPECT_EQ(end.pinned_frames, 0);
  EXPECT_EQ(end.required_bytes, 0);
  EXPECT_EQ(end.pending_writebacks, 0);
  // The tenant account drained with its pins.
  EXPECT_EQ(account.charged_bytes.load(), 0);
  EXPECT_LE(account.peak_charged_bytes.load(), account.budget_bytes);
}

}  // namespace
}  // namespace riot
