// Asynchronous write-behind: dirty eviction victims are handed to IoPool
// write workers; a write barrier orders later reads/prefetches of an
// in-flight block after the pending write. These tests drive the race
// surface directly — reads, prefetches, and eviction write-backs hitting
// the same (array, block) — and the failure path (injected write errors
// must surface as clean Status, never tear a frame or lose an
// acknowledged write). The concurrent test is a TSan target: it runs
// under the CI sanitizer matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "storage/block_store.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/io_pool.h"

namespace riot {
namespace {

constexpr int64_t kBlock = 256;

// Wraps a BlockStore and dilates every write, widening the in-flight
// window the barrier must cover.
class SlowWriteStore : public BlockStore {
 public:
  SlowWriteStore(BlockStore* base, int write_delay_ms)
      : BlockStore(base->block_bytes()), base_(base),
        delay_ms_(write_delay_ms) {}

  Status ReadBlock(int64_t block, void* buf) override {
    return base_->ReadBlock(block, buf);
  }
  Status WriteBlock(int64_t block, const void* buf) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return base_->WriteBlock(block, buf);
  }
  bool HasBlock(int64_t block) override { return base_->HasBlock(block); }

 private:
  BlockStore* base_;
  int delay_ms_;
};

class WriteBehindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    auto s = OpenDaf(env_.get(), "/s", kBlock, 64);
    ASSERT_TRUE(s.ok());
    store_ = std::move(s).ValueOrDie();
    std::vector<uint8_t> buf(kBlock, 0);
    for (int64_t b = 0; b < 64; ++b) {
      ASSERT_TRUE(store_->WriteBlock(b, buf.data()).ok());
    }
  }

  // Pins block `b`, fills it with `value`, marks it dirty, unpins.
  void DirtyFill(BufferPool* pool, BlockStore* store, int64_t b,
                 uint8_t value) {
    auto f = pool->Fetch(0, b, kBlock, store, /*load=*/false);
    ASSERT_TRUE(f.ok());
    std::fill((*f)->data.begin(), (*f)->data.end(), value);
    (*f)->dirty = true;
    pool->Unpin(*f);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockStore> store_;
};

TEST_F(WriteBehindTest, AsyncSpillLandsOnDisk) {
  IoPool io(2);
  BufferPool pool(1 * kBlock);
  pool.SetWriteBehind(&io);
  DirtyFill(&pool, store_.get(), 0, 0xAB);
  // Fetching a second block forces the dirty victim out asynchronously.
  auto f = pool.Fetch(0, 1, kBlock, store_.get(), /*load=*/true);
  ASSERT_TRUE(f.ok());
  pool.Unpin(*f);
  ASSERT_TRUE(pool.DrainWritebacks().ok());
  pool.SetWriteBehind(nullptr);
  std::vector<uint8_t> buf(kBlock);
  ASSERT_TRUE(store_->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xAB);
  EXPECT_EQ(buf[kBlock - 1], 0xAB);
  const BufferPoolStats st = pool.stats();
  EXPECT_EQ(st.dirty_writebacks, 1);
  EXPECT_EQ(st.async_writebacks, 1);
  EXPECT_EQ(st.evictions, 1);
}

TEST_F(WriteBehindTest, FetchBarrierObservesPendingWrite) {
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/100);
  IoPool io(1);
  BufferPool pool(1 * kBlock);
  pool.SetWriteBehind(&io);
  DirtyFill(&pool, &slow, 0, 0xCD);
  // load=false: returns as soon as the dirty victim is handed to the
  // (slow, 100 ms) writer, leaving the write in flight.
  auto f1 = pool.Fetch(0, 1, kBlock, &slow, /*load=*/false);
  ASSERT_TRUE(f1.ok());
  pool.Unpin(*f1);
  // Re-fetch block 0 with a disk load: the barrier must hold the fetch
  // until the pending write lands, so the load sees 0xCD — not the stale
  // zeros a racing read would observe.
  auto f0 = pool.Fetch(0, 0, kBlock, &slow, /*load=*/true);
  ASSERT_TRUE(f0.ok());
  EXPECT_EQ((*f0)->data[0], 0xCD);
  EXPECT_EQ((*f0)->data[kBlock - 1], 0xCD);
  pool.Unpin(*f0);
  EXPECT_GT(pool.stats().writeback_stall_seconds, 0.0);
  ASSERT_TRUE(pool.DrainWritebacks().ok());
  pool.SetWriteBehind(nullptr);
}

TEST_F(WriteBehindTest, PrefetchOfInFlightBlockIsDeclined) {
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/100);
  IoPool io(1);
  BufferPool pool(2 * kBlock);
  pool.SetWriteBehind(&io);
  pool.SetPrefetchBudget(2 * kBlock);
  DirtyFill(&pool, &slow, 0, 0xEF);
  // load=false keeps this fetch from serializing behind the in-flight
  // write; block 0's 100 ms write-back is still pending afterwards.
  auto f = pool.Fetch(0, 2, kBlock, &slow, /*load=*/false);
  ASSERT_TRUE(f.ok());
  auto g = pool.Fetch(0, 3, kBlock, &slow, /*load=*/false);
  ASSERT_TRUE(g.ok());
  // A prefetch of the in-flight block must be declined, not raced.
  EXPECT_EQ(pool.TryStartPrefetch(0, 0, kBlock, &slow), nullptr);
  EXPECT_GE(pool.stats().prefetch_declined, 1);
  pool.Unpin(*f);
  pool.Unpin(*g);
  ASSERT_TRUE(pool.DrainWritebacks().ok());
  pool.SetWriteBehind(nullptr);
  std::vector<uint8_t> buf(kBlock);
  ASSERT_TRUE(store_->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xEF);
}

TEST_F(WriteBehindTest, ConcurrentReadEvictionWritebackNoTornOrLostWrites) {
  // Three threads under a two-frame cap, every eviction a write-behind:
  //   * a writer cycling blocks {0, 1}: verify-on-fetch (a miss loads the
  //     last acknowledged fill through the barrier — a stale or torn read
  //     would mix values), then fill with the next value, dirty, unpin;
  //   * a reader cycling blocks {2, 3} the same way;
  //   * a prefetcher churning blocks {4, 5} through the prefetch
  //     lifecycle, competing for the same frames.
  // The 1 ms write delay plus the single-entry write-behind budget
  // (cap/4 < block) keeps a write in flight almost continuously, so
  // fetches constantly cross in-flight write-backs of the same blocks.
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/1);
  IoPool io(2);
  BufferPool pool(2 * kBlock);
  pool.SetWriteBehind(&io);
  pool.SetPrefetchBudget(kBlock);
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};

  auto cycle = [&](int64_t lo, uint64_t seed, int iters) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    std::vector<uint8_t> last(2, 0);
    for (int i = 1; i <= iters && !failed.load(); ++i) {
      const int64_t b = lo + static_cast<int64_t>(rng() % 2);
      auto f = pool.Fetch(0, b, kBlock, &slow, /*load=*/true);
      if (!f.ok()) {
        // Transient cap pressure with three threads pinning is legal; any
        // other error is not (no faults are injected here).
        if (f.status().code() != StatusCode::kResourceExhausted) {
          failed = true;
        }
        continue;
      }
      const uint8_t want = last[static_cast<size_t>(b - lo)];
      // This thread is the block's only mutator: the frame must hold the
      // last acknowledged fill uniformly, whether it survived in cache or
      // went to disk and came back through the write barrier.
      for (int64_t k = 0; k < kBlock; ++k) {
        if ((*f)->data[static_cast<size_t>(k)] != want) {
          failed = true;
          break;
        }
      }
      const uint8_t next = static_cast<uint8_t>(1 + (i % 250));
      std::fill((*f)->data.begin(), (*f)->data.end(), next);
      (*f)->dirty = true;
      last[static_cast<size_t>(b - lo)] = next;
      pool.Unpin(*f);
    }
    return last;
  };

  std::vector<uint8_t> writer_last, reader_last;
  std::thread writer([&] { writer_last = cycle(0, 17, 150); });
  std::thread reader([&] { reader_last = cycle(2, 71, 150); });
  std::thread prefetcher([&] {
    std::mt19937 rng(9);
    while (!stop.load() && !failed.load()) {
      const int64_t b = 4 + static_cast<int64_t>(rng() % 2);
      BufferPool::Frame* f = pool.TryStartPrefetch(0, b, kBlock, &slow);
      if (f == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (!slow.ReadBlock(b, f->data.data()).ok()) failed = true;
      pool.CompletePrefetch(f);
      pool.AbandonPrefetch(f);
    }
  });

  writer.join();
  reader.join();
  stop = true;
  prefetcher.join();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(pool.DrainWritebacks().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.SetWriteBehind(nullptr);
  // No lost write: disk holds each block's last acknowledged fill.
  for (int64_t b = 0; b < 4; ++b) {
    const uint8_t want = b < 2 ? writer_last[static_cast<size_t>(b)]
                               : reader_last[static_cast<size_t>(b - 2)];
    if (want == 0) continue;  // never touched
    std::vector<uint8_t> buf(kBlock);
    ASSERT_TRUE(store_->ReadBlock(b, buf.data()).ok());
    EXPECT_EQ(buf[0], want) << "block " << b;
    EXPECT_EQ(buf[kBlock - 1], want) << "block " << b;
  }
}

TEST_F(WriteBehindTest, InjectedWriteFailureSurfacesCleanly) {
  auto faulty_env = NewFaultyEnv(env_.get(), /*fail_after_ops=*/0);
  auto faulty = OpenDaf(faulty_env.get(), "/s", kBlock, 64);
  ASSERT_TRUE(faulty.ok());
  IoPool io(1);
  BufferPool pool(1 * kBlock);
  pool.SetWriteBehind(&io);
  DirtyFill(&pool, faulty->get(), 0, 0x77);
  // Eviction hands the dirty frame to the writer, whose write fails.
  auto f = pool.Fetch(0, 1, kBlock, store_.get(), true);
  ASSERT_TRUE(f.ok());
  pool.Unpin(*f);
  // The failed block is poisoned: a fetch surfaces the write's error
  // instead of silently rereading the stale disk image.
  auto poisoned = pool.Fetch(0, 0, kBlock, faulty->get(), true);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kIoError);
  // Draining reports the failure once and restores the pool to a usable
  // state.
  Status drain = pool.DrainWritebacks();
  EXPECT_FALSE(drain.ok());
  EXPECT_EQ(drain.code(), StatusCode::kIoError);
  EXPECT_TRUE(pool.DrainWritebacks().ok());
  auto again = pool.Fetch(0, 2, kBlock, store_.get(), true);
  EXPECT_TRUE(again.ok());
  if (again.ok()) pool.Unpin(*again);
  pool.SetWriteBehind(nullptr);
  const BufferPoolStats st = pool.stats();
  EXPECT_EQ(st.async_writebacks, 1);
}

TEST_F(WriteBehindTest, WriteThroughHoldsFrameUntilItLands) {
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/100);
  IoPool io(1);
  BufferPool pool(2 * kBlock);
  pool.SetPrefetchBudget(2 * kBlock);
  WriteThroughLedger ledger;
  auto f = pool.Fetch(0, 0, kBlock, &slow, /*load=*/false);
  ASSERT_TRUE(f.ok());
  std::fill((*f)->data.begin(), (*f)->data.end(), 0xEF);
  ASSERT_TRUE(pool.WriteThroughAsync(*f, /*caller_pins=*/1, &slow, &io,
                                     /*channel=*/0, &ledger));
  pool.Unpin(*f);

  // In flight: resident and unevictable, but not required; the barrier
  // turns a prefetch of the block away.
  EXPECT_TRUE(pool.WriteInFlight(0, 0));
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  EXPECT_EQ(ledger.held_bytes.load(), kBlock);
  EXPECT_EQ(pool.TryStartPrefetch(0, 0, kBlock, &slow), nullptr);
  auto f1 = pool.Fetch(0, 1, kBlock, &slow, /*load=*/false);
  ASSERT_TRUE(f1.ok());
  auto f2 = pool.Fetch(0, 2, kBlock, &slow, /*load=*/false);
  EXPECT_EQ(f2.status().code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(pool.AwaitOldestWrite(&ledger).ok());
  EXPECT_FALSE(pool.WriteInFlight(0, 0));
  EXPECT_EQ(ledger.landed.load(), 1);
  EXPECT_TRUE(ledger.in_flight.empty());
  EXPECT_EQ(ledger.held_bytes.load(), 0);
  EXPECT_EQ(ledger.peak_held_bytes.load(), kBlock);
  std::vector<uint8_t> buf(kBlock);
  ASSERT_TRUE(store_->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[kBlock - 1], 0xEF);
  f2 = pool.Fetch(0, 2, kBlock, &slow, /*load=*/false);  // evicts block 0
  ASSERT_TRUE(f2.ok());
  pool.Unpin(*f1);
  pool.Unpin(*f2);
  EXPECT_TRUE(pool.DrainWriteThroughs(&ledger).ok());
}

TEST_F(WriteBehindTest, WriteThroughDeclinesFrameAnotherHolderPins) {
  // Two holders of one frame (co-tenants writing the same block): the
  // first to write out must not queue a write the other may still tear by
  // mutating the buffer; it is told to write synchronously instead. A
  // holder that pins after a queued write waits for it before mutating.
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/50);
  IoPool io(1);
  BufferPool pool(4 * kBlock);
  WriteThroughLedger ledger;
  auto a = pool.Fetch(0, 0, kBlock, &slow, /*load=*/false);
  auto b = pool.Fetch(0, 0, kBlock, &slow, /*load=*/false);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(*a, *b);
  EXPECT_FALSE(pool.WriteThroughAsync(*a, /*caller_pins=*/1, &slow, &io,
                                      /*channel=*/0, &ledger));
  EXPECT_FALSE(pool.WriteInFlight(0, 0));
  EXPECT_TRUE(ledger.in_flight.empty());
  pool.Unpin(*a);

  // Now the sole holder: queued.
  std::fill((*b)->data.begin(), (*b)->data.end(), 0x5A);
  ASSERT_TRUE(pool.WriteThroughAsync(*b, /*caller_pins=*/1, &slow, &io,
                                     /*channel=*/0, &ledger));
  pool.Unpin(*b);
  auto c = pool.Fetch(0, 0, kBlock, &slow, /*load=*/false);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(pool.AwaitWrite(0, 0).ok());  // the barrier after the pin
  std::vector<uint8_t> buf(kBlock);
  ASSERT_TRUE(store_->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x5A);
  std::fill((*c)->data.begin(), (*c)->data.end(), 0x6B);
  ASSERT_TRUE(pool.WriteThroughAsync(*c, /*caller_pins=*/1, &slow, &io,
                                     /*channel=*/0, &ledger));
  pool.Unpin(*c);
  EXPECT_TRUE(pool.DrainWriteThroughs(&ledger).ok());
  ASSERT_TRUE(store_->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(buf[kBlock - 1], 0x6B);
  EXPECT_EQ(ledger.landed.load(), 2);
  EXPECT_EQ(pool.PinnedFrames(), 0);
}

TEST_F(WriteBehindTest, FailedWriteThroughPoisonsUntilDrained) {
  auto faulty_env = NewFaultyEnv(env_.get(), 0, FaultOps::kWrites);
  auto faulty = OpenDaf(faulty_env.get(), "/s", kBlock, 64);
  ASSERT_TRUE(faulty.ok());
  IoPool io(1);
  BufferPool pool(4 * kBlock);
  WriteThroughLedger ledger;
  auto f = pool.Fetch(0, 0, kBlock, faulty->get(), /*load=*/false);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(pool.WriteThroughAsync(*f, /*caller_pins=*/1, faulty->get(),
                                     &io, /*channel=*/0, &ledger));
  pool.Unpin(*f);

  // The failed frame is discarded, and the block stays poisoned: neither a
  // barrier wait nor a reload may observe the stale disk image.
  EXPECT_EQ(pool.AwaitWrite(0, 0).code(), StatusCode::kIoError);
  EXPECT_TRUE(ledger.failed.load());
  EXPECT_EQ(pool.Probe(0, 0), nullptr);
  EXPECT_EQ(pool.Fetch(0, 0, kBlock, store_.get(), /*load=*/true)
                .status()
                .code(),
            StatusCode::kIoError);
  EXPECT_EQ(pool.DrainWriteThroughs(&ledger).code(), StatusCode::kIoError);
  auto again = pool.Fetch(0, 0, kBlock, store_.get(), /*load=*/true);
  ASSERT_TRUE(again.ok());
  pool.Unpin(*again);
  EXPECT_EQ(pool.PinnedFrames(), 0);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
}

}  // namespace
}  // namespace riot
