// Write-through behind the caller (BufferPool::WriteThroughAsync): a
// frame's write runs on IoPool write workers while the frame stays
// resident, and a write barrier orders later refills, disk reads and
// prefetches of the block after it. These tests drive the race surface
// directly — fetches, prefetches and in-flight writes hitting the same
// (array, block) — and the failure path (an injected write error must
// surface as a clean Status and poison the block until drained, never tear
// a frame or lose an acknowledged write). The concurrent test is a TSan
// target: it runs under the CI sanitizer matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
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

  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockStore> store_;
};

TEST_F(WriteBehindTest, FetchBarrierObservesPendingWrite) {
  // A fetch of a block whose write is in flight hits the frame the write
  // holds resident, and a caller about to refill it waits the write out
  // (AwaitWrite), so the disk has the written data before the buffer
  // changes.
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/100);
  IoPool io(1);
  BufferPool pool(2 * kBlock);
  WriteThroughLedger ledger;
  auto f = pool.Fetch(0, 0, kBlock);
  ASSERT_TRUE(f.ok());
  std::fill((*f)->data.begin(), (*f)->data.end(), 0xCD);
  ASSERT_TRUE(pool.WriteThroughAsync(*f, /*caller_pins=*/1, &slow, &io,
                                     /*channel=*/0, &ledger));
  pool.Unpin(*f);

  bool resident = false;
  auto f0 = pool.Fetch(0, 0, kBlock, &resident, nullptr,
                       /*coalesce_loads=*/true);
  ASSERT_TRUE(f0.ok());
  EXPECT_TRUE(resident);  // no disk read of the pre-write image
  EXPECT_EQ((*f0)->data[0], 0xCD);
  EXPECT_EQ((*f0)->data[kBlock - 1], 0xCD);
  ASSERT_TRUE(pool.AwaitWrite(0, 0).ok());
  EXPECT_GT(pool.stats().writeback_stall_seconds, 0.0);
  std::vector<uint8_t> buf(kBlock);
  ASSERT_TRUE(store_->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xCD);
  EXPECT_EQ(buf[kBlock - 1], 0xCD);
  std::fill((*f0)->data.begin(), (*f0)->data.end(), 0x11);  // now safe
  pool.Unpin(*f0);
  EXPECT_TRUE(pool.DrainWriteThroughs(&ledger).ok());
  EXPECT_EQ(ledger.landed.load(), 1);
}

TEST_F(WriteBehindTest, ConcurrentFetchWriteThroughNoTornOrLostWrites) {
  // Three threads under a three-frame cap:
  //   * two cyclers, on blocks {0, 1} and {2, 3}: fetch (a miss is filled
  //     from disk by the fetcher and must hold the last acknowledged
  //     write — a stale or torn read would mix values; a hit is the frame
  //     the last write left), wait out the block's write, fill with the
  //     next value, write it through behind the caller, unpin;
  //   * a prefetcher churning blocks {4, 5} through the prefetch
  //     lifecycle, competing for the same frames.
  // The 1 ms write delay keeps writes in flight almost continuously, so
  // in-flight frames crowd the cap, evictions take frames whose writes
  // just landed, and fetches constantly cross in-flight writes of the
  // same blocks.
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/1);
  IoPool io(2);
  BufferPool pool(3 * kBlock);
  pool.SetPrefetchBudget(kBlock);
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};

  auto cycle = [&](int64_t lo, uint64_t seed, int iters) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    WriteThroughLedger ledger;
    std::vector<uint8_t> last(2, 0);
    for (int i = 1; i <= iters && !failed.load(); ++i) {
      const int64_t b = lo + static_cast<int64_t>(rng() % 2);
      auto f = FetchFilled(&pool, &slow, 0, b);
      if (!f.ok()) {
        // Cap pressure from in-flight writes and the other threads' pins
        // is legal: let this thread's oldest write land (a no-op when none
        // is in flight) and go on. Any other error is not (no faults are
        // injected here).
        if (f.status().code() != StatusCode::kResourceExhausted ||
            !pool.AwaitOldestWrite(&ledger).ok()) {
          failed = true;
        }
        continue;
      }
      const uint8_t want = last[static_cast<size_t>(b - lo)];
      // This thread is the block's only mutator: the frame must hold the
      // last acknowledged fill uniformly, whether it stayed resident or
      // went to disk and came back.
      for (int64_t k = 0; k < kBlock; ++k) {
        if ((*f)->data[static_cast<size_t>(k)] != want) {
          failed = true;
          break;
        }
      }
      // The previous write of the block may still be reading the buffer.
      if (!pool.AwaitWrite(0, b).ok()) failed = true;
      const uint8_t next = static_cast<uint8_t>(1 + (i % 250));
      std::fill((*f)->data.begin(), (*f)->data.end(), next);
      last[static_cast<size_t>(b - lo)] = next;
      // The sole holder's write is always queued.
      if (!pool.WriteThroughAsync(*f, /*caller_pins=*/1, &slow, &io,
                                  /*channel=*/0, &ledger)) {
        failed = true;
      }
      pool.Unpin(*f);
    }
    if (!pool.DrainWriteThroughs(&ledger).ok()) failed = true;
    return last;
  };

  std::vector<uint8_t> first_last, second_last;
  std::thread first([&] { first_last = cycle(0, 17, 150); });
  std::thread second([&] { second_last = cycle(2, 71, 150); });
  std::thread prefetcher([&] {
    std::mt19937 rng(9);
    while (!stop.load() && !failed.load()) {
      const int64_t b = 4 + static_cast<int64_t>(rng() % 2);
      BufferPool::Frame* f = pool.TryStartPrefetch(0, b, kBlock);
      if (f == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (!slow.ReadBlock(b, f->data.data()).ok()) failed = true;
      pool.CompletePrefetch(f);
      pool.AbandonPrefetch(f);
    }
  });

  first.join();
  second.join();
  stop = true;
  prefetcher.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool.PinnedFrames(), 0);
  // No lost write: disk holds each block's last acknowledged fill.
  for (int64_t b = 0; b < 4; ++b) {
    const uint8_t want = b < 2 ? first_last[static_cast<size_t>(b)]
                               : second_last[static_cast<size_t>(b - 2)];
    if (want == 0) continue;  // never touched
    std::vector<uint8_t> buf(kBlock);
    ASSERT_TRUE(store_->ReadBlock(b, buf.data()).ok());
    EXPECT_EQ(buf[0], want) << "block " << b;
    EXPECT_EQ(buf[kBlock - 1], want) << "block " << b;
  }
}

TEST_F(WriteBehindTest, WriteThroughHoldsFrameUntilItLands) {
  SlowWriteStore slow(store_.get(), /*write_delay_ms=*/100);
  IoPool io(1);
  BufferPool pool(2 * kBlock);
  pool.SetPrefetchBudget(2 * kBlock);
  WriteThroughLedger ledger;
  auto f = pool.Fetch(0, 0, kBlock);
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
  EXPECT_EQ(pool.TryStartPrefetch(0, 0, kBlock), nullptr);
  auto f1 = pool.Fetch(0, 1, kBlock);
  ASSERT_TRUE(f1.ok());
  auto f2 = pool.Fetch(0, 2, kBlock);
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
  f2 = pool.Fetch(0, 2, kBlock);  // evicts block 0
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
  auto a = pool.Fetch(0, 0, kBlock);
  auto b = pool.Fetch(0, 0, kBlock);
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
  auto c = pool.Fetch(0, 0, kBlock);
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
  auto f = pool.Fetch(0, 0, kBlock);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(pool.WriteThroughAsync(*f, /*caller_pins=*/1, faulty->get(),
                                     &io, /*channel=*/0, &ledger));
  pool.Unpin(*f);

  // The failed frame is discarded, and the block stays poisoned: neither a
  // barrier wait nor a reload may observe the stale disk image.
  EXPECT_EQ(pool.AwaitWrite(0, 0).code(), StatusCode::kIoError);
  EXPECT_TRUE(ledger.failed.load());
  EXPECT_EQ(pool.Probe(0, 0), nullptr);
  EXPECT_EQ(pool.Fetch(0, 0, kBlock).status().code(), StatusCode::kIoError);
  pool.SetPrefetchBudget(4 * kBlock);
  EXPECT_EQ(pool.TryStartPrefetch(0, 0, kBlock), nullptr);
  EXPECT_EQ(pool.DrainWriteThroughs(&ledger).code(), StatusCode::kIoError);
  auto again = pool.Fetch(0, 0, kBlock);
  ASSERT_TRUE(again.ok());
  pool.Unpin(*again);
  EXPECT_EQ(pool.PinnedFrames(), 0);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
}

}  // namespace
}  // namespace riot
