// Multi-threaded BufferPool stress: concurrent fetch/unpin/retain plus a
// prefetcher thread driving the kPrefetching/kPrefetched lifecycle. The cap
// must never be exceeded, pinned frames must never be evicted (their
// contents stay intact for as long as they are pinned), and the maintained
// pinned-or-retained counter must drain back to zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "testing/pool_fetch.h"

namespace riot {
namespace {

class BufferPoolConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    auto s = OpenDaf(env_.get(), "/s", kBlock, kNumBlocks);
    ASSERT_TRUE(s.ok());
    store_ = std::move(s).ValueOrDie();
    std::vector<uint8_t> buf(kBlock);
    for (int64_t b = 0; b < kNumBlocks; ++b) {
      std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(b));
      ASSERT_TRUE(store_->WriteBlock(b, buf.data()).ok());
    }
  }

  static constexpr int64_t kBlock = 256;
  static constexpr int64_t kNumBlocks = 64;
  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockStore> store_;
};

TEST_F(BufferPoolConcurrentTest, FetchUnpinRetainStress) {
  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  constexpr int64_t kCap = 16 * kBlock;
  BufferPool pool(kCap);
  std::atomic<bool> failed{false};
  std::atomic<int64_t> exhausted{0};

  auto worker = [&](int tid) {
    std::mt19937 rng(static_cast<unsigned>(tid) * 7919 + 13);
    // Fetch threads use blocks [0, 32); see prefetcher below.
    std::uniform_int_distribution<int64_t> pick(0, 31);
    for (int i = 0; i < kIters && !failed.load(); ++i) {
      int64_t b = pick(rng);
      auto f = FetchFilled(&pool, store_.get(), 0, b);
      if (!f.ok()) {
        // Transient exhaustion from overlapping retentions is legal; the
        // pool must fail cleanly, not corrupt state.
        if (f.status().code() != StatusCode::kResourceExhausted) {
          failed = true;
        }
        ++exhausted;
        continue;
      }
      BufferPool::Frame* frame = *f;
      std::this_thread::yield();
      // While pinned, the frame must still hold block b's bytes — an
      // eviction of a pinned frame would tear this.
      if (frame->data[0] != static_cast<uint8_t>(b) ||
          frame->data[kBlock - 1] != static_cast<uint8_t>(b)) {
        failed = true;
      }
      if (pool.used_bytes() > kCap) failed = true;
      if (i % 7 == 0) pool.Retain(frame, /*until_group=*/i % 5);
      pool.Unpin(frame);
      if (i % 11 == 0) pool.ReleaseRetainedBefore(/*group=*/i % 5);
    }
  };

  auto prefetcher = [&] {
    pool.SetPrefetchBudget(4 * kBlock);
    std::mt19937 rng(424242);
    // Disjoint block range: Fetch on a block in a prefetch state is an API
    // contract violation (the executor routes those through its pending
    // table), so the stress keeps the ranges separate.
    std::uniform_int_distribution<int64_t> pick(32, kNumBlocks - 1);
    for (int i = 0; i < kIters && !failed.load(); ++i) {
      int64_t b = pick(rng);
      BufferPool::Frame* f = pool.TryStartPrefetch(0, b, kBlock);
      if (f == nullptr) continue;  // declined: present, budget, or no room
      if (!store_->ReadBlock(b, f->data.data()).ok()) failed = true;
      pool.CompletePrefetch(f);
      if (i % 2 == 0) {
        BufferPool::Frame* adopted = pool.AdoptPrefetched(f);
        if (adopted->data[0] != static_cast<uint8_t>(b)) failed = true;
        pool.Unpin(adopted);
      } else {
        pool.AbandonPrefetch(f);
      }
      if (pool.used_bytes() > kCap) failed = true;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  threads.emplace_back(prefetcher);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_LE(pool.used_bytes(), kCap);
  EXPECT_EQ(pool.prefetch_bytes(), 0);
  // Everything is unpinned; retentions may linger — release them all.
  pool.ReleaseRetainedBefore(1 << 20);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
}

TEST_F(BufferPoolConcurrentTest, MaintainedRequiredBytesMatchesScan) {
  // Single-threaded cross-check of the O(1) counter against ground truth.
  BufferPool pool(32 * kBlock);
  auto a = pool.Fetch(0, 0, kBlock);  // pinned
  auto b = pool.Fetch(0, 1, kBlock);
  pool.Retain(*b, 3);
  pool.Unpin(*b);                     // retained only
  auto c = pool.Fetch(0, 2, kBlock);
  pool.Unpin(*c);                     // neither
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 2 * kBlock);
  pool.ReleaseRetainedBefore(4);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 1 * kBlock);
  pool.Unpin(*a);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  // Prefetch frames never count as required.
  pool.SetPrefetchBudget(8 * kBlock);
  BufferPool::Frame* p = pool.TryStartPrefetch(0, 9, kBlock);
  ASSERT_NE(p, nullptr);
  pool.CompletePrefetch(p);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  BufferPool::Frame* adopted = pool.AdoptPrefetched(p);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), kBlock);  // now a pinned regular
  pool.Unpin(adopted);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
}

TEST_F(BufferPoolConcurrentTest, PrefetchRespectsBudgetAndCap) {
  BufferPool pool(4 * kBlock);
  pool.SetPrefetchBudget(3 * kBlock);
  // Two pinned consumer frames plus two prefetches fill the cap.
  auto a = pool.Fetch(0, 10, kBlock);
  auto b = pool.Fetch(0, 11, kBlock);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  BufferPool::Frame* p1 = pool.TryStartPrefetch(0, 1, kBlock);
  BufferPool::Frame* p2 = pool.TryStartPrefetch(0, 2, kBlock);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  // Budget would allow a third prefetch, but every resident frame is
  // pinned or prefetch-owned: no room without evicting a protected frame,
  // so the prefetch is declined rather than erroring or evicting.
  EXPECT_EQ(pool.TryStartPrefetch(0, 3, kBlock), nullptr);
  EXPECT_EQ(pool.stats().prefetch_declined, 1);
  // An abandoned prefetch is dropped outright, freeing both budget and
  // cap room for the next one.
  pool.CompletePrefetch(p1);
  pool.AbandonPrefetch(p1);
  BufferPool::Frame* p4 = pool.TryStartPrefetch(0, 4, kBlock);
  ASSERT_NE(p4, nullptr);
  EXPECT_EQ(pool.Probe(0, 1), nullptr);  // p1's block is gone
  EXPECT_LE(pool.used_bytes(), 4 * kBlock);
  // Budget decline: shrink the budget below what is outstanding.
  pool.SetPrefetchBudget(kBlock);
  EXPECT_EQ(pool.TryStartPrefetch(0, 5, kBlock), nullptr);
  pool.Unpin(*a);
  pool.Unpin(*b);
  pool.CompletePrefetch(p2);
  pool.AbandonPrefetch(p2);
  pool.CompletePrefetch(p4);
  pool.AbandonPrefetch(p4);
  EXPECT_EQ(pool.prefetch_bytes(), 0);
}

TEST_F(BufferPoolConcurrentTest, PrefetchChargesCallersRequirement) {
  // The caller's requirement over the positions a prefetch spans is
  // charged next to the lookahead: with 4 blocks of budget, a requirement
  // of 2 leaves room for 2 prefetched blocks, and one of 3 for none more.
  BufferPool pool(8 * kBlock);
  pool.SetPrefetchBudget(4 * kBlock);
  BufferPool::Frame* p1 = pool.TryStartPrefetch(0, 1, kBlock, 2 * kBlock);
  BufferPool::Frame* p2 = pool.TryStartPrefetch(0, 2, kBlock, 2 * kBlock);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(pool.TryStartPrefetch(0, 3, kBlock, 2 * kBlock), nullptr);
  EXPECT_EQ(pool.TryStartPrefetch(0, 3, kBlock, 3 * kBlock), nullptr);
  EXPECT_EQ(pool.stats().prefetch_declined, 2);
  // Once the outstanding lookahead is adopted, the same requirement
  // admits lookahead again.
  pool.CompletePrefetch(p1);
  pool.Unpin(pool.AdoptPrefetched(p1));
  EXPECT_NE(pool.TryStartPrefetch(0, 3, kBlock, 2 * kBlock), nullptr);
  EXPECT_EQ(pool.prefetch_bytes(), 2 * kBlock);
}

TEST_F(BufferPoolConcurrentTest, AccountPrefetchChargedAtIssueNotHeadroom) {
  // A session's fan-out read is charged to its account when issued, under
  // Fetch's budget rule and outside the prefetch budget: with no headroom
  // at all, a 2-block account admits two such reads and declines a third.
  // Adoption keeps the charge (no second one); abandoning gives it back.
  BufferPool pool(8 * kBlock);
  pool.SetPrefetchBudget(0);
  PoolAccount account;
  account.budget_bytes = 2 * kBlock;
  EXPECT_EQ(pool.TryStartPrefetch(0, 1, kBlock), nullptr);  // no headroom
  BufferPool::Frame* p1 = pool.TryStartPrefetch(0, 1, kBlock, 0, &account);
  BufferPool::Frame* p2 = pool.TryStartPrefetch(0, 2, kBlock, 0, &account);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(account.charged_bytes.load(), 2 * kBlock);
  EXPECT_EQ(pool.TryStartPrefetch(0, 3, kBlock, 0, &account), nullptr);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);  // in flight, not required
  pool.CompletePrefetch(p1);
  BufferPool::Frame* f1 = pool.AdoptPrefetched(p1, &account);
  EXPECT_EQ(account.charged_bytes.load(), 2 * kBlock);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), kBlock);
  pool.CompletePrefetch(p2);
  pool.AbandonPrefetch(p2);
  EXPECT_EQ(account.charged_bytes.load(), kBlock);
  pool.Unpin(f1, &account);
  EXPECT_EQ(account.charged_bytes.load(), 0);
  EXPECT_EQ(account.peak_charged_bytes.load(), 2 * kBlock);
  EXPECT_EQ(account.budget_rejections.load(), 0);
  EXPECT_EQ(pool.prefetch_bytes(), 0);
  pool.DetachAccount(&account);
}

}  // namespace
}  // namespace riot
