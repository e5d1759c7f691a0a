#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include "util/aligned.h"

namespace riot {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    auto s = OpenDaf(env_.get(), "/s", kBlock, 64);
    ASSERT_TRUE(s.ok());
    store_ = std::move(s).ValueOrDie();
    // Pre-populate blocks with recognizable bytes.
    std::vector<uint8_t> buf(kBlock);
    for (int64_t b = 0; b < 64; ++b) {
      std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(b));
      ASSERT_TRUE(store_->WriteBlock(b, buf.data()).ok());
    }
  }

  static constexpr int64_t kBlock = 128;
  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockStore> store_;
};

TEST_F(BufferPoolTest, FetchLoadsFromStore) {
  // The creator of a frame fills it from the store and publishes it; a
  // later fetch of the block is then a hit on the loaded contents.
  BufferPool pool(1024);
  bool resident = true;
  auto f = pool.Fetch(0, 7, kBlock, &resident, nullptr,
                      /*coalesce_loads=*/true);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(resident);
  EXPECT_TRUE((*f)->loading);
  ASSERT_TRUE(store_->ReadBlock(7, (*f)->data.data()).ok());
  pool.MarkLoaded(*f);
  EXPECT_FALSE((*f)->loading);
  pool.Unpin(*f);
  auto again = pool.Fetch(0, 7, kBlock, &resident, nullptr,
                          /*coalesce_loads=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(resident);
  EXPECT_EQ(*again, *f);
  EXPECT_EQ((*again)->data[0], 7);
  EXPECT_EQ((*again)->data[kBlock - 1], 7);
  EXPECT_EQ(pool.stats().misses, 1);
  EXPECT_EQ(pool.stats().hits, 1);
  pool.Unpin(*again);
}

TEST_F(BufferPoolTest, SecondFetchHits) {
  BufferPool pool(1024);
  auto f1 = pool.Fetch(0, 3, kBlock);
  pool.Unpin(*f1);
  auto f2 = pool.Fetch(0, 3, kBlock);
  EXPECT_EQ(pool.stats().hits, 1);
  EXPECT_EQ(*f1, *f2);  // same frame
  pool.Unpin(*f2);
}

TEST_F(BufferPoolTest, CapTriggersLruEviction) {
  BufferPool pool(3 * kBlock);
  for (int64_t b = 0; b < 3; ++b) {
    auto f = pool.Fetch(0, b, kBlock);
    pool.Unpin(*f);
  }
  EXPECT_EQ(pool.used_bytes(), 3 * kBlock);
  auto f = pool.Fetch(0, 3, kBlock);
  pool.Unpin(*f);
  EXPECT_EQ(pool.stats().evictions, 1);
  EXPECT_EQ(pool.used_bytes(), 3 * kBlock);
  // Block 0 was least recently used; re-fetching it must miss.
  auto f0 = pool.Fetch(0, 0, kBlock);
  EXPECT_EQ(pool.stats().misses, 5);
  pool.Unpin(*f0);
}

TEST_F(BufferPoolTest, PinnedFramesAreNotEvicted) {
  BufferPool pool(2 * kBlock);
  auto pinned = pool.Fetch(0, 0, kBlock);
  auto f1 = pool.Fetch(0, 1, kBlock);
  pool.Unpin(*f1);
  // Fetching a third block must evict block 1, not the pinned block 0.
  auto f2 = pool.Fetch(0, 2, kBlock);
  pool.Unpin(*f2);
  EXPECT_EQ(pool.Probe(0, 0), *pinned);
  EXPECT_EQ(pool.Probe(0, 1), nullptr);
  pool.Unpin(*pinned);
}

TEST_F(BufferPoolTest, FetchReportsResidencyFreshEachCall) {
  // Regression: Fetch must write *was_resident for the iteration that
  // actually returns — a stale `true` from a prior call (or from a hit
  // iteration that waited and came back to a miss) would make a session
  // caller skip loading a zero-filled frame.
  BufferPool pool(1024);
  bool resident = true;  // deliberately stale
  auto f = pool.Fetch(0, 5, kBlock, &resident);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(resident);
  pool.Unpin(*f);
  resident = false;
  auto f2 = pool.Fetch(0, 5, kBlock, &resident);
  ASSERT_TRUE(f2.ok());
  EXPECT_TRUE(resident);
  pool.Unpin(*f2);
}

TEST_F(BufferPoolTest, DetachAccountOrphansFramesSharedWithOtherTenants) {
  // Regression: a frame first-claimed by session A but still pinned by an
  // anonymous tenant when A's run ends must not keep pointing at A's
  // (stack-lifetime) account — releasing A's pin orphans the charge (the
  // survivor carries no account), and the later unpin must not touch the
  // detached account.
  BufferPool pool(1024);
  PoolAccount a;
  a.budget_bytes = 1024;
  auto f1 = pool.Fetch(0, 0, kBlock, nullptr, &a);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(a.charged_bytes.load(), kBlock);
  auto f2 = pool.Fetch(0, 0, kBlock);
  ASSERT_TRUE(f2.ok());   // second (anonymous) tenant, same frame
  pool.Unpin(*f1, &a);    // A's run ends; the frame stays required via f2
  EXPECT_EQ(a.charged_bytes.load(), 0);  // charge released with A's pin
  pool.DetachAccount(&a);
  EXPECT_EQ(a.charged_bytes.load(), 0);
  EXPECT_EQ(a.peak_charged_bytes.load(), kBlock);
  pool.Unpin(*f2);  // must not uncharge (or write) the detached account
  EXPECT_EQ(a.charged_bytes.load(), 0);
}

TEST_F(BufferPoolTest, SharedFrameChargeTransfersToSurvivingClaimant) {
  // The PR-4 approximation left the first claimant charged for a shared
  // frame until it stopped being required globally; now the charge follows
  // a surviving claimant when the first one lets go, so each tenant is
  // only ever charged for frames it itself holds.
  BufferPool pool(1024);
  PoolAccount a, b;
  a.budget_bytes = kBlock;  // exactly one block of budget each
  b.budget_bytes = kBlock;
  auto fa = pool.Fetch(0, 0, kBlock, nullptr, &a);
  ASSERT_TRUE(fa.ok());
  auto fb = pool.Fetch(0, 0, kBlock, nullptr, &b);
  ASSERT_TRUE(fb.ok());  // same frame, free for the second reader
  EXPECT_EQ(a.charged_bytes.load(), kBlock);
  EXPECT_EQ(b.charged_bytes.load(), 0);
  pool.Unpin(*fa, &a);  // A releases; B still pins -> charge moves to B
  EXPECT_EQ(a.charged_bytes.load(), 0);
  EXPECT_EQ(b.charged_bytes.load(), kBlock);
  // A's budget is fully free again: a fetch of another block must succeed
  // with zero rejections (the old accounting would have rejected here).
  auto fa2 = pool.Fetch(0, 1, kBlock, nullptr, &a);
  ASSERT_TRUE(fa2.ok());
  EXPECT_EQ(a.budget_rejections.load(), 0);
  EXPECT_EQ(a.charged_bytes.load(), kBlock);
  EXPECT_LE(a.peak_charged_bytes.load(), a.budget_bytes);
  EXPECT_LE(b.peak_charged_bytes.load(), b.budget_bytes);
  pool.Unpin(*fa2, &a);
  pool.Unpin(*fb, &b);
  EXPECT_EQ(b.charged_bytes.load(), 0);
}

TEST_F(BufferPoolTest, ChargeTransfersToRetentionOwnerOnUnpin) {
  // A claimant that holds the frame only via a retention (pins released,
  // keep-until-reuse still active) is a valid transfer target.
  BufferPool pool(1024);
  PoolAccount a, b;
  a.budget_bytes = 1024;
  b.budget_bytes = 1024;
  auto fb = pool.Fetch(0, 0, kBlock, nullptr, &b);
  ASSERT_TRUE(fb.ok());
  pool.Retain(*fb, /*until_group=*/5, &b);
  pool.Unpin(*fb, &b);  // B holds via retention only; stays charged
  EXPECT_EQ(b.charged_bytes.load(), kBlock);
  auto fa = pool.Fetch(0, 0, kBlock, nullptr, &a);
  ASSERT_TRUE(fa.ok());
  EXPECT_EQ(a.charged_bytes.load(), 0);  // B already pays
  pool.ReleaseRetainedBefore(/*group=*/6, &b);  // B's claim ends
  EXPECT_EQ(b.charged_bytes.load(), 0);
  EXPECT_EQ(a.charged_bytes.load(), kBlock);  // transferred to A's pin
  pool.Unpin(*fa, &a);
  EXPECT_EQ(a.charged_bytes.load(), 0);
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  BufferPool pool(2 * kBlock);
  auto a = pool.Fetch(0, 0, kBlock);
  auto b = pool.Fetch(0, 1, kBlock);
  auto c = pool.Fetch(0, 2, kBlock);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  pool.Unpin(*a);
  pool.Unpin(*b);
}

TEST_F(BufferPoolTest, RetainedFramesSurviveEviction) {
  BufferPool pool(2 * kBlock);
  auto a = pool.Fetch(0, 0, kBlock);
  pool.Retain(*a, /*until_group=*/5);
  pool.Unpin(*a);
  auto b = pool.Fetch(0, 1, kBlock);
  pool.Unpin(*b);
  auto c = pool.Fetch(0, 2, kBlock);  // evicts 1, not 0
  pool.Unpin(*c);
  EXPECT_NE(pool.Probe(0, 0), nullptr);
  EXPECT_EQ(pool.Probe(0, 1), nullptr);
  // After the retention expires it becomes evictable.
  pool.ReleaseRetainedBefore(/*group=*/6);
  auto d = pool.Fetch(0, 3, kBlock);
  pool.Unpin(*d);
  EXPECT_EQ(pool.Probe(0, 0), nullptr);
}

TEST_F(BufferPoolTest, ReleaseRespectsGroupBoundary) {
  BufferPool pool(8 * kBlock);
  auto a = pool.Fetch(0, 0, kBlock);
  pool.Retain(*a, 5);
  pool.Unpin(*a);
  pool.ReleaseRetainedBefore(5);  // group 5 not finished yet
  EXPECT_GE((*a)->retain_until_group(), 0);
  pool.ReleaseRetainedBefore(6);
  EXPECT_EQ((*a)->retain_until_group(), -1);
}

TEST_F(BufferPoolTest, PinnedOrRetainedBytes) {
  BufferPool pool(8 * kBlock);
  auto a = pool.Fetch(0, 0, kBlock);  // pinned
  auto b = pool.Fetch(0, 1, kBlock);
  pool.Retain(*b, 3);
  pool.Unpin(*b);                     // retained only
  auto c = pool.Fetch(0, 2, kBlock);
  pool.Unpin(*c);                     // neither
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 2 * kBlock);
  EXPECT_EQ(pool.used_bytes(), 3 * kBlock);
  pool.Unpin(*a);
}

TEST_F(BufferPoolTest, FrameBuffersAreCacheLineAligned) {
  // The packed SIMD kernels view frame payloads as double matrices and the
  // executor DCHECKs this contract on every view it builds: every frame
  // buffer the pool hands out must start on a 64-byte boundary, across
  // evictions and re-fetches.
  static_assert(kFrameAlignment == 64, "kernel alignment contract");
  BufferPool pool(8 * kBlock);
  for (int64_t b = 0; b < 32; ++b) {  // > cap: forces eviction/realloc churn
    auto f = pool.Fetch(0, b % 64, kBlock);
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE(IsAligned((*f)->data.data()))
        << "frame for block " << b << " at " << (*f)->data.data();
    pool.Unpin(*f);
  }
}

TEST_F(BufferPoolTest, MissStartsZeroFilled) {
  BufferPool pool(4 * kBlock);
  auto a = pool.Fetch(0, 0, kBlock);
  EXPECT_EQ((*a)->data[0], 0);
  EXPECT_FALSE((*a)->loading);  // no coalescing: nothing to publish
  pool.Unpin(*a);
}

}  // namespace
}  // namespace riot
