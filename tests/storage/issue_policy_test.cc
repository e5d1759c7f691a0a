// The I/O issue policy on its own: pure budget arithmetic, no threads,
// stores, pools or sleeps.
#include "storage/issue_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/access_plan.h"
#include "storage/buffer_pool.h"

namespace riot {
namespace {

BlockAccessRecord Read(int array_id, int64_t block, int64_t bytes,
                       bool saved = false) {
  BlockAccessRecord r;
  r.array_id = array_id;
  r.block = block;
  r.bytes = bytes;
  r.type = AccessType::kRead;
  r.saved = saved;
  return r;
}

BlockAccessRecord Write(int array_id, int64_t block, int64_t bytes) {
  BlockAccessRecord r = Read(array_id, block, bytes);
  r.type = AccessType::kWrite;
  return r;
}

// A block's name in these tests: array * 1000 + block.
int64_t Name(const BlockAccessRecord& r) {
  return r.array_id * 1000 + r.block;
}

// Drives FanOut over `recs` with the blocks named in `in_flight` already
// read ahead and those in `served` resident; `refuse` names blocks whose
// issue fails. Returns the (name, charge) of every issue FanOut tried, in
// order.
std::vector<std::pair<int64_t, int64_t>> FanOutCharges(
    const std::vector<BlockAccessRecord>& recs, int64_t required,
    int64_t earlier, std::set<int64_t> in_flight,
    const std::set<int64_t>& served = {},
    const std::set<int64_t>& refuse = {}) {
  std::vector<std::pair<int64_t, int64_t>> tried;
  FanOut(
      recs.data(), recs.size(), required, earlier,
      [&](const BlockAccessRecord& r) {
        return in_flight.count(Name(r)) > 0;
      },
      [&](const BlockAccessRecord& r) { return served.count(Name(r)) > 0; },
      [&](const BlockAccessRecord& r, int64_t charge) {
        tried.emplace_back(Name(r), charge);
        if (refuse.count(Name(r)) > 0) return false;
        in_flight.insert(Name(r));
        return true;
      });
  return tried;
}

using Tries = std::vector<std::pair<int64_t, int64_t>>;

TEST(IssuePolicyTest, LookaheadBudgetLeavesOtherWorkersTheirInstances) {
  EXPECT_EQ(LookaheadBudget(1000, 1, 300), 1000);
  EXPECT_EQ(LookaheadBudget(1000, 2, 300), 700);
  EXPECT_EQ(LookaheadBudget(1000, 3, 300), 400);
  EXPECT_EQ(LookaheadBudget(1000, 4, 300), 100);
  EXPECT_EQ(LookaheadBudget(1000, 5, 300), 0);  // never negative
}

TEST(IssuePolicyTest, LookaheadIsChargedThePeakItWaitsThroughNotItsOwn) {
  // The requirement dips after position 1. A read for position 4 waits
  // through [frontier, 4), so it is charged their largest requirement.
  const std::vector<int64_t> r = {100, 400, 100, 100, 50};
  const RangeMax required(r);
  EXPECT_EQ(LookaheadCharge(required, 0, 4), 400);
  EXPECT_EQ(LookaheadCharge(required, 2, 4), 100);
  EXPECT_EQ(LookaheadCharge(required, 4, 4), 0);  // its own instance runs
  // At a cap of exactly the peak, a budget of cap - peak would allow no
  // lookahead at all. Past the peak the read fits across the dip.
  const int64_t budget = LookaheadBudget(400, 1, 250);
  EXPECT_FALSE(PrefetchFits(0, 0, LookaheadCharge(required, 0, 4), 100,
                            budget));
  EXPECT_TRUE(PrefetchFits(0, 0, LookaheadCharge(required, 2, 4), 100,
                           budget));
  EXPECT_TRUE(PrefetchFits(200, 0, LookaheadCharge(required, 2, 4), 100,
                           budget));
  EXPECT_FALSE(PrefetchFits(201, 0, LookaheadCharge(required, 2, 4), 100,
                            budget));
}

TEST(IssuePolicyTest, WriteHeldBytesCountAgainstTheHeadroom) {
  // A session's budget is the runtime's unreserved headroom, and frames
  // held only by landing writes count against it.
  EXPECT_TRUE(PrefetchFits(0, 0, 0, 100, 300));
  EXPECT_TRUE(PrefetchFits(0, 200, 0, 100, 300));
  EXPECT_FALSE(PrefetchFits(0, 201, 0, 100, 300));
  EXPECT_FALSE(PrefetchFits(100, 150, 0, 100, 300));
}

TEST(IssuePolicyTest, EachIssuedFanOutReadShrinksTheNextCharge) {
  // R(pos) = 500 covers the instance's four 100-byte reads. The consumer
  // keeps the first; each issued read is charged R less the reads already
  // in flight and itself.
  const std::vector<BlockAccessRecord> recs = {
      Read(0, 1, 100), Read(0, 2, 100), Read(0, 3, 100), Read(0, 4, 100)};
  EXPECT_EQ(FanOutCharges(recs, 500, 0, {}),
            (Tries{{2, 400}, {3, 300}, {4, 200}}));
  // A read that fails to issue stays with the consumer and frees nothing.
  EXPECT_EQ(FanOutCharges(recs, 500, 0, {}, {}, {2}),
            (Tries{{2, 400}, {3, 400}, {4, 300}}));
  // A read already in flight (lookahead) is the instance's too: the
  // consumer keeps the first read nobody has issued.
  EXPECT_EQ(FanOutCharges(recs, 500, 0, {1}), (Tries{{3, 300}, {4, 200}}));
  // Never below what the earlier positions still running require.
  EXPECT_EQ(FanOutCharges(recs, 500, 350, {}),
            (Tries{{2, 400}, {3, 350}, {4, 350}}));
}

TEST(IssuePolicyTest, ABlockReadTwiceIsOneFrame) {
  const std::vector<BlockAccessRecord> recs = {
      Read(0, 1, 100), Read(0, 2, 100), Read(0, 1, 100), Read(1, 1, 100)};
  EXPECT_TRUE(FirstDiskRead(recs.data(), 0));
  EXPECT_TRUE(FirstDiskRead(recs.data(), 1));
  EXPECT_FALSE(FirstDiskRead(recs.data(), 2));
  EXPECT_TRUE(FirstDiskRead(recs.data(), 3));  // another array's block 1
  // Block 1's second read neither fans out nor counts twice in flight.
  EXPECT_EQ(FanOutCharges(recs, 500, 0, {}),
            (Tries{{2, 400}, {1001, 300}}));
  EXPECT_EQ(FanOutCharges(recs, 500, 0, {1}), (Tries{{1001, 300}}));
}

TEST(IssuePolicyTest, SavedReadsAndWritesNeverFanOut) {
  const std::vector<BlockAccessRecord> recs = {
      Read(0, 1, 100, /*saved=*/true), Read(0, 2, 100), Write(0, 5, 100),
      Read(0, 3, 100)};
  EXPECT_FALSE(FirstDiskRead(recs.data(), 0));
  EXPECT_FALSE(FirstDiskRead(recs.data(), 2));
  // The consumer keeps block 2, not the saved block 1.
  EXPECT_EQ(FanOutCharges(recs, 500, 0, {}), (Tries{{3, 400}}));
  // Resident blocks served from memory are not disk reads either.
  EXPECT_EQ(FanOutCharges(recs, 500, 0, {}, {2}), (Tries{}));
}

TEST(IssuePolicyTest, AccountAdmitsUpToItsBudgetExactly) {
  EXPECT_TRUE(AccountAdmits(900, 100, 1000));
  EXPECT_FALSE(AccountAdmits(901, 100, 1000));
  EXPECT_FALSE(AccountAdmits(900, 101, 1000));
  PoolAccount account;
  account.budget_bytes = 1000;
  account.charged_bytes = 900;
  EXPECT_TRUE(account.Admits(100));
  EXPECT_FALSE(account.Admits(101));
  account.charged_bytes = 1000;
  EXPECT_TRUE(account.Admits(0));
  EXPECT_FALSE(account.Admits(1));
}

TEST(IssuePolicyTest, AcquireRankOrdersAnInstancesAccesses) {
  // Records in script order: a write, a read in another tenant's prefetch,
  // two of this run's reads in flight (one also in another's prefetch)
  // around an unissued read.
  struct Access {
    bool write, own, other;
  };
  const std::vector<Access> accesses = {
      {true, false, true}, {false, false, true}, {false, true, true},
      {false, false, false}, {false, true, false}};
  int asked = 0;
  std::vector<std::pair<AcquireRank, size_t>> order;
  for (size_t i = 0; i < accesses.size(); ++i) {
    const Access& a = accesses[i];
    order.emplace_back(RankAcquire(a.write, a.own,
                                   [&] {
                                     ++asked;
                                     return a.other;
                                   }),
                       i);
  }
  std::sort(order.begin(), order.end());
  std::vector<size_t> pinned;
  for (const auto& [rank, i] : order) pinned.push_back(i);
  EXPECT_EQ(pinned, (std::vector<size_t>{3, 2, 4, 1, 0}));
  // Only reads this run has not issued ask about other tenants.
  EXPECT_EQ(asked, 2);
}

TEST(RangeMaxTest, MatchesBruteForce) {
  // Every window [lo, hi) of sequences of every length up to 40, including
  // empty and out-of-range windows.
  uint64_t x = 12345;
  for (size_t n = 0; n <= 40; ++n) {
    std::vector<int64_t> values(n);
    for (int64_t& v : values) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<int64_t>(x >> 40);
    }
    RangeMax rm(values);
    for (size_t lo = 0; lo <= n + 1; ++lo) {
      for (size_t hi = 0; hi <= n + 2; ++hi) {
        int64_t want = 0;
        for (size_t i = lo; i < std::min(hi, n); ++i) {
          want = std::max(want, values[i]);
        }
        EXPECT_EQ(rm.Max(lo, hi), want) << n << " [" << lo << ", " << hi
                                        << ")";
      }
    }
  }
}

}  // namespace
}  // namespace riot
