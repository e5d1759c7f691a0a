// The I/O issue policy: the budget arithmetic behind every read the
// engine issues ahead of its consumer and every frame the pool admits for
// one, as pure functions with no clock, lock, pool or executor. The engine
// (exec/executor.cc) calls them under its prefetch lock, the pool
// (BufferPool::Fetch, TryStartPrefetch) under its own.
//
// R(q) is the plan's exact requirement at position q
// (AccessScript::required_bytes) and f the smallest incomplete position.
//   * Lookahead, a read for an instance at s not yet dispatched, waits
//     through [f, s). It is charged the largest R there (LookaheadCharge)
//     and fits if lookahead in flight + that charge + the block stay within
//     the prefetch budget (PrefetchFits). A solo run's budget is the cap
//     less the other workers' instance footprints (LookaheadBudget), so at
//     one worker lookahead never displaces a frame the plan needs and is
//     never canceled. A session's is the runtime's unreserved headroom,
//     which landing write-throughs count against, and it charges 0: its
//     requirement is its footprint, reserved at admission. Either way a
//     fetch within the plan's requirement never waits for a prefetch.
//   * Fan-out: at dispatch, an instance's consumer keeps its first disk
//     read nobody has issued and the others go to the I/O workers (FanOut).
//     They are frames R(p) counts, so a solo run charges each R(p) less the
//     instance's reads in flight and the block, but no less than the
//     earlier positions still running require; a session charges its
//     account. A read whose producing write has not landed, or that finds
//     no room, stays with the consumer.
//   * Account: a session's charge may not pass its budget, which admission
//     reserved for its footprint (AccountAdmits).
//   * Acquire order (RankAcquire): unissued reads first, so the consumer
//     reads them while the others are in flight; then the run's own reads
//     in flight; then blocks in another tenant's prefetch, waited for only
//     once the run holds its own, so two tenants never wait on each other's
//     fan-out; writes last, since a read may load the frame a write aliases.
#ifndef RIOTSHARE_STORAGE_ISSUE_POLICY_H_
#define RIOTSHARE_STORAGE_ISSUE_POLICY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace riot {

/// \brief Range maximum over a fixed sequence (here R): a sparse table,
/// O(n log n) to build and O(1) per query.
class RangeMax {
 public:
  explicit RangeMax(const std::vector<int64_t>& values) {
    levels_.push_back(values);
    for (size_t w = 1; 2 * w <= values.size(); w *= 2) {
      const std::vector<int64_t>& prev = levels_.back();
      std::vector<int64_t> next(prev.size() - w);
      for (size_t i = 0; i < next.size(); ++i) {
        next[i] = std::max(prev[i], prev[i + w]);
      }
      levels_.push_back(std::move(next));
    }
  }
  /// Max of values[lo, hi); 0 when the range is empty.
  int64_t Max(size_t lo, size_t hi) const {
    hi = std::min(hi, levels_[0].size());
    if (lo >= hi) return 0;
    // Two overlapping power-of-two windows cover [lo, hi).
    size_t k = 0;
    while (size_t{2} << k <= hi - lo) ++k;
    const std::vector<int64_t>& level = levels_[k];
    return std::max(level[lo], level[hi - (size_t{1} << k)]);
  }

 private:
  /// levels_[k][i] = max of values[i, i + 2^k).
  std::vector<std::vector<int64_t>> levels_;
};

/// A solo run's prefetch budget: the cap less `workers - 1` instance
/// footprints, the headroom each other kernel worker may pin.
inline int64_t LookaheadBudget(int64_t cap_bytes, int workers,
                               int64_t max_instance_bytes) {
  return std::max<int64_t>(
      0, cap_bytes - static_cast<int64_t>(workers - 1) * max_instance_bytes);
}

/// The requirement a lookahead read for position `pos` is charged beside
/// while `frontier` is the smallest incomplete position.
inline int64_t LookaheadCharge(const RangeMax& required, size_t frontier,
                               size_t pos) {
  return required.Max(frontier, pos);
}

/// The pool's fit test for an uncharged prefetch of `bytes`: lookahead in
/// flight, bytes held by landing writes (when the budget counts them), the
/// issuer's charge and the block itself stay within the budget.
inline bool PrefetchFits(int64_t lookahead_bytes, int64_t write_held_bytes,
                         int64_t charge_bytes, int64_t bytes,
                         int64_t budget_bytes) {
  return lookahead_bytes + write_held_bytes + charge_bytes + bytes <=
         budget_bytes;
}

/// The account rule: `bytes` more may not lift a session's charge past
/// its budget.
inline bool AccountAdmits(int64_t charged_bytes, int64_t bytes,
                          int64_t budget_bytes) {
  return charged_bytes + bytes <= budget_bytes;
}

/// True when `recs[i]` is a disk read and the first of its block among
/// `recs[0, i)`: saved reads come from memory, and a block read twice by
/// one instance is one frame. `Record` has `disk_read()`, `array_id` and
/// `block` (core/access_plan.h's BlockAccessRecord).
template <class Record>
bool FirstDiskRead(const Record* recs, size_t i) {
  if (!recs[i].disk_read()) return false;
  for (size_t j = 0; j < i; ++j) {
    if (recs[j].disk_read() && recs[j].array_id == recs[i].array_id &&
        recs[j].block == recs[i].block) {
      return false;
    }
  }
  return true;
}

/// Fans out the reads of one instance, `recs[0, n)`, which requires
/// `required`; the earlier positions still running require `earlier`.
/// `in_flight(rec)`: the run has a read of the block in flight.
/// `served(rec)`: the block is served from memory.
/// `issue(rec, charge)`: tries to issue the read; true if it is in flight
/// afterwards. The consumer keeps the first read neither in flight nor
/// served.
template <class Record, class InFlight, class Served, class Issue>
void FanOut(const Record* recs, size_t n, int64_t required, int64_t earlier,
            const InFlight& in_flight, const Served& served,
            const Issue& issue) {
  int64_t own = 0;
  for (size_t i = 0; i < n; ++i) {
    if (FirstDiskRead(recs, i) && in_flight(recs[i])) own += recs[i].bytes;
  }
  bool consumer_read = false;
  for (size_t i = 0; i < n; ++i) {
    const Record& rec = recs[i];
    if (!FirstDiskRead(recs, i) || in_flight(rec) || served(rec)) continue;
    if (!consumer_read) {
      consumer_read = true;
      continue;
    }
    if (issue(rec, std::max(earlier, required - own - rec.bytes))) {
      own += rec.bytes;
    }
  }
}

/// The order an instance pins its accesses in, smallest rank first and
/// record order within a rank.
enum class AcquireRank { kUnissuedRead, kOwnInFlight, kOtherPrefetch, kWrite };

/// `other_prefetch()` is asked only of a read this run has not issued: is
/// the block in another tenant's prefetch?
template <class OtherPrefetch>
AcquireRank RankAcquire(bool write, bool own_in_flight,
                        const OtherPrefetch& other_prefetch) {
  if (write) return AcquireRank::kWrite;
  if (own_in_flight) return AcquireRank::kOwnInFlight;
  return other_prefetch() ? AcquireRank::kOtherPrefetch
                          : AcquireRank::kUnissuedRead;
}

}  // namespace riot

#endif  // RIOTSHARE_STORAGE_ISSUE_POLICY_H_
