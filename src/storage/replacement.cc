#include "storage/replacement.h"

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>

#include "util/logging.h"

namespace riot {

std::string ReplacementKindName(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru: return "lru";
    case ReplacementKind::kScheduleOpt: return "opt";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// LRU: victims in least-recently-touched order among evictable frames.
// ---------------------------------------------------------------------------
class LruPolicy : public ReplacementPolicy {
 public:
  ReplacementKind kind() const override { return ReplacementKind::kLru; }

  void OnTouch(const PoolKey& key) override {
    auto [it, inserted] = last_seq_.emplace(key, 0);
    if (!inserted) {
      auto ev = evictable_.find(it->second);
      if (ev != evictable_.end()) {
        evictable_.erase(ev);
        evictable_.emplace(next_seq_, key);
      }
    }
    it->second = next_seq_++;
  }

  void OnEvictable(const PoolKey& key) override {
    evictable_.emplace(last_seq_.at(key), key);
  }

  void OnProtected(const PoolKey& key) override {
    evictable_.erase(last_seq_.at(key));
  }

  void OnErase(const PoolKey& key) override {
    auto it = last_seq_.find(key);
    if (it == last_seq_.end()) return;
    evictable_.erase(it->second);
    last_seq_.erase(it);
  }

  bool PickVictim(PoolKey* victim) override {
    if (evictable_.empty()) return false;
    *victim = evictable_.begin()->second;
    return true;
  }

 private:
  uint64_t next_seq_ = 0;
  std::map<PoolKey, uint64_t> last_seq_;
  std::map<uint64_t, PoolKey> evictable_;  // ordered: least recent first
};

// ---------------------------------------------------------------------------
// ScheduleOpt: Belady/MIN against the bound plan(s). Candidates are ordered
// by cached (score, last-touch seq), where the score depends on how many
// plans are bound:
//
//   * one plan:      the absolute next-use position (historical solo
//                    Belady). Entries whose cached next use slipped into
//                    the past are lazily refreshed when a victim is
//                    requested: a cached next use still >= the clock is
//                    exact — it was the first use at some earlier clock,
//                    and no use can appear between the two clocks without
//                    having been the first one.
//   * several plans: the merged future-use clock — min over bound plans of
//                    (plan's next use of the frame - plan's own clock),
//                    i.e. the fewest statement instances ANY tenant will
//                    run before touching the frame again. Normalized
//                    distances from different snapshots of the clocks are
//                    not mutually comparable (each plan's advance shifts
//                    only its own contributions), so the order is rebuilt
//                    on the first victim request after any clock moved —
//                    O(n K log n) then, free while no tenant progressed,
//                    and evictions between advances reuse the order.
//
// kNever (no bound plan uses the frame again) sorts above every finite
// score with least-recently-touched tie-breaks, so unclaimed frames are
// evicted first in LRU order among themselves in every mode — and with
// zero plans bound everything is unclaimed and the policy IS exact LRU.
// ---------------------------------------------------------------------------
class ScheduleOptPolicy : public ReplacementPolicy {
 public:
  ReplacementKind kind() const override {
    return ReplacementKind::kScheduleOpt;
  }

  void OnTouch(const PoolKey& key) override {
    auto [it, inserted] = last_seq_.emplace(key, 0);
    it->second = next_seq_++;
    auto ev = candidates_.find(key);
    if (ev != candidates_.end()) {
      order_.erase(OrderKey(ev->second, key));
      ev->second.seq = it->second;
      order_.insert(OrderKey(ev->second, key));
    }
  }

  void OnEvictable(const PoolKey& key) override {
    Entry e{ScoreOf(key), last_seq_.at(key)};
    candidates_.emplace(key, e);
    order_.insert(OrderKey(e, key));
  }

  void OnProtected(const PoolKey& key) override { RemoveCandidate(key); }

  void OnErase(const PoolKey& key) override {
    RemoveCandidate(key);
    last_seq_.erase(key);
  }

  bool PickVictim(PoolKey* victim) override {
    if (bound_.size() >= 2) {
      // Merged mode: normalized distances cached before the latest clock
      // advance are incomparable with fresh ones; rebuild once per
      // advance, on demand.
      if (merged_stale_) {
        RecomputeAll();
        merged_stale_ = false;
      }
    } else {
      RefreshStale();
    }
    // Farthest score first; among equals, least recently touched.
    if (order_.empty()) return false;
    *victim = std::get<2>(*order_.rbegin());
    return true;
  }

  void BindUsePlan(std::shared_ptr<const BlockUseMap> uses) override {
    bound_.push_back(BoundPlan{std::move(uses), 0});
    Reactivate();
  }

  void UnbindUsePlan(
      const std::shared_ptr<const BlockUseMap>& uses) override {
    RIOT_CHECK(uses != nullptr)
        << "UnbindUsePlan: every binder owns its uses pointer and must "
           "pass it back (a \"newest bind\" guess under concurrency would "
           "unbind another tenant's plan)";
    bool found = false;
    for (auto it = bound_.begin(); it != bound_.end(); ++it) {
      if (it->uses == uses) {
        bound_.erase(it);
        found = true;
        break;
      }
    }
    RIOT_CHECK(found) << "UnbindUsePlan: plan was never bound";
    Reactivate();
  }

  void AdvanceClock(const std::shared_ptr<const BlockUseMap>& uses,
                    int64_t pos) override {
    BoundPlan* plan = nullptr;
    if (uses == nullptr) {
      if (bound_.size() != 1) return;  // no unambiguous active plan
      plan = &bound_.front();
    } else {
      for (BoundPlan& b : bound_) {
        if (b.uses == uses) {
          plan = &b;
          break;
        }
      }
      if (plan == nullptr) return;
    }
    if (pos <= plan->clock) return;  // monotonic; repeats are no-ops
    plan->clock = pos;
    if (bound_.size() == 1) {
      // Solo: the plan's clock IS the policy clock; staleness is handled
      // incrementally by RefreshStale.
      clock_ = std::max(clock_, plan->clock);
    } else if (bound_.size() >= 2) {
      // Merged: this plan's normalized distances shrank relative to every
      // other plan's; cached scores must be rebuilt before the next pick.
      merged_stale_ = true;
    }
  }

 private:
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  struct Entry {
    /// Solo mode: absolute next-use position. Merged mode: min normalized
    /// distance across bound plans. kNever: no bound plan claims the
    /// frame again.
    int64_t score = kNever;
    uint64_t seq = 0;
  };

  // Ascending order ends at (max score, min seq): invert the seq so
  // rbegin() yields farthest-score with least-recently-touched ties.
  static std::tuple<int64_t, uint64_t, PoolKey> OrderKey(const Entry& e,
                                                         const PoolKey& key) {
    return {e.score, std::numeric_limits<uint64_t>::max() - e.seq, key};
  }

  int64_t NextUse(const PoolKey& key) const {
    if (uses_ == nullptr) return kNever;
    auto it = uses_->find(key);
    if (it == uses_->end()) return kNever;
    const std::vector<int64_t>& v = it->second;
    auto p = std::lower_bound(v.begin(), v.end(), clock_);
    return p == v.end() ? kNever : *p;
  }

  /// Merged mode: the fewest remaining statement instances any bound plan
  /// runs before touching `key` again; kNever when none does.
  int64_t MergedDistance(const PoolKey& key) const {
    int64_t best = kNever;
    for (const BoundPlan& b : bound_) {
      auto it = b.uses->find(key);
      if (it == b.uses->end()) continue;
      const std::vector<int64_t>& v = it->second;
      auto p = std::lower_bound(v.begin(), v.end(), b.clock);
      if (p == v.end()) continue;
      best = std::min(best, *p - b.clock);
    }
    return best;
  }

  int64_t ScoreOf(const PoolKey& key) const {
    return bound_.size() >= 2 ? MergedDistance(key) : NextUse(key);
  }

  void RemoveCandidate(const PoolKey& key) {
    auto it = candidates_.find(key);
    if (it == candidates_.end()) return;
    order_.erase(OrderKey(it->second, key));
    candidates_.erase(it);
  }

  /// Solo mode: recomputes entries whose cached next use fell behind the
  /// clock (the scheduled use passed; the true next use moved later). They
  /// cluster at the ascending front of `order_`, so the loop stops at the
  /// first current entry. Each scheduled use is skipped past at most once
  /// per (bind, block), so the total refresh work is amortized by the
  /// plan. (With zero plans every score is kNever >= clock_ = 0 and this
  /// is a no-op.)
  void RefreshStale() {
    while (!order_.empty()) {
      auto it = order_.begin();
      if (std::get<0>(*it) >= clock_) break;
      PoolKey key = std::get<2>(*it);
      order_.erase(it);
      Entry& e = candidates_.at(key);
      e.score = NextUse(key);
      order_.insert(OrderKey(e, key));
    }
  }

  void RecomputeAll() {
    order_.clear();
    for (auto& [key, e] : candidates_) {
      e.score = ScoreOf(key);
      order_.insert(OrderKey(e, key));
    }
  }

  /// Applies the current bind set: cached scores from a previous
  /// activation (different plan set, or solo-vs-merged scoring) are
  /// garbage under the new one, so every activation change recomputes
  /// from scratch. Solo mode mirrors the surviving plan into
  /// uses_/clock_ so it resumes exact Belady from its own progress.
  void Reactivate() {
    if (bound_.size() == 1) {
      uses_ = bound_.front().uses;
      clock_ = bound_.front().clock;
    } else {
      uses_.reset();
      clock_ = 0;
    }
    merged_stale_ = false;
    RecomputeAll();
  }

  struct BoundPlan {
    std::shared_ptr<const BlockUseMap> uses;
    int64_t clock = 0;
  };

  std::vector<BoundPlan> bound_;
  std::shared_ptr<const BlockUseMap> uses_;  // solo mode only
  int64_t clock_ = 0;                        // solo mode only
  bool merged_stale_ = false;  // a clock moved since the last rebuild
  uint64_t next_seq_ = 0;
  std::map<PoolKey, uint64_t> last_seq_;
  std::map<PoolKey, Entry> candidates_;
  std::set<std::tuple<int64_t, uint64_t, PoolKey>> order_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(
    ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<LruPolicy>();
    case ReplacementKind::kScheduleOpt:
      return std::make_unique<ScheduleOptPolicy>();
  }
  RIOT_CHECK(false) << "unknown replacement kind";
  return nullptr;
}

}  // namespace riot
