// Pluggable buffer-pool eviction policies. The BufferPool owns frame
// lifecycle and accounting; a ReplacementPolicy only decides *which*
// evictable frame goes next. Two implementations:
//
//   * Lru         — bit-for-bit the pool's historical behavior: victims in
//                   least-recently-touched order. Evictable frames are kept
//                   in a side index ordered by last-touch sequence, so
//                   victim selection no longer scans the whole frame table
//                   past pinned/retained frames (the old O(n) walk); it is
//                   O(log n) per decision. (A plain "append when a frame
//                   becomes evictable" intrusive list would be O(1) but
//                   orders victims by unpin time, not touch time, changing
//                   eviction behavior — the seq index keeps LRU exact.)
//   * ScheduleOpt — Belady/MIN driven by the plans' block access scripts:
//                   each executor binds its per-(array, block) future-use
//                   positions (core/access_plan's LowerPlan emits
//                   them) and advances its own logical clock as statement
//                   instances complete. Victim scoring by bind count:
//
//                   one bound plan    exact Belady: the victim is the
//                                     evictable frame whose next use is
//                                     farthest in the future
//                                     (never-used-again first,
//                                     least-recently-touched tie-break).
//                   several plans     merged future-use clock: each plan's
//                   (concurrent       next use of a frame is normalized to
//                   sessions over     the plan's *remaining instances
//                   one shared pool)  before that use* (next_use_pos minus
//                                     the plan's own advanced clock) —
//                                     comparable across programs where raw
//                                     positions are not; a frame several
//                                     tenants will touch scores the
//                                     minimum normalized distance (a
//                                     shared Zipf-head input is kept as
//                                     long as ANY tenant reuses it soon).
//                                     Frames no bound plan claims again
//                                     are the best victims, in LRU order
//                                     among themselves; claimed frames
//                                     rank behind them, farthest merged
//                                     distance first.
//                   zero plans        exact LRU order (an unbound pool, or
//                                     a shared pool between runs).
//
//                   With one plan the merged score (next_use - clock) is
//                   an order-preserving shift of the absolute position, so
//                   solo victim selection is bit-for-bit the historical
//                   Belady behavior.
//
// All methods are called with the owning pool's mutex held; policies need
// no locking of their own and must not call back into the pool.
#ifndef RIOTSHARE_STORAGE_REPLACEMENT_H_
#define RIOTSHARE_STORAGE_REPLACEMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace riot {

/// (array id, linear block index) — the BufferPool's frame key.
using PoolKey = std::pair<int, int64_t>;

/// Per-(array, block) ascending statement-instance positions at which the
/// block is accessed (read or write, saved or not). Produced by
/// core/access_plan from a lowered script; consumed by ScheduleOpt and the
/// cost model's cache simulator.
using BlockUseMap = std::map<PoolKey, std::vector<int64_t>>;

enum class ReplacementKind { kLru, kScheduleOpt };

std::string ReplacementKindName(ReplacementKind kind);

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual ReplacementKind kind() const = 0;

  /// The frame entered the pool or was accessed (fetch hit, miss insert,
  /// prefetch reservation, adoption).
  virtual void OnTouch(const PoolKey& key) = 0;
  /// The frame became an eviction candidate (unpinned, unretained, regular
  /// state) / ceased being one. Calls are always paired transitions; the
  /// pool never reports the same state twice in a row.
  virtual void OnEvictable(const PoolKey& key) = 0;
  virtual void OnProtected(const PoolKey& key) = 0;
  /// The frame left the pool (evicted, dropped, abandoned).
  /// Called in every state, evictable or not.
  virtual void OnErase(const PoolKey& key) = 0;

  /// Picks the preferred victim among evictable frames. Returns false when
  /// there is none. Must not mutate policy state observably: the pool
  /// follows up with OnErase for the chosen victim.
  virtual bool PickVictim(PoolKey* victim) = 0;

  // ----------------------------------------------- schedule-driven hooks
  // No-ops for history-based policies; ScheduleOpt overrides.
  /// Installs a plan's future-use positions. Binds nest (concurrent
  /// sessions over one shared pool): every bound plan contributes to the
  /// merged victim ordering through its own normalized clock (see the
  /// header comment), and each plan's clock is tracked per bind, so a
  /// plan that becomes the sole survivor resumes exact solo Belady from
  /// its own progress.
  virtual void BindUsePlan(std::shared_ptr<const BlockUseMap> uses) {
    (void)uses;
  }
  /// Removes the bound plan matching `uses`. Every binder owns its `uses`
  /// pointer and must pass it back; nullptr is a CHECK failure (the legacy
  /// "newest bind" guess silently corrupted the surviving plan's clock
  /// when concurrent unbinds raced).
  virtual void UnbindUsePlan(const std::shared_ptr<const BlockUseMap>& uses) {
    (void)uses;
  }
  /// All of plan `uses`'s uses at statement-instance positions < `pos` are
  /// in the past; `pos` itself is the instance currently executing.
  /// Monotonic per plan. nullptr addresses the active (sole) plan and is
  /// ignored when several are bound (no unambiguous addressee).
  virtual void AdvanceClock(const std::shared_ptr<const BlockUseMap>& uses,
                            int64_t pos) {
    (void)uses;
    (void)pos;
  }
};

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(ReplacementKind kind);

}  // namespace riot

#endif  // RIOTSHARE_STORAGE_REPLACEMENT_H_
