// Buffer pool with an explicit memory cap (paper Section 4.2: "we impose a
// memory cap and control memory data reuse explicitly").
//
// Frames are keyed by (array id, linear block index). The executor pins a
// frame while a statement instance computes on it, and additionally marks
// frames "retained" until a given group index to realize sharing
// opportunities (keep-until-reuse). When the cap is hit, an unpinned,
// unretained frame is evicted by the pool's pluggable ReplacementPolicy
// (storage/replacement.h): LRU (the default — bit-for-bit the pool's
// historical behavior) or ScheduleOpt, a Belady/MIN policy the
// executor drives with the plan's known future block-access positions.
// Victim selection is O(log n): the policies index evictable frames
// directly instead of scanning the frame table past pinned/retained ones.
//
// The pool makes no store call of its own. A caller that creates a frame
// on a miss fills it (and publishes it with MarkLoaded when the fetch
// coalesces loads), and every block write is one the caller asks for:
// synchronous, or write-through behind the caller (WriteThroughAsync). The
// executor hands each freshly computed output frame to the write workers
// instead of writing it on its own thread. The frame stays resident and
// unevictable until its write lands, so bytes in flight count against the
// cap (though not as required bytes). The workers call the store without a
// lock of their own — store calls on distinct blocks may overlap
// (storage/block_store.h) — so the pool orders calls on one block itself:
// a write barrier makes a later disk read, prefetch or rewrite of the
// block wait for the pending write (AwaitWrite; a prefetch is declined),
// so readers never observe the pre-write disk image or tear the buffer.
// A frame another holder also pins is never written behind: that holder
// may still mutate it.
//
// A write's completion runs on an I/O worker, which must not allocate (see
// storage/io_pool.h): it only marks the write landed and wakes waiters.
// Everything that frees or allocates memory — erasing the pending entry,
// the ledger bookkeeping, releasing the frame, the replacement policy's
// evictable-set update — is reaped by the next pool call on a consumer
// thread (or by a drain). For the same reason the caller writes behind
// only blocks that already exist in their store.
//
// The pool is thread-safe: the pipelined executor's I/O workers fill
// prefetch frames while kernel workers (one by default, many under
// exec_threads > 1) concurrently fetch, pin, and retain.
// Prefetch has its own frame lifecycle (kPrefetching -> kPrefetched ->
// adopted or abandoned) and its own budget — or, for a session's fan-out
// read, the session's account (TryStartPrefetch) — and is *never* allowed to
// violate the cap or evict a pinned/retained/in-flight frame — a prefetch
// that would need either is declined. The load latch and the write
// barrier keep any two store calls off the same block at once.
#ifndef RIOTSHARE_STORAGE_BUFFER_POOL_H_
#define RIOTSHARE_STORAGE_BUFFER_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "storage/block_store.h"
#include "storage/issue_policy.h"
#include "storage/replacement.h"
#include "util/aligned.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace riot {

class IoPool;

/// \brief Per-session ledger of the shared pool's *required* bytes (pinned
/// or retained frames, and the tenant's fan-out reads in flight)
/// attributable to one tenant. A Fetch/adoption that would lift the
/// tenant's charge above `budget_bytes` is refused with kResourceExhausted
/// instead of eating into other tenants' slices, and a fan-out read that
/// would is not issued. A frame is charged to the account that made it
/// required (a fan-out read from its issue) and uncharged when it stops
/// being required; a frame another tenant already holds required is
/// not double-charged (cross-session sharing is free for the second
/// reader). All mutations happen under the owning pool's mutex; the
/// atomics let the session runtime and tests read without it.
///
/// Pins carry owner identity (Frame::holders), so when the charged
/// claimant of a shared frame releases its own pins and retentions — or
/// detaches — while another tenant still holds the frame required, the
/// charge is *transferred* to a surviving claimant rather than left on
/// (or stranded with) the releaser's ledger. A tenant is therefore only
/// ever charged for frames it itself holds required, which is bounded by
/// its plan footprint: a session whose budget covers its footprint sees
/// zero budget_rejections regardless of what its neighbors share. (A
/// transfer charges the survivor without a budget check for the same
/// reason — the frame is already in the survivor's footprint.) Pins
/// taken without an account are anonymous and never charged or
/// transferred to.
struct PoolAccount {
  int64_t budget_bytes = 0;  // immutable while the account is in use
  std::atomic<int64_t> charged_bytes{0};
  std::atomic<int64_t> peak_charged_bytes{0};
  std::atomic<int64_t> budget_rejections{0};  // fetches refused over budget

  /// The account rule (storage/issue_policy.h). Exact under the owning
  /// pool's mutex, a snapshot anywhere else.
  bool Admits(int64_t bytes) const {
    return AccountAdmits(charged_bytes.load(), bytes, budget_bytes);
  }
};

/// \brief One run's write-throughs in flight (BufferPool::WriteThroughAsync).
/// The pool updates it under its mutex; the atomics let the owning run read
/// it without the lock. Must outlive every write it owns
/// (DrainWriteThroughs).
struct WriteThroughLedger {
  /// Bytes of frames held resident only by one of this run's in-flight
  /// writes (no pin, no retention), and the peak of that figure.
  std::atomic<int64_t> held_bytes{0};
  std::atomic<int64_t> peak_held_bytes{0};
  /// Writes finished so far, failed ones included.
  std::atomic<int64_t> landed{0};
  /// Set by the first failed write, so the run can stop early.
  std::atomic<bool> failed{false};
  /// Guarded by the owning pool's mutex (not annotated: the ledger cannot
  /// name it). The blocks whose writes are in flight, oldest first
  /// (AwaitOldestWrite), and the first failed write's status (read it
  /// through DrainWriteThroughs).
  std::deque<std::pair<int, int64_t>> in_flight;
  Status first_error;
};

struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Wall time callers stalled on the write barrier, waiting for an
  /// in-flight write-through of a block to land.
  double writeback_stall_seconds = 0.0;
  int64_t prefetch_issued = 0;    // TryStartPrefetch successes
  int64_t prefetch_declined = 0;  // no budget/room without touching
                                  // protected frames
  int64_t prefetch_abandoned = 0;  // issued but never adopted
  /// Cross-session load coalescing: fetches that waited out (or joined)
  /// another caller's in-flight load of the same block instead of issuing
  /// a second disk read.
  int64_t coalesced_loads = 0;
};

/// \brief One consistent view of the pool: counters plus the frame-state
/// aggregates they are usually compared against, all captured under a
/// single lock acquisition. Reading stats() and used_bytes()/
/// PinnedFrames() as separate calls can interleave with write-through
/// completions and concurrent fetches, observing counters mid-update
/// relative to frame state; invariant checks must go through Snapshot().
struct BufferPoolSnapshot {
  BufferPoolStats stats;
  int64_t used_bytes = 0;
  int64_t required_bytes = 0;       // pinned or retained regular frames
  int64_t prefetch_bytes = 0;       // frames in prefetch states
  int64_t pinned_frames = 0;
  int64_t pending_writebacks = 0;   // in-flight or failed-and-poisoned
};

class BufferPool {
 public:
  /// Lifecycle of a frame's contents with respect to the prefetcher.
  /// kRegular frames belong to the execution thread; kPrefetching frames
  /// are being filled by an I/O worker (untouchable, unevictable);
  /// kPrefetched frames hold completed prefetch data awaiting adoption.
  enum class FrameState { kRegular, kPrefetching, kPrefetched };

  /// One owner's keep-until-reuse obligation on a frame. Group indices are
  /// only comparable within one run, so a shared multi-tenant frame keeps
  /// one entry per owner (the session's PoolAccount; nullptr for solo
  /// runs) — tenant A completing its group 5 must never release tenant
  /// B's "retain until group 5", which counts in a different program's
  /// numbering.
  struct Retention {
    PoolAccount* owner = nullptr;
    int64_t until_group = -1;
  };

  /// One tenant's pin count on a frame. Only account-carrying pins are
  /// recorded (anonymous pins are `pins` minus the holders' sum); the
  /// entry exists so the pool knows which tenants still claim a shared
  /// frame when the charged one lets go (see PoolAccount).
  struct Holder {
    PoolAccount* account = nullptr;
    int pins = 0;
  };

  struct Frame {
    int array_id = -1;
    int64_t block = -1;
    /// 64-byte-aligned (util/aligned.h): the packed SIMD kernels view frame
    /// payloads as double matrices and rely on cache-line-aligned starts.
    AlignedBuffer data;
    int pins = 0;
    /// Per-owner keep-until-reuse obligations; empty = unretained. At most
    /// one entry per owner (Retain merges by max until_group).
    std::vector<Retention> retentions;
    /// Per-account pin counts (at most one entry per account; anonymous
    /// pins are not recorded). Kept so the budget charge can follow a
    /// surviving claimant when the charged tenant releases.
    std::vector<Holder> holders;
    bool retained() const { return !retentions.empty(); }
    /// Legacy view: the farthest until_group across owners; -1 when none.
    int64_t retain_until_group() const {
      int64_t m = -1;
      for (const Retention& r : retentions) m = std::max(m, r.until_group);
      return m;
    }
    FrameState state = FrameState::kRegular;
    /// Contents are garbage (e.g. a failed load): the frame is dropped when
    /// its last pin releases, and Fetch refuses to hand it out meanwhile.
    bool discarded = false;
    /// A coalescing creator (Fetch with coalesce_loads, miss) is filling
    /// this frame from disk; concurrent coalescing fetches of the block
    /// wait for MarkLoaded (or Discard) instead of reading garbage or
    /// issuing a duplicate disk read. Loading frames are pinned by their
    /// creator and never evictable.
    bool loading = false;
    /// Ledger of the in-flight write-through of this frame's contents;
    /// nullptr when none. Such a frame is unevictable, and its buffer must
    /// not be refilled or mutated until the write lands (AwaitWrite).
    WriteThroughLedger* writer = nullptr;
    /// Session the frame's required bytes are charged to; nullptr when
    /// unrequired or claimed without an account. Always one of the
    /// frame's current claimants (a holder with pins, or a retention
    /// owner) — RechargeLocked moves it when the charged claimant lets
    /// go while others remain — or, in a prefetch state, the session whose
    /// fan-out read it is (TryStartPrefetch with an account).
    PoolAccount* account = nullptr;
  };

  /// `policy` decides eviction order; nullptr = LRU (the historical
  /// behavior, bit-for-bit).
  explicit BufferPool(int64_t cap_bytes,
                      std::unique_ptr<ReplacementPolicy> policy = nullptr);
  /// Waits out any write still in flight (a backstop: each run drains its
  /// own writes with DrainWriteThroughs, which reports their failures).
  ~BufferPool();

  /// Returns the frame for (array_id, block), pinned; call Unpin when done.
  /// A miss creates a zero-filled frame, which the caller fills. Must not be
  /// called for a block currently in a prefetch state (adopt or abandon it
  /// first).
  /// `was_resident` (optional) reports whether the frame already existed:
  /// concurrent consumers need the hit/miss answer atomically with the pin
  /// (a separate Probe could race with an eviction in between).
  /// A miss on a block whose write failed surfaces the write's error until
  /// the writer drains it.
  /// `account`, when set, charges the session ledger for newly-required
  /// bytes and refuses the fetch (kResourceExhausted) past its budget.
  /// `coalesce_loads` (every executor fetch) makes a miss mark the frame
  /// `loading` — the caller MUST fill it and call MarkLoaded (or Discard
  /// on failure) — and makes a hit on a loading frame wait for that load,
  /// so two workers or sessions fetching the same block coalesce on one
  /// disk read.
  Result<Frame*> Fetch(int array_id, int64_t block, int64_t bytes,
                       bool* was_resident = nullptr,
                       PoolAccount* account = nullptr,
                       bool coalesce_loads = false) EXCLUDES(mu_);

  /// Frame lookup without side effects; nullptr if absent.
  Frame* Probe(int array_id, int64_t block) EXCLUDES(mu_);
  /// True while the block's frame is in a prefetch state: a Fetch of it
  /// waits until the prefetching run adopts or abandons it.
  bool InPrefetch(int array_id, int64_t block) EXCLUDES(mu_);

  /// Releases one pin. `account` must be the account the matching Fetch /
  /// AdoptPrefetched pinned with (nullptr for anonymous pins): it
  /// releases that tenant's hold so the budget charge can transfer to a
  /// surviving claimant of a shared frame.
  void Unpin(Frame* frame, PoolAccount* account = nullptr) EXCLUDES(mu_);
  /// Completes a coalesced load (Fetch with coalesce_loads that missed):
  /// clears the loading mark and wakes waiters. Call after filling
  /// frame->data, before Unpin.
  void MarkLoaded(Frame* frame) EXCLUDES(mu_);
  /// Severs every reference to `account` from the pool: its holder
  /// entries and retentions are dropped, and frames still charged to it
  /// are uncharged — transferring the charge to a surviving claimant if a
  /// shared frame stays required (a dangling pointer would otherwise
  /// outlive the owning session; the account is typically
  /// stack-allocated per run). The executor calls this in its session
  /// cleanup, once its fan-out reads are adopted or abandoned; after it
  /// returns the account object may be destroyed.
  void DetachAccount(PoolAccount* account) EXCLUDES(mu_);
  /// Unpin for a frame whose contents must not outlive the caller: marks it
  /// discarded and erases it once the last pin drops (other holders erase
  /// it through their own Unpin/Discard). Used when a load into the frame
  /// failed — a zero/garbage-filled frame must never linger as apparently
  /// clean cache — and when a rolled-back write target was never loaded.
  /// `account` as in Unpin.
  void Discard(Frame* frame, PoolAccount* account = nullptr) EXCLUDES(mu_);
  /// Retains on behalf of `owner` (one entry per owner, merged by max;
  /// nullptr = the solo-run owner — bit-for-bit the historical behavior).
  void Retain(Frame* frame, int64_t until_group,
              PoolAccount* owner = nullptr) EXCLUDES(mu_);
  /// Releases every retention of `owner` that expired strictly before
  /// `group`; other owners' retentions (their group indices live in other
  /// programs' numberings) are untouched.
  void ReleaseRetainedBefore(int64_t group, PoolAccount* owner = nullptr)
      EXCLUDES(mu_);

  // ------------------------------------------------- replacement policy
  ReplacementKind replacement_kind() const EXCLUDES(mu_);
  /// Forwarders to the policy's schedule-driven hooks, under the pool
  /// lock. No-ops for history-based policies; for ScheduleOpt the executor
  /// binds the plan's per-block future-use positions before a run, advances
  /// the clock as statement instances complete, and unbinds afterwards.
  /// Binds nest (concurrent sessions over one shared pool): with one plan
  /// bound ScheduleOpt is exact Belady; with several, every plan
  /// contributes to a merged future-use ordering through its own
  /// normalized clock (see storage/replacement.h); with zero it is exact
  /// LRU. Each binder owns its `uses` pointer and must pass the same
  /// pointer to UnbindUsePlan and AdvanceReplacementClock — nullptr
  /// unbinds are a CHECK failure.
  void BindUsePlan(std::shared_ptr<const BlockUseMap> uses) EXCLUDES(mu_);
  void UnbindUsePlan(const std::shared_ptr<const BlockUseMap>& uses)
      EXCLUDES(mu_);
  /// Advances plan `uses`'s clock (nullptr = the sole bound plan).
  void AdvanceReplacementClock(int64_t pos) EXCLUDES(mu_);
  void AdvanceReplacementClock(const std::shared_ptr<const BlockUseMap>& uses,
                               int64_t pos) EXCLUDES(mu_);

  // ------------------------------------------------------- write-through
  /// Write-through behind the caller: hands the pinned `frame` to `io`'s
  /// write workers (store->WriteBlock on `channel`) and returns true at
  /// once. The caller keeps and releases its own pin as usual; the write
  /// holds the frame resident and unevictable until it lands, outside the
  /// required bytes but inside the cap. A failed write discards the frame,
  /// sets `ledger->failed`, and poisons the block (AwaitWrite and a Fetch
  /// miss return the error) until DrainWriteThroughs.
  ///
  /// Returns false, queuing nothing, when the frame has pins beyond the
  /// caller's own `caller_pins`: another holder (a co-tenant writing the
  /// same block) may still mutate the buffer, so the caller must write
  /// synchronously instead. Holders that pin the frame after this call
  /// must AwaitWrite before they touch the buffer. The check and the
  /// submission are one step under the pool lock, so one of the two
  /// always applies. Callers write behind only blocks `store` already has
  /// (BlockStore::HasBlock): an extending write may allocate inside the
  /// store, which the write workers must not.
  bool WriteThroughAsync(Frame* frame, int caller_pins, BlockStore* store,
                         IoPool* io, int channel, WriteThroughLedger* ledger)
      EXCLUDES(mu_);
  /// The write barrier for callers that refill or mutate a frame they have
  /// pinned: blocks until no write of the block is in flight, returning
  /// the write's error if it failed.
  Status AwaitWrite(int array_id, int64_t block) EXCLUDES(mu_);
  /// Blocks until the oldest of `ledger`'s writes in flight lands (its
  /// frame then no longer holds the cap); returns at once when none is.
  /// Returns that write's error if it failed.
  Status AwaitOldestWrite(WriteThroughLedger* ledger) EXCLUDES(mu_);
  /// True while a write of the block is in flight (or failed and
  /// undrained).
  bool WriteInFlight(int array_id, int64_t block) EXCLUDES(mu_);
  /// Waits for every write `ledger` owns; returns the first failure and
  /// clears the ledger's poisoned blocks, leaving other owners' writes
  /// untouched.
  Status DrainWriteThroughs(WriteThroughLedger* ledger) EXCLUDES(mu_);

  // ------------------------------------------------------- prefetch path
  /// Reserves a kPrefetching frame for (array_id, block) so an I/O worker
  /// can fill frame->data; an idle frame of the block is taken over in
  /// place. Declines (returns nullptr) when the block's frame is pinned,
  /// retained or in a prefetch state, when a write of the block is still in
  /// flight, when the prefetch budget is exhausted, or when making room
  /// would evict anything but an unpinned, unretained regular frame.
  /// Without `account` the frame must fit the prefetch budget beside
  /// `required_bytes`, the issuer's charge (PrefetchFits); with one it is
  /// charged to the account at issue (AccountAdmits). The rules and the
  /// charges the engine passes are in storage/issue_policy.h.
  Frame* TryStartPrefetch(int array_id, int64_t block, int64_t bytes,
                          int64_t required_bytes = 0,
                          PoolAccount* account = nullptr) EXCLUDES(mu_);
  /// I/O completed: kPrefetching -> kPrefetched.
  void CompletePrefetch(Frame* frame) EXCLUDES(mu_);
  /// Hands a kPrefetched frame to the execution thread: the frame becomes
  /// a pinned regular frame, exactly as if Fetch had loaded it. A frame
  /// charged at issue keeps that charge; otherwise `account` is charged
  /// for the newly-required bytes (the caller checks its budget before
  /// adopting; adoption itself never refuses).
  Frame* AdoptPrefetched(Frame* frame, PoolAccount* account = nullptr)
      EXCLUDES(mu_);
  /// Gives up on a completed prefetch: the frame is dropped from the pool
  /// entirely (never demoted to cache — a failed or stale prefetch must
  /// not be able to satisfy a later probe), and an issue-time charge goes
  /// back to its account.
  void AbandonPrefetch(Frame* frame) EXCLUDES(mu_);
  /// The budget of TryStartPrefetch's fit test; 0 disables prefetch. With
  /// `count_write_held`, frames held resident only by in-flight
  /// write-throughs count against it too (a session runtime's headroom).
  void SetPrefetchBudget(int64_t bytes, bool count_write_held = false)
      EXCLUDES(mu_);
  int64_t prefetch_bytes() const EXCLUDES(mu_);

  /// Drops the frame for (array_id, block), if present, unpinned,
  /// unretained, and in the regular state with no write in flight; no-op
  /// otherwise. The executor uses this at end of run to drop frames whose
  /// contents legitimately diverged from disk (saved/elided writes), so a
  /// shared pool only ever carries cache that mirrors the stores.
  void Drop(int array_id, int64_t block) EXCLUDES(mu_);

  /// Drops every droppable (unpinned, unretained, regular, not loading, no
  /// write in flight) frame of `array_id`. The session runtime calls this
  /// before a tenant's BlockStore is destroyed so a later store at the same
  /// address can never alias stale cache. Returns the number of frames of
  /// the array that could NOT be dropped (still pinned/retained/in
  /// prefetch/in flight).
  int64_t DropArrayFrames(int array_id) EXCLUDES(mu_);

  int64_t used_bytes() const EXCLUDES(mu_);
  /// Number of frames currently pinned (pins > 0). A completed Executor::Run
  /// — success or error — must leave this at zero; fault-injection tests
  /// assert it through a shared pool.
  int64_t PinnedFrames() const EXCLUDES(mu_);
  /// Bytes the plan currently *requires* resident (pinned or retained
  /// regular frames); comparable to the cost model's memory prediction,
  /// unlike used_bytes() which also counts lazily-evicted cache and
  /// prefetch lookahead. Maintained incrementally — O(1).
  int64_t PinnedOrRetainedBytes() const EXCLUDES(mu_);
  int64_t cap_bytes() const { return cap_bytes_; }
  BufferPoolStats stats() const EXCLUDES(mu_);
  /// Counters and frame-state aggregates under ONE lock acquisition (see
  /// BufferPoolSnapshot) — the only way to compare them consistently while
  /// I/O workers and write-through completions are live.
  BufferPoolSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  using Key = PoolKey;

  /// Fields are guarded by the owning pool's mu_ (the write's completion
  /// callback mutates them under it). Not annotated: a nested type cannot
  /// name the outer instance's mutex.
  struct PendingWrite {
    Status status;
    bool done = false;    // landed (set by the completion callback)
    bool reaped = false;  // landing bookkeeping done (ReapLandedLocked)
    WriteThroughLedger* ledger = nullptr;  // owning run
    Frame* frame = nullptr;                // source frame
  };

  /// Evicts until `incoming_bytes` more fit under the cap, or fails with
  /// kResourceExhausted when no evictable frame is left. Never drops the
  /// lock.
  Status EnsureCapacityLocked(int64_t incoming_bytes) REQUIRES(mu_);
  /// The *Locked helpers below take the caller's scoped lock because they
  /// drop and re-acquire it (cv waits); REQUIRES(mu_) makes the analysis
  /// enforce that every caller actually holds it.
  /// Waits out an in-flight write of `key` (returns its error if it
  /// failed). No-op when none is pending. `key` is a copy: the wait drops
  /// the lock, and another thread's reap may free the ledger entry a
  /// caller would otherwise pass by reference.
  Status WaitWritebackLocked(UniqueMutexLock& lock, Key key) REQUIRES(mu_);
  /// Blocks until every in-flight write has completed (successfully or
  /// not; completed entries may remain to be collected).
  void WaitAllWritebacksLocked(UniqueMutexLock& lock) REQUIRES(mu_);
  /// Hands `pw`'s write to the write workers. The completion only marks it
  /// landed (no allocation on the worker); ReapLandedLocked does the rest.
  void SubmitWriteLocked(IoPool* io, BlockStore* store, int64_t block,
                         const void* buf, std::shared_ptr<PendingWrite> pw,
                         int channel) REQUIRES(mu_);
  /// Landing bookkeeping for every write that landed since the last call:
  /// erases successful entries (failed ones stay as the block's poison)
  /// and releases the written frames into their ledgers. Runs on consumer
  /// threads only.
  void ReapLandedLocked() REQUIRES(mu_);
  void EraseFrameLocked(Frame* frame) REQUIRES(mu_);
  static bool CountsAsRequired(const Frame& f) {
    return f.state == FrameState::kRegular && (f.pins > 0 || f.retained());
  }
  static bool IsEvictable(const Frame& f) {
    return f.state == FrameState::kRegular && f.pins == 0 &&
           !f.retained() && !f.discarded && !f.loading &&
           f.writer == nullptr;
  }
  /// Held resident only by its in-flight write-through.
  static bool IsWriteHeld(const Frame& f) {
    return f.writer != nullptr && !CountsAsRequired(f);
  }
  /// Erases a discarded frame once nothing holds it any more.
  void EraseIfReleasedLocked(Frame* frame) REQUIRES(mu_) {
    if (frame->discarded && frame->pins == 0 && frame->writer == nullptr) {
      EraseFrameLocked(frame);
    }
  }
  /// Records/releases `account`'s hold (one pin) on a frame. nullptr =
  /// anonymous, not tracked. Call inside a MutateTracked fn alongside the
  /// matching pins change so RechargeLocked sees consistent state. Static
  /// (no pool state touched), so they carry no REQUIRES; every caller is a
  /// REQUIRES(mu_) context and Frame interiors are mu_-protected by the
  /// convention documented on Frame.
  static void AddHoldLocked(Frame* f, PoolAccount* account);
  static void DropHoldLocked(Frame* f, PoolAccount* account);
  /// Re-points the frame's budget charge at a claimant that still
  /// requires it: uncharges when the frame stops being required, keeps
  /// the current claimant while it holds a pin or retention, and
  /// otherwise transfers the charge to a surviving holder (else a
  /// retention owner). The transfer charges the survivor without a
  /// budget check — the frame is already part of the survivor's own
  /// required footprint, which its budget covers (see PoolAccount).
  void RechargeLocked(Frame* f) REQUIRES(mu_);
  /// Moves the frame's charge to `want` (nullptr = uncharged).
  void MoveChargeLocked(Frame* f, PoolAccount* want) REQUIRES(mu_);
  /// Prefetch-state bookkeeping of a frame entering (charged to `account`,
  /// when set) and leaving a prefetch state.
  void StartPrefetchLocked(Frame* f, PoolAccount* account) REQUIRES(mu_);
  void EndPrefetchLocked(Frame* f) REQUIRES(mu_);
  /// Call around any mutation of pins/holders/retention/state to keep the
  /// required-bytes counter, the per-account ledgers, and the policy's
  /// evictable set current.
  template <typename Fn>
  void MutateTracked(Frame* f, Fn&& fn) REQUIRES(mu_) {
    const bool before = CountsAsRequired(*f);
    const bool before_ev = IsEvictable(*f);
    WriteThroughLedger* const before_held =
        IsWriteHeld(*f) ? f->writer : nullptr;
    fn();
    const bool after = CountsAsRequired(*f);
    const bool after_ev = IsEvictable(*f);
    WriteThroughLedger* const after_held =
        IsWriteHeld(*f) ? f->writer : nullptr;
    if (before != after) {
      required_bytes_ +=
          (after ? 1 : -1) * static_cast<int64_t>(f->data.size());
    }
    if (before_held != after_held) {
      const int64_t sz = static_cast<int64_t>(f->data.size());
      if (before_held != nullptr) {
        before_held->held_bytes -= sz;
        write_held_bytes_ -= sz;
      }
      if (after_held != nullptr) {
        write_held_bytes_ += sz;
        const int64_t held = after_held->held_bytes += sz;
        if (held > after_held->peak_held_bytes.load()) {
          after_held->peak_held_bytes = held;
        }
      }
    }
    RechargeLocked(f);
    if (before_ev != after_ev) {
      const Key key{f->array_id, f->block};
      if (after_ev) {
        policy_->OnEvictable(key);
      } else {
        policy_->OnProtected(key);
      }
    }
  }

  const int64_t cap_bytes_;
  mutable Mutex mu_;
  int64_t used_bytes_ GUARDED_BY(mu_) = 0;
  int64_t required_bytes_ GUARDED_BY(mu_) = 0;
  int64_t prefetch_bytes_ GUARDED_BY(mu_) = 0;
  // The part of prefetch_bytes_ charged to accounts, outside the budget.
  int64_t charged_prefetch_bytes_ GUARDED_BY(mu_) = 0;
  int64_t prefetch_budget_bytes_ GUARDED_BY(mu_) = 0;
  bool prefetch_counts_write_held_ GUARDED_BY(mu_) = false;
  // Frames held resident only by in-flight write-throughs (IsWriteHeld).
  int64_t write_held_bytes_ GUARDED_BY(mu_) = 0;
  /// Frame *metadata* (pins, retentions, state, writer, ...) is mu_-guarded
  /// throughout; frames_ itself carries the annotation. Frame::data payloads
  /// are deliberately read and written by pin holders without the lock —
  /// a pinned frame's buffer is stable (never evicted, never refilled), so
  /// the pin itself is the synchronization.
  std::map<Key, Frame> frames_ GUARDED_BY(mu_);
  std::unique_ptr<ReplacementPolicy> policy_ GUARDED_BY(mu_);
  std::map<Key, std::shared_ptr<PendingWrite>> pending_writes_ GUARDED_BY(mu_);
  // Entries of pending_writes_ that are done but not yet reaped.
  int64_t landed_unreaped_ GUARDED_BY(mu_) = 0;
  CondVar writeback_cv_;
  CondVar load_cv_;  // coalesced-load completion
  BufferPoolStats stats_ GUARDED_BY(mu_);
};

}  // namespace riot

#endif  // RIOTSHARE_STORAGE_BUFFER_POOL_H_
