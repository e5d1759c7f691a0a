#include "storage/buffer_pool.h"

#include <chrono>
#include <iterator>

#include "storage/io_pool.h"
#include "util/logging.h"

namespace riot {

namespace {
double Since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

BufferPool::BufferPool(int64_t cap_bytes,
                       std::unique_ptr<ReplacementPolicy> policy)
    : cap_bytes_(cap_bytes),
      policy_(policy != nullptr
                  ? std::move(policy)
                  : MakeReplacementPolicy(ReplacementKind::kLru)) {}

BufferPool::~BufferPool() {
  // Write-behind callbacks reference this pool; they must all have fired.
  // Failures were surfaced through DrainWritebacks/Fetch barriers (or are
  // dropped here — the pool is going away along with its cache).
  UniqueMutexLock lock(&mu_);
  WaitAllWritebacksLocked(lock);
}

void BufferPool::WaitAllWritebacksLocked(UniqueMutexLock& lock) {
  // Predicate spelled as an explicit loop so the guarded reads stay inside
  // this REQUIRES(mu_) body (see util/thread_annotations.h on CondVar).
  for (;;) {
    bool all_done = true;
    for (const auto& [key, pw] : pending_writes_) {
      if (!pw->done) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;
    writeback_cv_.Wait(lock);
  }
}

void BufferPool::AddHoldLocked(Frame* f, PoolAccount* account) {
  if (account == nullptr) return;  // anonymous pins are not tracked
  for (Holder& h : f->holders) {
    if (h.account == account) {
      ++h.pins;
      return;
    }
  }
  f->holders.push_back(Holder{account, 1});
}

void BufferPool::DropHoldLocked(Frame* f, PoolAccount* account) {
  if (account == nullptr) return;
  for (auto it = f->holders.begin(); it != f->holders.end(); ++it) {
    if (it->account == account) {
      if (--it->pins == 0) f->holders.erase(it);
      return;
    }
  }
  RIOT_CHECK(false) << "Unpin/Discard with an account that holds no pin on "
                       "the frame (pin/unpin account mismatch)";
}

void BufferPool::RechargeLocked(Frame* f) {
  PoolAccount* want = nullptr;
  if (CountsAsRequired(*f)) {
    auto holds = [f](const PoolAccount* a) {
      for (const Holder& h : f->holders) {
        if (h.account == a) return true;
      }
      for (const Retention& r : f->retentions) {
        if (r.owner == a) return true;
      }
      return false;
    };
    if (f->account != nullptr && holds(f->account)) {
      want = f->account;  // the charged claimant still claims the frame
    } else {
      // The charged claimant (if any) let go while the frame stays
      // required: transfer to a surviving pin holder, else a retention
      // owner. All-anonymous claimants leave the charge orphaned.
      for (const Holder& h : f->holders) {
        if (h.account != nullptr) {
          want = h.account;
          break;
        }
      }
      if (want == nullptr) {
        for (const Retention& r : f->retentions) {
          if (r.owner != nullptr) {
            want = r.owner;
            break;
          }
        }
      }
    }
  }
  if (want == f->account) return;
  // Under mu_: relaxed atomics suffice (atomicity is only for lock-free
  // readers outside the pool).
  const int64_t sz = static_cast<int64_t>(f->data.size());
  if (f->account != nullptr) {
    f->account->charged_bytes.fetch_sub(sz, std::memory_order_relaxed);
  }
  if (want != nullptr) {
    const int64_t c = want->charged_bytes.load(std::memory_order_relaxed) + sz;
    want->charged_bytes.store(c, std::memory_order_relaxed);
    if (c > want->peak_charged_bytes.load(std::memory_order_relaxed)) {
      want->peak_charged_bytes.store(c, std::memory_order_relaxed);
    }
  }
  f->account = want;
}

Status BufferPool::DrainWritebacksLocked(UniqueMutexLock& lock) {
  WaitAllWritebacksLocked(lock);
  Status first = Status::OK();
  for (const auto& [key, pw] : pending_writes_) {
    if (!pw->status.ok() && first.ok()) first = pw->status;
  }
  pending_writes_.clear();
  return first;
}

BufferPool::Frame* BufferPool::Probe(int array_id, int64_t block) {
  MutexLock lock(&mu_);
  auto it = frames_.find({array_id, block});
  return it == frames_.end() ? nullptr : &it->second;
}

Status BufferPool::WaitWritebackLocked(UniqueMutexLock& lock,
                                       const Key& key) {
  for (;;) {
    auto pit = pending_writes_.find(key);
    if (pit == pending_writes_.end()) return Status::OK();
    if (pit->second->done) {
      // Completed-ok entries erase themselves; a lingering done entry is a
      // failed write: the block's disk image is stale and its data is
      // gone. Surface the error instead of letting the caller reread
      // garbage (DrainWritebacks clears the poisoning).
      return pit->second->status;
    }
    auto t0 = std::chrono::steady_clock::now();
    writeback_cv_.Wait(lock);
    stats_.writeback_stall_seconds += Since(t0);
  }
}

Status BufferPool::EnsureCapacityLocked(UniqueMutexLock& lock,
                                        int64_t incoming_bytes,
                                        bool for_prefetch) {
  while (used_bytes_ + incoming_bytes > cap_bytes_) {
    // The policy orders candidates; dirty frames are unusable for a
    // prefetch-driven eviction (prefetch must never force a spill).
    auto usable = [&](const Key& k) {
      auto fit = frames_.find(k);
      RIOT_CHECK(fit != frames_.end());
      return !(for_prefetch && fit->second.dirty);
    };
    Key victim;
    if (!policy_->PickVictim(usable, &victim)) {
      return Status::ResourceExhausted(
          "buffer pool cap exceeded with all frames pinned/retained (cap=" +
          std::to_string(cap_bytes_) + ", used=" +
          std::to_string(used_bytes_) + ", need=" +
          std::to_string(incoming_bytes) + ")");
    }
    auto fit = frames_.find(victim);
    RIOT_CHECK(fit != frames_.end());
    Frame& f = fit->second;
    RIOT_CHECK(IsEvictable(f));
    if (f.dirty) {
      RIOT_CHECK(!for_prefetch);
      RIOT_CHECK(f.store != nullptr);
      if (write_io_ != nullptr) {
        const int64_t fbytes = static_cast<int64_t>(f.data.size());
        // No write of a victim is pending. A spill erases its frame under
        // this lock, and Fetch/TryStartPrefetch never re-create it past
        // the barrier. A write-through keeps its frame, but such a frame
        // has a writer and is not evictable (IsEvictable) until the write
        // has landed and, on success, erased its entry under this lock; a
        // failed one discards the frame, which is not evictable either.
        RIOT_CHECK(pending_writes_.count(victim) == 0);
        // In-flight write-behind buffers live outside the cap; bound them.
        const int64_t budget = std::max(cap_bytes_ / 4, fbytes);
        if (writeback_inflight_bytes_ + fbytes > budget) {
          auto t0 = std::chrono::steady_clock::now();
          writeback_cv_.Wait(lock);
          stats_.writeback_stall_seconds += Since(t0);
          continue;
        }
        // Move the buffer to the writer and drop the frame; the barrier in
        // Fetch/TryStartPrefetch covers the block until the write lands.
        auto pw = std::make_shared<PendingWrite>();
        pw->data = std::move(f.data);
        BlockStore* store = f.store;
        const int64_t block = f.block;
        pending_writes_[victim] = pw;
        writeback_inflight_bytes_ += fbytes;
        ++stats_.dirty_writebacks;
        ++stats_.async_writebacks;
        ++stats_.evictions;
        used_bytes_ -= fbytes;
        policy_->OnErase(victim);
        frames_.erase(fit);
        write_io_->WriteBlockAsync(
            store, block, pw->data.data(),
            [this, victim, pw, fbytes](Status st) {
              MutexLock cb_lock(&mu_);
              pw->done = true;
              pw->status = std::move(st);
              writeback_inflight_bytes_ -= fbytes;
              if (pw->status.ok()) {
                pending_writes_.erase(victim);
              } else {
                // The data cannot reach disk; keep only the status (the
                // entry poisons the block until DrainWritebacks).
                pw->data.clear();
                pw->data.shrink_to_fit();
              }
              writeback_cv_.NotifyAll();
            });
        continue;
      }
      RIOT_RETURN_NOT_OK(f.store->WriteBlock(f.block, f.data.data()));
      ++stats_.dirty_writebacks;
    }
    ++stats_.evictions;
    EraseFrameLocked(&f);
  }
  return Status::OK();
}

Result<BufferPool::Frame*> BufferPool::Fetch(int array_id, int64_t block,
                                             int64_t bytes, BlockStore* store,
                                             bool load, bool* was_resident,
                                             PoolAccount* account,
                                             bool coalesce_loads) {
  UniqueMutexLock lock(&mu_);
  Key key{array_id, block};
  bool counted_miss = false;
  // Residency is reported for the iteration that actually returns: a hit
  // iteration may wait (prefetch state, write barrier) and come back to a
  // miss, and a stale `true` would make a session caller skip loading a
  // zero-filled frame.
  if (was_resident != nullptr) *was_resident = false;
  for (;;) {
    auto it = frames_.find(key);
    if (it != frames_.end()) {
      Frame& f = it->second;
      if (f.state != FrameState::kRegular) {
        // Within one run the consumer resolves its own pending prefetches
        // before fetching, so this is reachable only across tenants: some
        // other session's prefetch owns the frame. Wait for it to adopt
        // (frame becomes regular) or abandon (frame disappears), then
        // restart — either way the block's bytes are never read twice.
        RIOT_CHECK(coalesce_loads)
            << "Fetch on a block in a prefetch state (adopt/abandon it "
               "first)";
        ++stats_.coalesced_loads;
        for (;;) {
          auto it2 = frames_.find(key);
          if (it2 == frames_.end() ||
              it2->second.state == FrameState::kRegular) {
            break;
          }
          load_cv_.Wait(lock);
        }
        continue;
      }
      if (f.discarded) {
        // Garbage contents (failed load or write-through) awaiting its
        // holders' release; the run is already failing — refuse rather
        // than hand out zeros.
        return Status::Internal("fetch of a discarded frame (run aborting)");
      }
      if (account != nullptr && !CountsAsRequired(f)) {
        // This pin makes the frame newly required: the session pays for it
        // (a frame another tenant already holds required stays on their
        // tab — the budget check below never fires for it).
        const int64_t sz = static_cast<int64_t>(f.data.size());
        if (account->charged_bytes.load(std::memory_order_relaxed) + sz >
            account->budget_bytes) {
          account->budget_rejections.fetch_add(1, std::memory_order_relaxed);
          return Status::ResourceExhausted(
              "session budget exceeded: charged " +
              std::to_string(
                  account->charged_bytes.load(std::memory_order_relaxed)) +
              " + " + std::to_string(sz) + " > budget " +
              std::to_string(account->budget_bytes));
        }
      }
      if (!counted_miss) ++stats_.hits;
      if (was_resident != nullptr) *was_resident = true;
      MutateTracked(&f, [&] {
        ++f.pins;
        AddHoldLocked(&f, account);
      });
      policy_->OnTouch(key);
      if (coalesce_loads && f.loading) {
        // Another session's creator is mid-load; join its disk read
        // instead of issuing a second one (or observing a torn buffer).
        ++stats_.coalesced_loads;
        Frame* fp = &f;
        while (fp->loading && !fp->discarded) load_cv_.Wait(lock);
        if (fp->discarded) {
          MutateTracked(fp, [&] {
            --fp->pins;
            DropHoldLocked(fp, account);
          });
          EraseIfReleasedLocked(fp);
          return Status::Internal(
              "coalesced load failed in the loading session");
        }
      }
      return &f;
    }
    if (pending_writes_.count(key) > 0) {
      // Write-behind barrier: the block's only current copy is in flight
      // to disk. Wait it out so the load below observes the written data.
      RIOT_RETURN_NOT_OK(WaitWritebackLocked(lock, key));
      continue;  // the wait dropped the lock: re-check residency
    }
    if (account != nullptr &&
        account->charged_bytes.load(std::memory_order_relaxed) + bytes >
            account->budget_bytes) {
      account->budget_rejections.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "session budget exceeded: charged " +
          std::to_string(
              account->charged_bytes.load(std::memory_order_relaxed)) +
          " + " + std::to_string(bytes) + " > budget " +
          std::to_string(account->budget_bytes));
    }
    if (!counted_miss) {
      ++stats_.misses;
      counted_miss = true;
    }
    RIOT_RETURN_NOT_OK(EnsureCapacityLocked(lock, bytes,
                                            /*for_prefetch=*/false));
    // Capacity waits (write-behind) may have dropped the lock: if the
    // frame or a pending write materialized meanwhile, start over.
    if (frames_.count(key) > 0 || pending_writes_.count(key) > 0) continue;
    break;
  }
  if (was_resident != nullptr) *was_resident = false;
  Frame f;
  f.array_id = array_id;
  f.block = block;
  f.data.resize(static_cast<size_t>(bytes));
  RIOT_DCHECK(IsAligned(f.data.data()))
      << "frame buffer not cache-line aligned";
  f.store = store;
  if (load) {
    RIOT_CHECK(store != nullptr);
    // With write-behind active, async writers touch this store from I/O
    // workers; route the pool's own load through the shared per-store
    // lock (store implementations are not required to be thread-safe).
    std::shared_ptr<std::mutex> serial =
        write_io_ != nullptr ? write_io_->store_mutex(store) : nullptr;
    std::unique_lock<std::mutex> store_lock;
    if (serial != nullptr) store_lock = std::unique_lock<std::mutex>(*serial);
    RIOT_RETURN_NOT_OK(store->ReadBlock(block, f.data.data()));
  }
  f.pins = 1;
  f.loading = coalesce_loads && !load;  // caller fills it, then MarkLoaded
  AddHoldLocked(&f, account);
  used_bytes_ += bytes;
  required_bytes_ += bytes;
  auto [ins, ok] = frames_.emplace(key, std::move(f));
  RIOT_CHECK(ok);
  RechargeLocked(&ins->second);  // charges `account` (budget checked above)
  policy_->OnTouch(key);
  return &ins->second;
}

void BufferPool::DetachAccount(PoolAccount* account) {
  MutexLock lock(&mu_);
  for (auto& [key, f] : frames_) {
    if (f.account != account && f.holders.empty() && f.retentions.empty()) {
      continue;
    }
    // Drop the account's holds and retentions (normally already released
    // by the executor's cleanup — this is the backstop that guarantees no
    // dangling pointer survives the account). MutateTracked's recharge
    // then transfers any remaining charge to a surviving claimant, or
    // orphans it when only anonymous pins keep the frame required.
    MutateTracked(&f, [&] {
      auto& hs = f.holders;
      hs.erase(std::remove_if(
                   hs.begin(), hs.end(),
                   [&](const Holder& h) { return h.account == account; }),
               hs.end());
      auto& rs = f.retentions;
      rs.erase(std::remove_if(
                   rs.begin(), rs.end(),
                   [&](const Retention& r) { return r.owner == account; }),
               rs.end());
    });
  }
}

void BufferPool::MarkLoaded(Frame* frame) {
  {
    MutexLock lock(&mu_);
    RIOT_CHECK(frame->loading);
    RIOT_CHECK_GT(frame->pins, 0) << "MarkLoaded on an unpinned frame";
    // Pinned before and after: no evictability/required transition.
    frame->loading = false;
  }
  load_cv_.NotifyAll();
}

void BufferPool::EraseFrameLocked(Frame* frame) {
  Key key{frame->array_id, frame->block};
  used_bytes_ -= static_cast<int64_t>(frame->data.size());
  policy_->OnErase(key);
  frames_.erase(key);
}

void BufferPool::Unpin(Frame* frame, PoolAccount* account) {
  MutexLock lock(&mu_);
  RIOT_CHECK_GT(frame->pins, 0);
  MutateTracked(frame, [&] {
    --frame->pins;
    DropHoldLocked(frame, account);
  });
  EraseIfReleasedLocked(frame);
}

void BufferPool::Discard(Frame* frame, PoolAccount* account) {
  bool was_loading = false;
  {
    MutexLock lock(&mu_);
    RIOT_CHECK_GT(frame->pins, 0);
    was_loading = frame->loading;
    MutateTracked(frame, [&] {
      --frame->pins;
      DropHoldLocked(frame, account);
      frame->discarded = true;
      frame->loading = false;  // the load failed; waiters must not hang
      frame->retentions.clear();  // nothing may keep garbage alive
    });
    EraseIfReleasedLocked(frame);
  }
  // Coalesced-load waiters check `discarded` when woken and bail out.
  if (was_loading) load_cv_.NotifyAll();
}

void BufferPool::Retain(Frame* frame, int64_t until_group,
                        PoolAccount* owner) {
  MutexLock lock(&mu_);
  // Nothing may keep garbage alive: a failed write-through can discard a
  // frame while a later instance holds it (the run is failing already).
  if (frame->discarded) return;
  MutateTracked(frame, [&] {
    for (Retention& r : frame->retentions) {
      if (r.owner == owner) {
        r.until_group = std::max(r.until_group, until_group);
        return;
      }
    }
    frame->retentions.push_back(Retention{owner, until_group});
  });
}

void BufferPool::MarkClean(Frame* frame) {
  MutexLock lock(&mu_);
  frame->dirty = false;
}

void BufferPool::ReleaseRetainedBefore(int64_t group, PoolAccount* owner) {
  MutexLock lock(&mu_);
  // O(frames) under mu_ per group boundary; fine while retention counts
  // are small. If multi-tenant profiles ever show this scan hot, keep a
  // per-owner index of retained keys instead of walking every frame.
  for (auto& [key, f] : frames_) {
    if (!f.retained()) continue;
    MutateTracked(&f, [&] {
      auto& rs = f.retentions;
      rs.erase(std::remove_if(rs.begin(), rs.end(),
                              [&](const Retention& r) {
                                return r.owner == owner &&
                                       r.until_group < group;
                              }),
               rs.end());
    });
  }
}

ReplacementKind BufferPool::replacement_kind() const {
  MutexLock lock(&mu_);
  return policy_->kind();
}

void BufferPool::BindUsePlan(std::shared_ptr<const BlockUseMap> uses) {
  MutexLock lock(&mu_);
  policy_->BindUsePlan(std::move(uses));
}

void BufferPool::UnbindUsePlan(
    const std::shared_ptr<const BlockUseMap>& uses) {
  MutexLock lock(&mu_);
  policy_->UnbindUsePlan(uses);
}

void BufferPool::AdvanceReplacementClock(int64_t pos) {
  MutexLock lock(&mu_);
  policy_->AdvanceClock(nullptr, pos);
}

void BufferPool::AdvanceReplacementClock(
    const std::shared_ptr<const BlockUseMap>& uses, int64_t pos) {
  MutexLock lock(&mu_);
  policy_->AdvanceClock(uses, pos);
}

void BufferPool::SetWriteBehind(IoPool* io) {
  UniqueMutexLock lock(&mu_);
  if (io == nullptr) {
    // Detaching: every in-flight write must land first (its callback and
    // buffer reference the departing IoPool's workers).
    WaitAllWritebacksLocked(lock);
  }
  write_io_ = io;
}

Status BufferPool::DrainWritebacks() {
  UniqueMutexLock lock(&mu_);
  return DrainWritebacksLocked(lock);
}

bool BufferPool::WriteThroughAsync(Frame* frame, int caller_pins,
                                   BlockStore* store, IoPool* io, int channel,
                                   WriteThroughLedger* ledger) {
  const Key key{frame->array_id, frame->block};
  auto pw = std::make_shared<PendingWrite>();
  pw->ledger = ledger;
  {
    UniqueMutexLock lock(&mu_);
    RIOT_CHECK_GT(frame->pins, 0) << "write-through of an unpinned frame";
    // An earlier write of the block can only be the caller's own (another
    // holder awaited it before touching the buffer); it lands first. The
    // wait may drop the lock, so the pin check comes after it.
    if (!WaitWritebackLocked(lock, key).ok() || frame->pins > caller_pins) {
      return false;
    }
    // The pending entry is the barrier; `writer` keeps the frame resident.
    pending_writes_[key] = pw;
    ledger->in_flight.push_back(key);
    MutateTracked(frame, [&] { frame->writer = ledger; });
  }
  io->WriteBlockAsync(
      store, key.second, frame->data.data(),
      [this, key, pw, frame](Status st) {
        MutexLock lock(&mu_);
        pw->done = true;
        pw->status = std::move(st);
        WriteThroughLedger* ledger = pw->ledger;
        ledger->in_flight.erase(
            std::find(ledger->in_flight.begin(), ledger->in_flight.end(), key));
        ++ledger->landed;
        if (pw->status.ok()) {
          pending_writes_.erase(key);
        } else if (!ledger->failed.exchange(true)) {
          ledger->first_error = pw->status;
        }
        MutateTracked(frame, [&] {
          frame->writer = nullptr;
          if (!pw->status.ok()) {
            // Contents never reached disk: never let them pass as cache.
            frame->discarded = true;
            frame->retentions.clear();
          }
        });
        EraseIfReleasedLocked(frame);
        // Under the lock: a woken drain may destroy the pool right after.
        writeback_cv_.NotifyAll();
      },
      channel);
  return true;
}

Status BufferPool::AwaitWrite(int array_id, int64_t block) {
  UniqueMutexLock lock(&mu_);
  return WaitWritebackLocked(lock, {array_id, block});
}

Status BufferPool::AwaitOldestWrite(WriteThroughLedger* ledger) {
  UniqueMutexLock lock(&mu_);
  if (ledger->in_flight.empty()) return Status::OK();
  return WaitWritebackLocked(lock, ledger->in_flight.front());
}

bool BufferPool::WriteInFlight(int array_id, int64_t block) const {
  MutexLock lock(&mu_);
  return pending_writes_.count({array_id, block}) > 0;
}

Status BufferPool::DrainWriteThroughs(WriteThroughLedger* ledger) {
  UniqueMutexLock lock(&mu_);
  while (!ledger->in_flight.empty()) writeback_cv_.Wait(lock);
  // Successful writes erased themselves; what is left of the ledger's is
  // poison from failed ones.
  for (auto it = pending_writes_.begin(); it != pending_writes_.end();) {
    it = it->second->ledger == ledger ? pending_writes_.erase(it)
                                      : std::next(it);
  }
  return ledger->first_error;
}

BufferPool::Frame* BufferPool::TryStartPrefetch(int array_id, int64_t block,
                                                int64_t bytes,
                                                BlockStore* store) {
  UniqueMutexLock lock(&mu_);
  Key key{array_id, block};
  if (prefetch_bytes_ + bytes > prefetch_budget_bytes_) {
    ++stats_.prefetch_declined;
    return nullptr;
  }
  if (pending_writes_.count(key) > 0) {
    // Write-behind barrier: the block is in flight to disk; a prefetch
    // read now could observe the pre-write image. Decline — prefetch is
    // opportunistic and the consumer's Fetch barrier handles the wait.
    ++stats_.prefetch_declined;
    return nullptr;
  }
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    // The block lingers as idle cache (kPlanExact re-reads disk even on a
    // pool hit, so such frames are common). Steal the frame in place: the
    // caller's dependence check guarantees the disk copy is current, and
    // the pending-table in the executor routes every consumer access to
    // the completion. Pinned, retained, dirty, or prefetch-owned frames
    // are untouchable — decline instead.
    Frame& f = it->second;
    if (f.state != FrameState::kRegular || f.pins > 0 ||
        f.retained() || f.dirty) {
      ++stats_.prefetch_declined;
      return nullptr;
    }
    MutateTracked(&f, [&] { f.state = FrameState::kPrefetching; });
    f.store = store;
    prefetch_bytes_ += static_cast<int64_t>(f.data.size());
    ++stats_.prefetch_issued;
    policy_->OnTouch(key);
    return &f;
  }
  if (!EnsureCapacityLocked(lock, bytes, /*for_prefetch=*/true).ok()) {
    ++stats_.prefetch_declined;
    return nullptr;
  }
  // A prefetch-driven eviction never spills, so the lock was never
  // dropped: no concurrent frame for `key` can have appeared.
  Frame f;
  f.array_id = array_id;
  f.block = block;
  f.data.resize(static_cast<size_t>(bytes));
  RIOT_DCHECK(IsAligned(f.data.data()))
      << "frame buffer not cache-line aligned";
  f.store = store;
  f.state = FrameState::kPrefetching;
  used_bytes_ += bytes;
  prefetch_bytes_ += bytes;
  ++stats_.prefetch_issued;
  auto [ins, ok] = frames_.emplace(key, std::move(f));
  RIOT_CHECK(ok);
  policy_->OnTouch(key);
  return &ins->second;
}

void BufferPool::CompletePrefetch(Frame* frame) {
  MutexLock lock(&mu_);
  RIOT_CHECK(frame->state == FrameState::kPrefetching);
  MutateTracked(frame, [&] { frame->state = FrameState::kPrefetched; });
}

BufferPool::Frame* BufferPool::AdoptPrefetched(Frame* frame,
                                               PoolAccount* account) {
  {
    MutexLock lock(&mu_);
    RIOT_CHECK(frame->state == FrameState::kPrefetched);
    prefetch_bytes_ -= static_cast<int64_t>(frame->data.size());
    MutateTracked(frame, [&] {
      frame->state = FrameState::kRegular;
      frame->pins = 1;
      AddHoldLocked(frame, account);
    });
    policy_->OnTouch({frame->array_id, frame->block});
  }
  // Cross-tenant fetches of this block wait out the prefetch state.
  load_cv_.NotifyAll();
  return frame;
}

void BufferPool::AbandonPrefetch(Frame* frame) {
  {
    MutexLock lock(&mu_);
    RIOT_CHECK(frame->state == FrameState::kPrefetched);
    prefetch_bytes_ -= static_cast<int64_t>(frame->data.size());
    ++stats_.prefetch_abandoned;
    EraseFrameLocked(frame);
  }
  load_cv_.NotifyAll();
}

void BufferPool::SetPrefetchBudget(int64_t bytes) {
  MutexLock lock(&mu_);
  prefetch_budget_bytes_ = bytes;
}

int64_t BufferPool::prefetch_bytes() const {
  MutexLock lock(&mu_);
  return prefetch_bytes_;
}

void BufferPool::Drop(int array_id, int64_t block) {
  MutexLock lock(&mu_);
  auto it = frames_.find({array_id, block});
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (f.pins > 0 || f.retained() || f.writer != nullptr ||
      f.state != FrameState::kRegular) {
    return;
  }
  EraseFrameLocked(&f);
}

int64_t BufferPool::DropArrayFrames(int array_id) {
  MutexLock lock(&mu_);
  int64_t kept = 0;
  for (auto it = frames_.lower_bound({array_id, 0});
       it != frames_.end() && it->first.first == array_id;) {
    Frame& f = it->second;
    ++it;  // EraseFrameLocked invalidates the current iterator
    if (f.pins > 0 || f.retained() || f.writer != nullptr ||
        f.state != FrameState::kRegular || f.loading) {
      ++kept;
      continue;
    }
    EraseFrameLocked(&f);
  }
  return kept;
}

Status BufferPool::FlushAll() {
  UniqueMutexLock lock(&mu_);
  Status first = DrainWritebacksLocked(lock);
  for (auto& [key, f] : frames_) {
    RIOT_CHECK(f.state != FrameState::kPrefetching)
        << "FlushAll with a prefetch in flight";
    if (f.dirty && f.store != nullptr) {
      std::shared_ptr<std::mutex> serial =
          write_io_ != nullptr ? write_io_->store_mutex(f.store) : nullptr;
      std::unique_lock<std::mutex> store_lock;
      if (serial != nullptr) {
        store_lock = std::unique_lock<std::mutex>(*serial);
      }
      Status st = f.store->WriteBlock(f.block, f.data.data());
      if (!st.ok() && first.ok()) first = st;
      if (st.ok()) f.dirty = false;
    }
  }
  RIOT_RETURN_NOT_OK(first);
  frames_.clear();
  policy_->OnClear();
  used_bytes_ = 0;
  required_bytes_ = 0;
  prefetch_bytes_ = 0;
  return Status::OK();
}

int64_t BufferPool::used_bytes() const {
  MutexLock lock(&mu_);
  return used_bytes_;
}

int64_t BufferPool::PinnedFrames() const {
  MutexLock lock(&mu_);
  int64_t n = 0;
  for (const auto& [key, f] : frames_) {
    if (f.pins > 0) ++n;
  }
  return n;
}

int64_t BufferPool::PinnedOrRetainedBytes() const {
  MutexLock lock(&mu_);
  return required_bytes_;
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

BufferPoolSnapshot BufferPool::Snapshot() const {
  MutexLock lock(&mu_);
  BufferPoolSnapshot s;
  s.stats = stats_;
  s.used_bytes = used_bytes_;
  s.required_bytes = required_bytes_;
  s.prefetch_bytes = prefetch_bytes_;
  s.writeback_inflight_bytes = writeback_inflight_bytes_;
  s.pending_writebacks = static_cast<int64_t>(pending_writes_.size());
  for (const auto& [key, f] : frames_) {
    if (f.pins > 0) ++s.pinned_frames;
  }
  return s;
}

}  // namespace riot
