#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <thread>
#include <tuple>

#include "analysis/program_lint.h"
#include "core/access_plan.h"
#include "exec/kernel_synthesis.h"
#include "storage/io_pool.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace riot {

namespace {

double Since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void AtomicMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load();
  while (cur < value && !target->compare_exchange_weak(cur, value)) {
  }
}

// Saved/elided writes legitimately leave frame contents different from
// disk; retention covers every in-run consumer, but such frames must not
// outlive the run as apparently clean cache in a shared pool. The script
// knows them statically. `remap` translates program array ids to the
// pool's namespace (identity outside session runs).
void DropDivergentWrites(const AccessScript& script, BufferPool* pool,
                         const std::function<int(int)>& remap) {
  for (const BlockAccessRecord& rec : script.records) {
    if (rec.type == AccessType::kWrite && rec.saved) {
      pool->Drop(remap(rec.array_id), rec.block);
    }
  }
}

// Per-run view of the pool counters: a shared pool accumulates across
// runs, so each run reports the delta from its own start snapshot.
BufferPoolStats DiffPoolStats(const BufferPoolStats& end,
                              const BufferPoolStats& start) {
  BufferPoolStats d;
  d.hits = end.hits - start.hits;
  d.misses = end.misses - start.misses;
  d.evictions = end.evictions - start.evictions;
  d.dirty_writebacks = end.dirty_writebacks - start.dirty_writebacks;
  d.async_writebacks = end.async_writebacks - start.async_writebacks;
  d.writeback_stall_seconds =
      end.writeback_stall_seconds - start.writeback_stall_seconds;
  d.prefetch_issued = end.prefetch_issued - start.prefetch_issued;
  d.prefetch_declined = end.prefetch_declined - start.prefetch_declined;
  d.prefetch_abandoned = end.prefetch_abandoned - start.prefetch_abandoned;
  d.coalesced_loads = end.coalesced_loads - start.coalesced_loads;
  return d;
}

}  // namespace

Executor::Executor(const Program& program, std::vector<BlockStore*> stores,
                   std::vector<StatementKernel> kernels, ExecOptions options)
    : prog_(program), stores_(std::move(stores)),
      kernels_(std::move(kernels)), opts_(options) {
  RIOT_CHECK_EQ(stores_.size(), prog_.arrays().size());
  // Op-specced statements are the default path: any statement without an
  // explicit kernel (missing entry or empty function) gets one synthesized
  // from its typed StatementOp. A supplied hand-written lambda always wins
  // (the escape hatch for statements no op kind describes).
  if (kernels_.empty()) kernels_.resize(prog_.statements().size());
  RIOT_CHECK_EQ(kernels_.size(), prog_.statements().size());
  for (size_t s = 0; s < kernels_.size(); ++s) {
    if (kernels_[s]) continue;
    const Statement& st = prog_.statement(static_cast<int>(s));
    RIOT_CHECK(st.op.has_value())
        << "statement " << st.name << " has neither a kernel nor an op spec";
    kernels_[s] = SynthesizeKernel(*st.op);
  }
  if (opts_.lint) {
    auto lint = LintProgram(prog_);
    if (!lint.ok()) {
      lint_status_ = lint.status();
    } else if (!lint->ok()) {
      lint_status_ = Status::InvalidArgument(lint->ToString());
    }
  }
}

Status Executor::LintLoweredPlan(const RealizedPlan& rp,
                                 const AccessScript& script,
                                 const InstanceDag* dag) const {
  if (!opts_.lint) return Status::OK();
  const InstanceDag local = dag == nullptr ? BuildInstanceDag(script)
                                           : InstanceDag{};
  auto lint = LintScript(prog_, rp, script, dag != nullptr ? *dag : local);
  RIOT_RETURN_NOT_OK(lint.status());
  if (!lint->ok()) return Status::InvalidArgument(lint->ToString());
  return Status::OK();
}

Result<ExecStats> Executor::Run(const Schedule& schedule,
                                const std::vector<const CoAccess*>& realized) {
  RIOT_RETURN_NOT_OK(lint_status_);
  // The opportunistic-cache ablation is defined against the serial
  // reference order, and session runs are serial by contract (the
  // sessions themselves are the parallelism); everything else may go
  // parallel.
  if (opts_.exec_threads > 1 && opts_.session == nullptr &&
      opts_.mode != ExecMode::kOpportunisticCache) {
    return RunParallel(schedule, realized);
  }
  return RunSerial(schedule, realized);
}

// ---------------------------------------------------------------------------
// Serial engine (exec_threads = 1): one thread walks the scheduled instance
// stream; the optional prefetch pipeline issues asynchronous reads ahead of
// it. This is the reference semantics every parallel configuration must
// reproduce bit-for-bit.
// ---------------------------------------------------------------------------
Result<ExecStats> Executor::RunSerial(
    const Schedule& schedule, const std::vector<const CoAccess*>& realized) {
  auto wall0 = std::chrono::steady_clock::now();
  const bool opportunistic = opts_.mode == ExecMode::kOpportunisticCache;
  // Under the opportunistic-cache ablation the plan's sharing set is
  // deliberately ignored: no saved reads, no retention obligations.
  RealizedPlan rp = RealizePlan(prog_, schedule,
                                opportunistic
                                    ? std::vector<const CoAccess*>{}
                                    : realized);
  const AccessScript script = BuildAccessScript(prog_, rp);
  RIOT_RETURN_NOT_OK(LintLoweredPlan(rp, script, nullptr));
  BufferPool local_pool(opts_.memory_cap_bytes,
                        MakeReplacementPolicy(opts_.replacement));
  BufferPool& pool = opts_.shared_pool != nullptr ? *opts_.shared_pool
                                                  : local_pool;
  const BufferPoolStats pool_stats0 = pool.stats();

  // ------------------------------------------------ multi-tenant context
  // A session run translates array ids into the shared pool's namespace,
  // charges its budget account, and coalesces/dedupes reads across
  // sessions; everything degrades to the identity for solo runs.
  const SessionBinding* session = opts_.session;
  PoolAccount* account = session != nullptr ? session->account : nullptr;
  auto pid = [session](int array_id) {
    return session != nullptr && !session->pool_array_ids.empty()
               ? session->pool_array_ids[static_cast<size_t>(array_id)]
               : array_id;
  };

  // Belady-style replacement needs the plan's future: bind every block's
  // use positions and advance the policy clock per instance below. The
  // schedule (and hence the access order) is exact in both modes. Binds
  // nest across sessions; with several tenants bound at once the policy
  // merges every plan's future uses into one normalized timeline
  // (see storage/replacement.h).
  const bool schedule_policy =
      pool.replacement_kind() == ReplacementKind::kScheduleOpt;
  std::shared_ptr<const BlockUseMap> bound_uses;
  if (schedule_policy) {
    if (session != nullptr && !session->pool_array_ids.empty()) {
      auto remapped = std::make_shared<BlockUseMap>();
      for (const auto& [key, positions] : script.block_uses) {
        (*remapped)[{pid(key.first), key.second}] = positions;
      }
      bound_uses = std::move(remapped);
    } else {
      bound_uses = std::make_shared<BlockUseMap>(script.block_uses);
    }
    pool.BindUsePlan(bound_uses);
  }
  ExecStats stats;

  // ------------------------------------------------- pipeline stage 1 state
  // The prefetcher walks the access script up to `depth` groups ahead of
  // the consumer, reserving kPrefetching frames and handing the reads to
  // the I/O pool. Depth 0 keeps all of this dormant and the engine is the
  // classic synchronous interpreter. Opportunistic mode has no trusted
  // access plan, so it never prefetches.
  const int depth = opportunistic ? 0 : std::max(0, opts_.pipeline_depth);
  using Key = std::pair<int, int64_t>;  // (array id, linear block)
  struct Pending {
    BufferPool::Frame* frame = nullptr;
    bool done = false;
    Status status;
  };
  std::unique_ptr<IoPool> owned_io;  // declared after `pool`: joins before
                                     // frames die
  IoPool* io = nullptr;  // owned_io.get(), or the session's shared workers
  int io_channel = 0;
  std::map<Key, Pending> pending;
  std::map<uint64_t, Key> key_of_tag;
  std::deque<Key> issue_order;
  uint64_t next_tag = 0;
  size_t cursor = 0;  // next script record the prefetcher considers

  if (depth > 0) {
    if (session != nullptr && session->io != nullptr) {
      // Shared I/O workers: submit on the session's channel; pool-wide
      // knobs (prefetch budget, write-behind) belong to the runtime.
      io = session->io;
      io_channel = session->io_channel;
    } else {
      owned_io = std::make_unique<IoPool>(std::max(1, opts_.io_threads));
      io = owned_io.get();
      // The cap's headroom over the plan's exact peak: lookahead then never
      // displaces anything the plan needs, so the consumer never has to
      // cancel a prefetch (it waits out in-flight writes instead).
      pool.SetPrefetchBudget(
          std::max<int64_t>(0, pool.cap_bytes() - script.peak_required_bytes));
      if (opts_.writeback_async) pool.SetWriteBehind(io);
    }
  }

  // Write-behind write-through: each non-saved write goes to the I/O
  // workers instead of blocking the consumer. The pool keeps the frame
  // resident until the write lands (inside the cap, outside the required
  // bytes), lists this run's writes in `ledger`, and its write barrier
  // orders every later disk read, prefetch or rewrite of the block after
  // the write.
  const bool write_behind = io != nullptr && opts_.writeback_async;
  WriteThroughLedger ledger;

  // Blocks until the prefetch for `key` has completed (draining other
  // completions encountered on the way).
  auto wait_pending = [&](const Key& key) -> Pending& {
    Pending& want = pending.at(key);
    while (!want.done) {
      IoPool::Completion c = io->WaitCompletion(io_channel);
      auto it = key_of_tag.find(c.tag);
      RIOT_CHECK(it != key_of_tag.end());
      Pending& p = pending.at(it->second);
      p.done = true;
      p.status = std::move(c.status);
      pool.CompletePrefetch(p.frame);
      key_of_tag.erase(it);
    }
    return want;
  };

  // Cancels the issued-but-unconsumed prefetch for `key`: waits for its
  // I/O, drops the frame, and accounts the disk read that already happened.
  auto cancel_key = [&](const Key& key) {
    Pending& p = wait_pending(key);
    if (p.status.ok()) {
      stats.bytes_read +=
          static_cast<int64_t>(p.frame->data.size());
      ++stats.block_reads;
    }
    pool.AbandonPrefetch(p.frame);
    ++stats.prefetch_wasted;
    pending.erase(key);
  };

  // Cancels one outstanding prefetch (most recently issued first) to
  // relieve memory pressure; false when none remain.
  auto cancel_one = [&]() -> bool {
    while (!issue_order.empty()) {
      Key key = issue_order.back();
      issue_order.pop_back();
      if (pending.count(key) == 0) continue;  // already adopted
      cancel_key(key);
      return true;
    }
    return false;
  };

  // Stage 1: issue asynchronous reads for every upcoming non-saved read in
  // the lookahead window. A record whose earlier same-block write has not
  // been performed yet (true dependence — reading disk now would observe
  // stale data) is deferred and retried once the consumer passes the
  // write; records behind it keep flowing. A pool decline for room/budget
  // pauses issuance until the consumer frees frames.
  enum class Issue { kHandled, kDepBlocked, kNoRoom };
  std::deque<size_t> deferred;  // dep-blocked record indices
  auto try_issue = [&](const BlockAccessRecord& rec,
                       size_t cur_pos) -> Issue {
    if (rec.pos <= cur_pos) return Issue::kHandled;  // consumer got there
    if (rec.dep_pos >= 0 && static_cast<size_t>(rec.dep_pos) >= cur_pos) {
      return Issue::kDepBlocked;
    }
    Key key{pid(rec.array_id), rec.block};
    if (pending.count(key) > 0) {
      return Issue::kHandled;  // one in-flight read per block is enough
    }
    BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
    BufferPool::Frame* f =
        pool.TryStartPrefetch(key.first, rec.block, rec.bytes, store);
    if (f == nullptr) {
      if (write_behind && pool.WriteInFlight(key.first, rec.block)) {
        return Issue::kDepBlocked;  // the producing write has not landed
      }
      if (pool.Probe(key.first, rec.block) != nullptr) {
        return Issue::kHandled;  // resident; consumer serves it directly
      }
      return Issue::kNoRoom;
    }
    uint64_t tag = next_tag++;
    key_of_tag[tag] = key;
    pending.emplace(key, Pending{f, false, Status::OK()});
    issue_order.push_back(key);
    io->ReadBlockAsync(store, rec.block, f->data.data(), tag, io_channel);
    return Issue::kHandled;
  };
  auto advance_prefetcher = [&](size_t cur_group, size_t cur_pos) {
    for (auto it = deferred.begin(); it != deferred.end();) {
      Issue res = try_issue(script.records[*it], cur_pos);
      if (res == Issue::kNoRoom) return;
      if (res == Issue::kDepBlocked) {
        ++it;
      } else {
        it = deferred.erase(it);
      }
    }
    while (cursor < script.records.size()) {
      const BlockAccessRecord& rec = script.records[cursor];
      if (rec.group > cur_group + static_cast<size_t>(depth)) break;
      if (rec.type != AccessType::kRead || rec.saved) {
        ++cursor;  // writes and saved reads never touch disk ahead of time
        continue;
      }
      Issue res = try_issue(rec, cur_pos);
      if (res == Issue::kNoRoom) break;
      if (res == Issue::kDepBlocked) deferred.push_back(cursor);
      ++cursor;
    }
  };

  // Synchronous store calls on the consumer thread, serialized against
  // in-flight worker reads on the same store (store implementations are
  // not required to be thread-safe; LAB-tree mutates its node cache even
  // on reads). Time spent waiting for the store is queueing, not disk
  // time, so the timer starts inside the lock.
  auto sync_store_op = [&](BlockStore* store, auto&& op) -> Status {
    std::shared_ptr<std::mutex> serial =
        io != nullptr
            ? io->store_mutex(store)
            : (session != nullptr && session->store_mutexes != nullptr
                   ? session->store_mutexes->mutex_for(store)
                   : nullptr);
    std::unique_lock<std::mutex> lock;
    if (serial != nullptr) lock = std::unique_lock<std::mutex>(*serial);
    auto t0 = std::chrono::steady_clock::now();
    Status st = op();
    stats.io_seconds += Since(t0);
    return st;
  };
  auto sync_read = [&](BlockStore* store, int64_t block,
                       void* buf) -> Status {
    return sync_store_op(store,
                         [&] { return store->ReadBlock(block, buf); });
  };
  auto sync_write = [&](BlockStore* store, int64_t block,
                        const void* buf) -> Status {
    return sync_store_op(store,
                         [&] { return store->WriteBlock(block, buf); });
  };

  // Fetch that relieves memory pressure instead of failing: it first
  // waits for this run's oldest in-flight write (which frees its frame in
  // bounded time), then cancels lookahead — the consumer always wins over
  // prefetch. Session runs additionally
  // park-and-retry through kResourceExhausted — another tenant's transient
  // pressure (its prefetch lookahead, a not-yet-released retention)
  // resolves as that tenant progresses — and only give up after the
  // binding's park timeout. `coalesce` marks read fetches whose miss this
  // caller will fill (MarkLoaded) and whose hit may join another
  // session's in-flight load. `refill` marks fetches whose frame the
  // caller will overwrite (a disk read, a write target): a resident frame
  // waits out any in-flight write of the block once pinned, so a write
  // submitted before the pin lands first, and one submitted after it
  // sees the pin and is written synchronously (WriteThroughAsync).
  auto fetch_frame = [&](int pool_array_id, int64_t block, int64_t bytes,
                         BlockStore* store, bool coalesce, bool refill,
                         bool* resident_out) -> Result<BufferPool::Frame*> {
    double parked = 0.0;
    double backoff = 0.0005;
    for (;;) {
      const int64_t landed = ledger.landed.load();
      bool resident = false;
      auto f = pool.Fetch(pool_array_id, block, bytes, store, /*load=*/false,
                          &resident, account,
                          coalesce && session != nullptr);
      if (resident_out != nullptr) *resident_out = resident;
      if (f.ok() && write_behind && refill && resident) {
        Status wst = pool.AwaitWrite(pool_array_id, block);
        if (!wst.ok()) {
          pool.Unpin(*f, account);
          return wst;
        }
      }
      if (f.ok() ||
          f.status().code() != StatusCode::kResourceExhausted) {
        return f;
      }
      // This run's oldest write frees its frame in bounded time; one that
      // landed since the Fetch already has.
      RIOT_RETURN_NOT_OK(pool.AwaitOldestWrite(&ledger));
      if (ledger.landed.load() != landed) continue;
      if (cancel_one()) continue;
      if (session == nullptr || parked >= session->park_timeout_seconds) {
        return f;
      }
      ++stats.session_parks;
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      parked += backoff;
      stats.session_park_seconds += backoff;
      backoff = std::min(backoff * 2, 0.05);
    }
  };

  // ------------------------------------------------- pipeline stage 2 loop
  // The body returns early on error; the cleanup below the lambda then
  // unpins whatever the failed instance had acquired, drains the pipeline,
  // and releases retentions, so even an error leaves `pool` clean (the
  // shared_pool contract).
  std::vector<BufferPool::Frame*> frames;
  Status run_status = [&]() -> Status {
    size_t cur_group = 0;
    std::vector<DenseView> views;
    std::vector<DenseView*> view_ptrs;
    for (size_t pos = 0; pos < rp.order.size(); ++pos) {
      // A failed write-through ends the run; the cleanup's drain reports
      // it as the run's status.
      if (ledger.failed.load()) break;
      const auto& inst = rp.order[pos];
      if (rp.group_of[pos] != cur_group) {
        cur_group = rp.group_of[pos];
        pool.ReleaseRetainedBefore(static_cast<int64_t>(cur_group), account);
      }
      if (schedule_policy) {
        pool.AdvanceReplacementClock(bound_uses, static_cast<int64_t>(pos));
      }
      if (depth > 0) advance_prefetcher(cur_group, pos);
      const Statement& st = prog_.statement(inst.stmt_id);
      const size_t na = st.accesses.size();
      frames.assign(na, nullptr);
      views.assign(na, DenseView{});
      view_ptrs.assign(na, nullptr);

      // Serve this instance's accesses off the script (reads first, then
      // the write — a read may populate the frame the write access
      // aliases).
      const auto [rec_begin, rec_end] = script.per_pos[pos];
      for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
        const BlockAccessRecord& rec = script.records[ri];
        const size_t ai = static_cast<size_t>(rec.access_idx);
        const ArrayInfo& arr = prog_.array(rec.array_id);
        BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
        Key key{pid(rec.array_id), rec.block};
        const bool has_pending = depth > 0 && pending.count(key) > 0;
        BufferPool::Frame* frame = nullptr;

        if (rec.type == AccessType::kRead && !rec.saved && has_pending &&
            (account == nullptr ||
             account->charged_bytes.load() + rec.bytes <=
                 account->budget_bytes)) {
          // The prefetcher issued this very disk read; adopt its frame
          // (only if the session budget admits it — adoption itself never
          // refuses, so an over-budget adoption falls through to the
          // parking fetch path below after canceling the prefetch).
          Pending& p = wait_pending(key);
          if (!p.status.ok()) return p.status;
          frame = pool.AdoptPrefetched(p.frame, account);
          pending.erase(key);
          ++stats.prefetch_hits;
          stats.bytes_read += rec.bytes;
          ++stats.block_reads;
        } else {
          // Any other access colliding with an in-flight prefetch resolves
          // it first (defensive; the script's dependence positions make
          // this unreachable for writes).
          if (has_pending) cancel_key(key);
          if (rec.type == AccessType::kRead && session != nullptr) {
            // Multi-tenant read: residency is decided atomically with the
            // pin (a Probe could race another tenant's eviction), resident
            // frames are served from memory — write-through keeps clean
            // frames equal to disk, and another session may have loaded
            // the block already (cross-session dedup) — and misses load
            // under the pool's coalescing latch so two sessions fetching
            // one block share a single disk read.
            bool resident = false;
            auto f = fetch_frame(key.first, rec.block, rec.bytes, store,
                                 /*coalesce=*/true, /*refill=*/false,
                                 &resident);
            if (!f.ok()) return f.status();
            frame = *f;
            if (!resident) {
              if (rec.saved && opts_.strict_sharing) {
                // Created zeroed by this Fetch, never loaded; Discard also
                // wakes any coalesced waiter (none can exist for a
                // session-private retained block, but stay defensive).
                pool.Discard(frame, account);
                return Status::Internal(
                    "saved read not in memory: " + st.name + " access " +
                    std::to_string(ai) + " (plan/realization bug)");
              }
              Status rst = sync_read(store, rec.block, frame->data.data());
              if (!rst.ok()) {
                // Garbage frame: wakes coalesced waiters, which bail out.
                pool.Discard(frame, account);
                return rst;
              }
              pool.MarkLoaded(frame);
              stats.bytes_read += rec.bytes;
              ++stats.block_reads;
            } else if (!rec.saved) {
              ++stats.policy_saved_reads;  // cross-session residency win
            }
          } else if (rec.type == AccessType::kRead) {
            // A read is served from memory ONLY when the plan realizes a
            // sharing opportunity for it (Section 5.3: a schedule may
            // "accidentally" enable more sharing, but generated code
            // exploits exactly Q). Everything else is a disk read, even on
            // a pool hit.
            bool saved = rec.saved;
            BufferPool::Frame* present = pool.Probe(rec.array_id, rec.block);
            if (opportunistic) {
              // Whatever the pool still holds is reusable; correctness is
              // preserved because performed writes are write-through, so
              // any cached frame matches disk. The replacement policy is
              // what decides residency here — count its wins.
              saved = present != nullptr;
              if (saved) ++stats.policy_saved_reads;
            }
            if (saved && present == nullptr && opts_.strict_sharing) {
              return Status::Internal(
                  "saved read not in memory: " + st.name + " access " +
                  std::to_string(ai) + " (plan/realization bug)");
            }
            auto f = fetch_frame(rec.array_id, rec.block, rec.bytes, store,
                                 /*coalesce=*/false, /*refill=*/!saved,
                                 nullptr);
            if (!f.ok()) return f.status();
            frame = *f;
            if (!saved || present == nullptr) {
              Status rst = sync_read(store, rec.block, frame->data.data());
              if (!rst.ok()) {
                // The frame now holds zeros/garbage; it must not linger in
                // the pool as apparently clean cache (shared_pool reuse).
                pool.Discard(frame, account);
                return rst;
              }
              stats.bytes_read += rec.bytes;
              ++stats.block_reads;
            }
          } else {
            // Write target: no disk read; a guarded read access of the
            // same block (accumulation) was fetched in the read pass if
            // live. Session runs still fetch with coalescing so a write
            // colliding with another tenant's in-flight prefetch or load
            // of the block waits it out instead of CHECK-crashing or
            // tearing the buffer (only reachable when tenants race reads
            // against writes on one shared store — outputs are then
            // order-dependent by nature, but never torn). A created
            // frame is marked loaded at once: nothing will fill it.
            bool resident = false;
            auto f = fetch_frame(key.first, rec.block, rec.bytes, store,
                                 /*coalesce=*/session != nullptr,
                                 /*refill=*/true, &resident);
            if (!f.ok()) return f.status();
            frame = *f;
            if (session != nullptr && !resident) pool.MarkLoaded(frame);
          }
        }
        frames[ai] = frame;
        RIOT_CHECK_EQ(arr.ndim(), 2u) << "executor requires 2-D arrays";
        RIOT_DCHECK(IsAligned(frame->data.data()))
            << "kernel view over unaligned frame";
        views[ai] = DenseView{reinterpret_cast<double*>(frame->data.data()),
                              arr.block_elems[0], arr.block_elems[1]};
        view_ptrs[ai] = &views[ai];
        if (rec.retain_until_group >= 0) {
          pool.Retain(frame, rec.retain_until_group, account);
        }
      }

      // Compute.
      {
        auto t0 = std::chrono::steady_clock::now();
        kernels_[static_cast<size_t>(inst.stmt_id)](inst.iter, view_ptrs);
        stats.compute_seconds += Since(t0);
      }

      // Write-out.
      for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
        const BlockAccessRecord& rec = script.records[ri];
        if (rec.type != AccessType::kWrite) continue;
        const size_t ai = static_cast<size_t>(rec.access_idx);
        if (frames[ai] == nullptr) continue;
        BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
        // Write-behind unless a co-tenant also holds the frame (then it
        // may still be mutating it: write it now, as at depth 0).
        const int own_pins = static_cast<int>(
            std::count(frames.begin(), frames.end(), frames[ai]));
        if (!rec.saved &&
            !(write_behind &&
              pool.WriteThroughAsync(frames[ai], own_pins, store, io,
                                     io_channel, &ledger))) {
          Status wst = sync_write(store, frames[ai]->block,
                                  frames[ai]->data.data());
          if (!wst.ok()) {
            // The failed (and any not-yet-performed) write frame holds
            // kernel output that never reached disk; it must not linger
            // as apparently clean cache (shared_pool reuse).
            for (uint32_t rj = ri; rj < rec_end; ++rj) {
              const BlockAccessRecord& rw = script.records[rj];
              const size_t aj = static_cast<size_t>(rw.access_idx);
              if (rw.type != AccessType::kWrite || frames[aj] == nullptr) {
                continue;
              }
              pool.Discard(frames[aj], account);
              frames[aj] = nullptr;
            }
            return wst;
          }
        }
        if (!rec.saved) {
          stats.bytes_written += rec.bytes;
          ++stats.block_writes;
        }
        // Either way the in-memory copy is authoritative; retention (set
        // above) protects it for pending saved reads. Cleared under the
        // pool lock: concurrent tenants' eviction scans read the flag.
        pool.MarkClean(frames[ai]);
      }

      // Measure the requirement while the instance's frames are still
      // pinned, then release them. A session reports its own charged
      // bytes (the shared pool's global requirement mixes tenants).
      stats.peak_required_bytes = std::max(
          stats.peak_required_bytes,
          account != nullptr
              ? account->peak_charged_bytes.load(std::memory_order_relaxed)
              : pool.PinnedOrRetainedBytes());
      for (size_t ai = 0; ai < na; ++ai) {
        if (frames[ai] != nullptr) {
          pool.Unpin(frames[ai], account);
          frames[ai] = nullptr;
        }
      }
    }
    return Status::OK();
  }();

  // Unified cleanup (success and error): unpin anything a failed instance
  // still holds, drain the lookahead the plan ended ahead of, land every
  // write-through and write-behind, join the I/O workers, and release
  // every retention this run created.
  for (BufferPool::Frame* f : frames) {
    if (f != nullptr) pool.Unpin(f, account);
  }
  while (cancel_one()) {
  }
  if (write_behind) {
    // A failed write is the root cause of whatever the run tripped over
    // afterwards (a poisoned block, a discarded frame), so it wins.
    Status wt = pool.DrainWriteThroughs(&ledger);
    if (!wt.ok()) run_status = wt;
    stats.write_behind_peak_bytes = ledger.peak_held_bytes.load();
  }
  if (owned_io != nullptr) {
    if (opts_.writeback_async) {
      Status wb = pool.DrainWritebacks();
      pool.SetWriteBehind(nullptr);
      if (run_status.ok() && !wb.ok()) run_status = wb;
    }
    stats.io_seconds += owned_io->read_seconds() + owned_io->write_seconds();
    owned_io.reset();  // joins the workers
  }
  // A session's shared IoPool needs no drain beyond the cancel loop above
  // (its channel is empty) and reports worker time runtime-wide, not here.
  pool.ReleaseRetainedBefore(std::numeric_limits<int64_t>::max(), account);
  DropDivergentWrites(script, &pool, pid);
  if (schedule_policy) pool.UnbindUsePlan(bound_uses);
  // Snapshot the session ledger, then sever the pool's references to it: a
  // shared frame another tenant still holds required would otherwise keep
  // pointing at this (caller-stack) account past the run.
  if (account != nullptr) {
    stats.peak_required_bytes =
        std::max(stats.peak_required_bytes,
                 account->peak_charged_bytes.load(std::memory_order_relaxed));
    pool.DetachAccount(account);
  }
  if (!run_status.ok()) return run_status;

  stats.pool = DiffPoolStats(pool.stats(), pool_stats0);
  stats.wall_seconds = Since(wall0);
  stats.overlap_seconds = std::max(
      0.0, stats.io_seconds + stats.compute_seconds - stats.wall_seconds);
  return stats;
}

// ---------------------------------------------------------------------------
// Parallel engine (exec_threads > 1): the access script is lifted to a
// statement-instance dependence DAG and ready instances are dispatched onto
// a kernel worker pool, smallest scheduled position first. The PR-1
// prefetcher keeps running, gated on *completed* instances instead of a
// serial cursor. Every physical hazard is covered by one of:
//   * DAG edges (RAW/WAR/WAW + saved-read materialization) — orderings,
//   * a per-block load latch — two concurrent readers of one frame load it
//     exactly once,
//   * per-store mutexes — store implementations are single-threaded,
//   * the BufferPool's internal lock — frame table and accounting.
// Memory pressure never deadlocks: a starved instance releases everything
// it pinned and parks; the frontier instance (smallest incomplete position
// — always dispatchable, since edges only point forward) retries until it
// is alone, and only then is ResourceExhausted real.
// ---------------------------------------------------------------------------
Result<ExecStats> Executor::RunParallel(
    const Schedule& schedule, const std::vector<const CoAccess*>& realized) {
  auto wall0 = std::chrono::steady_clock::now();
  RealizedPlan rp = RealizePlan(prog_, schedule, realized);
  const AccessScript script = BuildAccessScript(prog_, rp);
  const InstanceDag dag = BuildInstanceDag(script);
  RIOT_RETURN_NOT_OK(LintLoweredPlan(rp, script, &dag));
  const size_t n = rp.order.size();

  BufferPool local_pool(opts_.memory_cap_bytes,
                        MakeReplacementPolicy(opts_.replacement));
  BufferPool& pool = opts_.shared_pool != nullptr ? *opts_.shared_pool
                                                  : local_pool;
  const BufferPoolStats pool_stats0 = pool.stats();
  // ScheduleOpt clocking under parallel dispatch: advance by the completed
  // frontier (smallest incomplete position) — a linear extension of the
  // DAG, so a use is never declared past while its instance can still run.
  const bool schedule_policy =
      pool.replacement_kind() == ReplacementKind::kScheduleOpt;
  std::shared_ptr<const BlockUseMap> bound_uses;
  if (schedule_policy) {
    bound_uses = std::make_shared<BlockUseMap>(script.block_uses);
    pool.BindUsePlan(bound_uses);
  }
  const int depth = std::max(0, opts_.pipeline_depth);
  const int nworkers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(1, opts_.exec_threads)),
      std::max<size_t>(1, n)));

  ExecStats stats;
  stats.parallel_groups = static_cast<int64_t>(dag.critical_path);

  using Key = std::pair<int, int64_t>;  // (array id, linear block)
  struct Pending {
    BufferPool::Frame* frame = nullptr;
    bool done = false;
    Status status;
  };

  // Per-worker stats merged on join; shared counters for paths that run in
  // arbitrary contexts (prefetch cancelation, end-of-run drain).
  struct LocalStats {
    int64_t bytes_read = 0, bytes_written = 0;
    int64_t block_reads = 0, block_writes = 0;
    int64_t prefetch_hits = 0;
    int64_t policy_saved_reads = 0;
    double io_seconds = 0.0, compute_seconds = 0.0;
  };
  std::atomic<int64_t> canceled_bytes{0}, canceled_reads{0},
      prefetch_wasted{0}, peak_required{0};
  std::atomic<bool> aborting{false};

  // Completion flags are read by the prefetcher and by dependence checks
  // without the scheduler lock.
  std::unique_ptr<std::atomic<bool>[]> completed(
      new std::atomic<bool>[std::max<size_t>(1, n)]);
  for (size_t i = 0; i < n; ++i) completed[i].store(false);
  std::atomic<size_t> group_frontier{0};

  std::unique_ptr<IoPool> io;  // declared after `pool`: joins before frames die
  StoreMutexMap fallback_store_mu;  // store serialization when no IoPool
  if (depth > 0) {
    io = std::make_unique<IoPool>(std::max(1, opts_.io_threads));
    pool.SetPrefetchBudget(std::max<int64_t>(
        0, (pool.cap_bytes() -
            static_cast<int64_t>(nworkers) * script.max_instance_bytes) /
               2));
    if (opts_.writeback_async) pool.SetWriteBehind(io.get());
  }

  // ----------------------------------------------------- prefetcher state
  // All of it lives under pf.mu. Consumers also hold pf.mu across their
  // pending-table check *and* the subsequent pool Fetch, so the prefetcher
  // can never slip a kPrefetching frame under a consumer between the two.
  struct PrefetchState {
    Mutex mu;
    CondVar cv;
    // One thread at a time sits in WaitCompletion.
    bool draining GUARDED_BY(mu) = false;
    std::map<Key, Pending> pending GUARDED_BY(mu);
    std::map<uint64_t, Key> key_of_tag GUARDED_BY(mu);
    std::deque<Key> issue_order GUARDED_BY(mu);
    // Dep-blocked record indices.
    std::deque<size_t> deferred GUARDED_BY(mu);
    size_t cursor GUARDED_BY(mu) = 0;
    uint64_t next_tag GUARDED_BY(mu) = 0;
  } pf;

  // Load latch: (array, block) entries whose frame a consumer is currently
  // filling from disk. Registered atomically with the creating Fetch
  // (under pf.mu); later readers of the same frame wait here instead of
  // racing the load.
  struct LatchState {
    Mutex mu;
    CondVar cv;
    std::set<Key> loading GUARDED_BY(mu);
  } latch;

  // ------------------------------------------------------ scheduler state
  struct Sched {
    Mutex mu;
    CondVar cv;
    // Smallest scheduled position first.
    std::priority_queue<size_t, std::vector<size_t>, std::greater<size_t>>
        ready GUARDED_BY(mu);
    // Memory-starved; re-queued on progress.
    std::vector<size_t> parked GUARDED_BY(mu);
    std::vector<uint32_t> pred_left GUARDED_BY(mu);
    // Incomplete instances per group.
    std::vector<size_t> group_left GUARDED_BY(mu);
    size_t n_done GUARDED_BY(mu) = 0;
    // Smallest incomplete position.
    size_t frontier GUARDED_BY(mu) = 0;
    size_t running GUARDED_BY(mu) = 0;
    uint64_t progress_epoch GUARDED_BY(mu) = 0;
    int64_t max_width GUARDED_BY(mu) = 0;
    bool failed GUARDED_BY(mu) = false;
    Status error GUARDED_BY(mu);
  } sc;
  {
    MutexLock lock(&sc.mu);  // workers not yet spawned; lock for the analysis
    sc.pred_left = dag.pred_count;
    sc.group_left.assign(rp.num_groups, 0);
    for (size_t p = 0; p < n; ++p) {
      ++sc.group_left[rp.group_of[p]];
      if (dag.pred_count[p] == 0) sc.ready.push(p);
    }
  }

  // Registers a terminal error (first one wins) and wakes every waiter so
  // the run unwinds promptly.
  auto fail_run = [&](const Status& st) {
    {
      MutexLock lock(&sc.mu);
      if (!sc.failed) {
        sc.failed = true;
        sc.error = st;
      }
    }
    aborting.store(true);
    sc.cv.NotifyAll();
    latch.cv.NotifyAll();
    pf.cv.NotifyAll();
  };

  auto sync_store_op = [&](BlockStore* store, double* io_acc,
                           auto&& op) -> Status {
    std::shared_ptr<std::mutex> serial = io != nullptr
                                             ? io->store_mutex(store)
                                             : fallback_store_mu.mutex_for(
                                                   store);
    std::lock_guard<std::mutex> lock(*serial);
    auto t0 = std::chrono::steady_clock::now();
    Status st = op();
    *io_acc += Since(t0);
    return st;
  };

  // --- prefetch helpers; callers hold pf.mu through the passed lock ------
  // The `_locked` lambdas run entirely under pf.mu, but receive it through
  // a caller-owned UniqueMutexLock the analysis cannot attribute, so each
  // carries NO_THREAD_SAFETY_ANALYSIS; the callers below are all analyzed.
  // Marks the pending entry a consumed IoPool completion belongs to done.
  auto resolve_completion_locked =
      [&](IoPool::Completion c) NO_THREAD_SAFETY_ANALYSIS {
    auto it = pf.key_of_tag.find(c.tag);
    RIOT_CHECK(it != pf.key_of_tag.end());
    Pending& p = pf.pending.at(it->second);
    p.done = true;
    p.status = std::move(c.status);
    pool.CompletePrefetch(p.frame);
    pf.key_of_tag.erase(it);
  };

  // Waits until the pending entry for `key` is done and returns it, or
  // returns nullptr if another thread resolved (adopted or canceled) the
  // entry while this one waited — concurrent consumers may race for the
  // same block, and the first resolution wins. pf.mu is dropped while
  // sitting in WaitCompletion; only one thread drains at a time.
  auto wait_pending_locked = [&](UniqueMutexLock& l, const Key& key)
      NO_THREAD_SAFETY_ANALYSIS -> Pending* {
    for (;;) {
      auto want = pf.pending.find(key);
      if (want == pf.pending.end()) return nullptr;
      if (want->second.done) return &want->second;
      if (!pf.draining) {
        pf.draining = true;
        l.Unlock();
        IoPool::Completion c = io->WaitCompletion();
        l.Lock();
        pf.draining = false;
        resolve_completion_locked(std::move(c));
        pf.cv.NotifyAll();
      } else {
        pf.cv.Wait(l);
      }
    }
  };

  // False when the entry vanished before this thread could cancel it.
  auto cancel_key_locked = [&](UniqueMutexLock& l, const Key& key)
      NO_THREAD_SAFETY_ANALYSIS -> bool {
    Pending* p = wait_pending_locked(l, key);
    if (p == nullptr) return false;
    if (p->status.ok()) {
      canceled_bytes.fetch_add(static_cast<int64_t>(p->frame->data.size()));
      canceled_reads.fetch_add(1);
    }
    pool.AbandonPrefetch(p->frame);
    prefetch_wasted.fetch_add(1);
    pf.pending.erase(key);
    return true;
  };

  auto cancel_one_locked =
      [&](UniqueMutexLock& l) NO_THREAD_SAFETY_ANALYSIS -> bool {
    while (!pf.issue_order.empty()) {
      Key key = pf.issue_order.back();
      pf.issue_order.pop_back();
      if (pf.pending.count(key) == 0) continue;  // already adopted
      if (cancel_key_locked(l, key)) return true;
    }
    return false;
  };

  enum class Issue { kHandled, kDepBlocked, kNoRoom };
  auto try_issue_locked =
      [&](const BlockAccessRecord& rec) NO_THREAD_SAFETY_ANALYSIS -> Issue {
    if (completed[rec.pos].load()) return Issue::kHandled;
    if (rec.dep_pos >= 0 &&
        !completed[static_cast<size_t>(rec.dep_pos)].load()) {
      return Issue::kDepBlocked;  // producing write not performed yet
    }
    Key key{rec.array_id, rec.block};
    if (pf.pending.count(key) > 0) return Issue::kHandled;
    BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
    BufferPool::Frame* f =
        pool.TryStartPrefetch(rec.array_id, rec.block, rec.bytes, store);
    if (f == nullptr) {
      if (pool.Probe(rec.array_id, rec.block) != nullptr) {
        return Issue::kHandled;  // resident; a consumer serves it directly
      }
      return Issue::kNoRoom;
    }
    uint64_t tag = pf.next_tag++;
    pf.key_of_tag[tag] = key;
    pf.pending.emplace(key, Pending{f, false, Status::OK()});
    pf.issue_order.push_back(key);
    io->ReadBlockAsync(store, rec.block, f->data.data(), tag);
    return Issue::kHandled;
  };

  auto advance_prefetcher = [&]() {
    if (io == nullptr) return;
    UniqueMutexLock l(&pf.mu);
    for (auto it = pf.deferred.begin(); it != pf.deferred.end();) {
      Issue res = try_issue_locked(script.records[*it]);
      if (res == Issue::kNoRoom) return;
      if (res == Issue::kDepBlocked) {
        ++it;
      } else {
        it = pf.deferred.erase(it);
      }
    }
    const size_t gf = group_frontier.load();
    while (pf.cursor < script.records.size()) {
      const BlockAccessRecord& rec = script.records[pf.cursor];
      if (rec.group > gf + static_cast<size_t>(depth)) break;
      if (rec.type != AccessType::kRead || rec.saved) {
        ++pf.cursor;
        continue;
      }
      Issue res = try_issue_locked(rec);
      if (res == Issue::kNoRoom) break;
      if (res == Issue::kDepBlocked) pf.deferred.push_back(pf.cursor);
      ++pf.cursor;
    }
  };

  // --- frame acquisition --------------------------------------------------
  // Returns the pinned frame for one record, fully loaded for reads. A
  // kResourceExhausted status is retryable (the caller rolls back and
  // parks); anything else is terminal.
  // `created_out` (optional) reports whether this call created the frame
  // (pool miss) rather than pinning a pre-existing resident one — the
  // rollback logic may discard only frames the attempt itself created.
  auto acquire_record = [&](const BlockAccessRecord& rec, LocalStats& ls,
                            bool* created_out =
                                nullptr) -> Result<BufferPool::Frame*> {
    if (aborting.load()) {
      return Status::Internal("aborted: concurrent failure");
    }
    if (created_out != nullptr) *created_out = false;
    const Statement& st = prog_.statement(rec.stmt_id);
    BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
    const Key key{rec.array_id, rec.block};
    BufferPool::Frame* frame = nullptr;
    bool resident = false;
    bool must_load = false;
    {
      UniqueMutexLock pl(&pf.mu);
      if (pf.pending.count(key) > 0) {
        if (rec.type == AccessType::kRead && !rec.saved) {
          // The prefetcher issued this very disk read; adopt its frame
          // (unless a racing consumer resolved it first — then the block
          // is simply served through the regular fetch path below).
          Pending* p = wait_pending_locked(pl, key);
          if (p != nullptr) {
            if (!p->status.ok()) return p->status;
            BufferPool::Frame* adopted = pool.AdoptPrefetched(p->frame);
            pf.pending.erase(key);
            ++ls.prefetch_hits;
            ls.bytes_read += rec.bytes;
            ++ls.block_reads;
            return adopted;
          }
        } else {
          // A write or saved read colliding with an in-flight prefetch
          // resolves it first (defensive; dependence gating makes this
          // unreachable for writes).
          cancel_key_locked(pl, key);
        }
      }
      for (;;) {
        auto f = pool.Fetch(rec.array_id, rec.block, rec.bytes, store,
                            /*load=*/false, &resident);
        if (f.ok()) {
          frame = *f;
          if (created_out != nullptr) *created_out = !resident;
          break;
        }
        if (f.status().code() != StatusCode::kResourceExhausted) {
          return f.status();
        }
        // Memory pressure: the consumer wins over lookahead.
        if (!cancel_one_locked(pl)) return f.status();
      }
      if (rec.type == AccessType::kRead && !resident) {
        if (rec.saved && opts_.strict_sharing) {
          pool.Discard(frame);  // created zeroed by this Fetch, never loaded
          return Status::Internal(
              "saved read not in memory: " + st.name + " access " +
              std::to_string(rec.access_idx) + " (plan/realization bug)");
        }
        must_load = true;
        MutexLock ll(&latch.mu);
        latch.loading.insert(key);
      }
    }
    if (must_load) {
      Status st_load = sync_store_op(store, &ls.io_seconds, [&] {
        return store->ReadBlock(rec.block, frame->data.data());
      });
      if (!st_load.ok()) {
        // Mark the run failed *before* releasing the latch so waiters on
        // this garbage frame observe `aborting` when they wake, and
        // discard the frame so it cannot linger as apparently clean cache
        // (Unpin by the waiters erases it once the last pin drops).
        fail_run(st_load);
        pool.Discard(frame);
      }
      {
        MutexLock ll(&latch.mu);
        latch.loading.erase(key);
      }
      latch.cv.NotifyAll();
      if (!st_load.ok()) return st_load;
      ls.bytes_read += rec.bytes;
      ++ls.block_reads;
    } else if (rec.type == AccessType::kRead && resident) {
      // The resident frame's contents are the block's current value (clean
      // frames match disk via write-through; newer-than-disk frames exist
      // only behind retentions the plan orders us after) — but another
      // consumer may still be mid-load; wait behind the latch. The serial
      // engine re-reads disk here to stay cost-model-exact; concurrent
      // consumers instead dedupe the physically redundant read — a
      // residency win the replacement policy gets credit for.
      if (!rec.saved) ++ls.policy_saved_reads;
      UniqueMutexLock ll(&latch.mu);
      while (latch.loading.count(key) != 0 && !aborting.load()) {
        latch.cv.Wait(ll);
      }
      if (aborting.load()) {
        // The run is failing; this frame may be the failed loader's
        // garbage (then it is marked discarded and this Unpin erases it).
        ll.Unlock();
        pool.Unpin(frame);
        return Status::Internal("aborted: concurrent I/O failure");
      }
    }
    return frame;
  };

  // --- one execution attempt of one instance ------------------------------
  enum class Outcome { kDone, kPressure, kError };
  auto try_exec_once = [&](size_t pos, LocalStats& ls) -> Outcome {
    const auto& inst = rp.order[pos];
    const Statement& st = prog_.statement(inst.stmt_id);
    const size_t na = st.accesses.size();
    std::vector<BufferPool::Frame*> frames(na, nullptr);
    std::vector<DenseView> views(na);
    std::vector<DenseView*> view_ptrs(na, nullptr);
    const auto [rec_begin, rec_end] = script.per_pos[pos];

    // Failed rollbacks must not leave frames whose contents lie:
    //   * kAcquireFailed (kernel never ran): discard write targets this
    //     attempt *created* — they are zero-filled, never written. A
    //     pre-existing resident frame (e.g. the retained, newer-than-disk
    //     block an aliased saved read depends on) is only unpinned.
    //   * kKernelRan (write-through failed): every write frame holds
    //     kernel output that may never have reached disk — discard all.
    //   * kRelease (success): plain unpin; frames are valid cache.
    enum class Rollback { kRelease, kAcquireFailed, kKernelRan };
    std::vector<bool> is_write(na, false), created_write(na, false);
    auto rollback = [&](Rollback mode) {
      for (size_t ai = 0; ai < na; ++ai) {
        if (frames[ai] == nullptr) continue;
        const bool discard =
            (mode == Rollback::kAcquireFailed && created_write[ai]) ||
            (mode == Rollback::kKernelRan && is_write[ai]);
        if (discard) {
          pool.Discard(frames[ai]);
        } else {
          pool.Unpin(frames[ai]);
        }
        frames[ai] = nullptr;
      }
    };

    // Acquisition: pin every frame (reads loaded, write targets bare)
    // before any retention or kernel side effect, so a memory-starved
    // attempt can roll back to nothing and be retried safely.
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script.records[ri];
      bool created = false;
      auto f = acquire_record(rec, ls, &created);
      if (!f.ok()) {
        rollback(Rollback::kAcquireFailed);
        if (f.status().code() == StatusCode::kResourceExhausted &&
            !aborting.load()) {
          return Outcome::kPressure;
        }
        fail_run(f.status());
        return Outcome::kError;
      }
      const size_t ai = static_cast<size_t>(rec.access_idx);
      frames[ai] = *f;
      is_write[ai] = rec.type == AccessType::kWrite;
      created_write[ai] = created && is_write[ai];
      const ArrayInfo& arr = prog_.array(rec.array_id);
      RIOT_CHECK_EQ(arr.ndim(), 2u) << "executor requires 2-D arrays";
      RIOT_DCHECK(IsAligned(frames[ai]->data.data()))
          << "kernel view over unaligned frame";
      views[ai] = DenseView{reinterpret_cast<double*>(frames[ai]->data.data()),
                            arr.block_elems[0], arr.block_elems[1]};
      view_ptrs[ai] = &views[ai];
    }
    // All pinned: retentions are now applied exactly once, by the attempt
    // that will actually complete the instance.
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script.records[ri];
      if (rec.retain_until_group >= 0) {
        pool.Retain(frames[static_cast<size_t>(rec.access_idx)],
                    rec.retain_until_group);
      }
    }

    // Compute.
    {
      auto t0 = std::chrono::steady_clock::now();
      kernels_[static_cast<size_t>(inst.stmt_id)](inst.iter, view_ptrs);
      ls.compute_seconds += Since(t0);
    }

    // Write-out (write-through keeps every unretained frame == disk).
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script.records[ri];
      if (rec.type != AccessType::kWrite) continue;
      const size_t ai = static_cast<size_t>(rec.access_idx);
      if (frames[ai] == nullptr) continue;
      if (!rec.saved) {
        BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
        Status st_w = sync_store_op(store, &ls.io_seconds, [&] {
          return store->WriteBlock(frames[ai]->block,
                                   frames[ai]->data.data());
        });
        if (!st_w.ok()) {
          rollback(Rollback::kKernelRan);
          fail_run(st_w);
          return Outcome::kError;
        }
        ls.bytes_written += rec.bytes;
        ++ls.block_writes;
      }
      pool.MarkClean(frames[ai]);
    }

    AtomicMax(&peak_required, pool.PinnedOrRetainedBytes());
    rollback(Rollback::kRelease);  // release pins; retentions persist
    return Outcome::kDone;
  };

  // Retries an instance through memory pressure. Non-frontier instances
  // report back to be parked; the frontier instance waits for the world to
  // drain and only errors once it is provably alone and still starved.
  auto exec_instance = [&](size_t pos, LocalStats& ls) -> Outcome {
    bool retried_alone = false;
    for (;;) {
      if (aborting.load()) return Outcome::kError;
      Outcome oc = try_exec_once(pos, ls);
      if (oc != Outcome::kPressure) return oc;
      UniqueMutexLock sl(&sc.mu);
      if (sc.failed) return Outcome::kError;
      if (pos != sc.frontier) return Outcome::kPressure;  // caller parks
      if (sc.running == 1) {
        if (retried_alone) {
          sl.Unlock();
          fail_run(Status::ResourceExhausted(
              "buffer pool cap exceeded with all frames pinned/retained "
              "(parallel frontier instance " +
              std::to_string(pos) + " starved while running alone)"));
          return Outcome::kError;
        }
        retried_alone = true;  // one clean retry with the machine drained
        continue;
      }
      retried_alone = false;
      uint64_t epoch = sc.progress_epoch;
      while (!(sc.failed || sc.running == 1 || sc.progress_epoch != epoch)) {
        sc.cv.Wait(sl);
      }
      if (sc.failed) return Outcome::kError;
    }
  };

  // ------------------------------------------------------- worker threads
  std::vector<LocalStats> worker_stats(static_cast<size_t>(nworkers));
  auto worker = [&](int wid) {
    LocalStats& ls = worker_stats[static_cast<size_t>(wid)];
    UniqueMutexLock sl(&sc.mu);
    for (;;) {
      while (!(sc.failed || !sc.ready.empty() || sc.n_done == n)) {
        sc.cv.Wait(sl);
      }
      if (sc.failed || sc.n_done == n) return;
      size_t pos = sc.ready.top();
      sc.ready.pop();
      ++sc.running;
      sc.max_width = std::max(
          sc.max_width,
          static_cast<int64_t>(sc.running + sc.ready.size()));
      sl.Unlock();

      if (depth > 0) advance_prefetcher();
      Outcome oc = exec_instance(pos, ls);

      sl.Lock();
      --sc.running;
      ++sc.progress_epoch;
      if (oc == Outcome::kDone) {
        completed[pos].store(true);
        ++sc.n_done;
        const size_t old_frontier = sc.frontier;
        while (sc.frontier < n && completed[sc.frontier].load()) {
          ++sc.frontier;
        }
        if (schedule_policy && sc.frontier != old_frontier) {
          // Pool lock nests inside sc.mu here; pool code never takes
          // sc.mu, so the order is acyclic.
          pool.AdvanceReplacementClock(bound_uses,
                                       static_cast<int64_t>(sc.frontier));
        }
        const size_t g = rp.group_of[pos];
        if (--sc.group_left[g] == 0) {
          size_t gf = group_frontier.load();
          while (gf < rp.num_groups && sc.group_left[gf] == 0) ++gf;
          if (gf != group_frontier.load()) {
            group_frontier.store(gf);
            pool.ReleaseRetainedBefore(static_cast<int64_t>(gf));
          }
        }
        for (uint32_t s : dag.succ[pos]) {
          if (--sc.pred_left[s] == 0) sc.ready.push(s);
        }
        for (size_t p : sc.parked) sc.ready.push(p);
        sc.parked.clear();
      } else if (oc == Outcome::kPressure) {
        sc.parked.push_back(pos);
        // Parked instances are normally re-queued by the next completion —
        // but that completion may have happened in the window between
        // exec_instance dropping sc.mu and this re-lock. If this instance
        // has meanwhile become the frontier, or nothing is left running to
        // produce a future completion, re-queue immediately or the run
        // would strand with work parked and every worker asleep.
        if (pos == sc.frontier || sc.running == 0) {
          for (size_t p : sc.parked) sc.ready.push(p);
          sc.parked.clear();
        }
      }
      // kError: fail_run already recorded it; fall through and let every
      // worker observe sc.failed.
      sc.cv.NotifyAll();
    }
  };

  if (depth > 0) advance_prefetcher();  // prime the lookahead
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();

  // Drain every in-flight prefetch (abandoned lookahead on success, all of
  // it on error) so no kPrefetching frame survives this run — mandatory
  // when the pool is shared.
  if (io != nullptr) {
    UniqueMutexLock pl(&pf.mu);
    while (io->outstanding() > 0) {
      pl.Unlock();
      IoPool::Completion c = io->WaitCompletion();
      pl.Lock();
      resolve_completion_locked(std::move(c));
    }
    for (auto& [key, p] : pf.pending) {
      RIOT_CHECK(p.done);
      if (p.status.ok()) {
        canceled_bytes.fetch_add(static_cast<int64_t>(p.frame->data.size()));
        canceled_reads.fetch_add(1);
      }
      pool.AbandonPrefetch(p.frame);
      prefetch_wasted.fetch_add(1);
    }
    pf.pending.clear();
    if (opts_.writeback_async) {
      Status wb = pool.DrainWritebacks();
      pool.SetWriteBehind(nullptr);
      if (!wb.ok()) {
        MutexLock lock(&sc.mu);
        if (!sc.failed) {
          sc.failed = true;
          sc.error = wb;
        }
      }
    }
    stats.io_seconds += io->read_seconds() + io->write_seconds();
    io.reset();  // joins the I/O workers
  }
  pool.ReleaseRetainedBefore(std::numeric_limits<int64_t>::max());
  DropDivergentWrites(script, &pool, [](int id) { return id; });
  if (schedule_policy) pool.UnbindUsePlan(bound_uses);

  {
    MutexLock lock(&sc.mu);  // workers are joined; lock for the analysis
    stats.max_ready_width = sc.max_width;
    if (sc.failed) return sc.error;
  }

  for (const LocalStats& ls : worker_stats) {
    stats.bytes_read += ls.bytes_read;
    stats.bytes_written += ls.bytes_written;
    stats.block_reads += ls.block_reads;
    stats.block_writes += ls.block_writes;
    stats.prefetch_hits += ls.prefetch_hits;
    stats.policy_saved_reads += ls.policy_saved_reads;
    stats.io_seconds += ls.io_seconds;
    stats.compute_seconds += ls.compute_seconds;
  }
  stats.bytes_read += canceled_bytes.load();
  stats.block_reads += canceled_reads.load();
  stats.prefetch_wasted = prefetch_wasted.load();
  stats.peak_required_bytes = peak_required.load();
  stats.pool = DiffPoolStats(pool.stats(), pool_stats0);
  stats.wall_seconds = Since(wall0);
  stats.overlap_seconds = std::max(
      0.0, stats.io_seconds + stats.compute_seconds - stats.wall_seconds);
  stats.compute_overlap_seconds =
      std::max(0.0, stats.compute_seconds - stats.wall_seconds);
  return stats;
}

}  // namespace riot
