#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <thread>

#include "analysis/program_lint.h"
#include "core/access_plan.h"
#include "exec/kernel_synthesis.h"
#include "storage/io_pool.h"
#include "storage/issue_policy.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace riot {

namespace {

using Clock = std::chrono::steady_clock;

double Since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void AtomicMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load();
  while (cur < value && !target->compare_exchange_weak(cur, value)) {
  }
}

// A synchronous store call on a kernel worker, timed into its I/O seconds.
// It may overlap other workers' and the I/O pool's calls on the same store
// (never on the same block).
template <class Op>
Status TimedStoreOp(double* io_seconds, const Op& op) {
  const auto t0 = Clock::now();
  Status st = op();
  *io_seconds += Since(t0);
  return st;
}

// Per-run view of the pool counters: a shared pool accumulates across
// runs, so each run reports the delta from its own start snapshot.
BufferPoolStats DiffPoolStats(const BufferPoolStats& end,
                              const BufferPoolStats& start) {
  BufferPoolStats d;
  d.hits = end.hits - start.hits;
  d.misses = end.misses - start.misses;
  d.evictions = end.evictions - start.evictions;
  d.writeback_stall_seconds =
      end.writeback_stall_seconds - start.writeback_stall_seconds;
  d.prefetch_issued = end.prefetch_issued - start.prefetch_issued;
  d.prefetch_declined = end.prefetch_declined - start.prefetch_declined;
  d.prefetch_abandoned = end.prefetch_abandoned - start.prefetch_abandoned;
  d.coalesced_loads = end.coalesced_loads - start.coalesced_loads;
  return d;
}

// Adds the counters a kernel worker keeps into the run's.
void AddWorkerCounters(const ExecStats& w, ExecStats* run) {
  run->bytes_read += w.bytes_read;
  run->bytes_written += w.bytes_written;
  run->block_reads += w.block_reads;
  run->block_writes += w.block_writes;
  run->prefetch_hits += w.prefetch_hits;
  run->policy_saved_reads += w.policy_saved_reads;
  run->session_parks += w.session_parks;
  run->session_park_seconds += w.session_park_seconds;
  run->io_seconds += w.io_seconds;
  run->compute_seconds += w.compute_seconds;
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

Status Executor::LintLoweredPlan(const AccessScript& script,
                                 const InstanceDag* dag) const {
  if (!opts_.lint) return Status::OK();
  const InstanceDag local = dag == nullptr ? BuildInstanceDag(script)
                                           : InstanceDag{};
  auto lint = LintScript(prog_, script, dag != nullptr ? *dag : local);
  RIOT_RETURN_NOT_OK(lint.status());
  if (!lint->ok()) return Status::InvalidArgument(lint->ToString());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The engine (executor.h), one Execution per Run. At depth >= 1 the
// prefetcher issues lookahead and fan-out reads through one pending table,
// adopted the same way and canceled the same way on error; what each read
// is charged, and the order an instance acquires its frames in, is the
// issue policy (storage/issue_policy.h).
// Every physical hazard is covered by one of:
//   * DAG edges (RAW/WAR/WAW + saved-read materialization) — orderings,
//   * the pool's load latch (Fetch with coalesce_loads, then MarkLoaded) —
//     concurrent readers of one frame, across workers or tenants, load it
//     exactly once,
//   * the pool's write barrier — a disk read, prefetch or rewrite of a
//     block waits out its in-flight write-through,
//   * the store contract (storage/block_store.h) — calls on distinct
//     blocks of one store may run concurrently, from kernel workers and
//     I/O workers alike; the three items above keep two calls off one
//     block,
//   * the BufferPool's internal lock — frame table and accounting.
// ---------------------------------------------------------------------------
class Executor::Execution {
 public:
  Execution(const Executor& ex, AccessScript script, Clock::time_point wall0)
      : ex_(ex),
        opts_(ex.opts_),
        script_(std::move(script)),
        n_(script_.order.size()),
        wall0_(wall0),
        opportunistic_(opts_.mode == ExecMode::kOpportunisticCache),
        session_(opts_.session),
        account_(session_ != nullptr ? session_->account : nullptr),
        // The ablation is defined against the serial reference order;
        // session runs are serial by contract (sessions are the parallelism).
        nworkers_(session_ != nullptr || opportunistic_
                      ? 1
                      : static_cast<int>(std::min<size_t>(
                            std::max(1, opts_.exec_threads),
                            std::max<size_t>(1, n_)))),
        dag_(nworkers_ > 1 ? std::make_unique<const InstanceDag>(
                                 BuildInstanceDag(script_))
                           : nullptr),
        // The read rule (executor.h); the ablation serves any resident
        // block by definition.
        serve_resident_(opportunistic_ || session_ != nullptr ||
                        nworkers_ > 1),
        local_pool_(opts_.memory_cap_bytes,
                    MakeReplacementPolicy(opts_.replacement)),
        pool_(opts_.shared_pool != nullptr ? *opts_.shared_pool
                                           : local_pool_),
        schedule_policy_(pool_.replacement_kind() ==
                         ReplacementKind::kScheduleOpt),
        // The ablation has no trusted access plan to prefetch from.
        depth_(opportunistic_ ? 0 : std::max(0, opts_.pipeline_depth)),
        worker_stats_(static_cast<size_t>(nworkers_)),
        dispatched_(n_),
        completed_(n_) {}

  Result<ExecStats> Run() {
    RIOT_RETURN_NOT_OK(ex_.LintLoweredPlan(script_, dag_.get()));
    Start();
    if (nworkers_ == 1) {
      Worker(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(nworkers_));
      for (int w = 0; w < nworkers_; ++w) {
        threads.emplace_back([this, w] { Worker(w); });
      }
      for (auto& t : threads) t.join();
    }
    return Finish();
  }

 private:
  using Key = std::pair<int, int64_t>;  // (pool array id, linear block)
  struct Pending {
    BufferPool::Frame* frame = nullptr;
    bool done = false;
    Status status;
    // Charged to the session account at issue (a session's fan-out read).
    bool charged = false;
  };
  enum class Issue { kHandled, kDepBlocked, kNoRoom };
  enum class Outcome { kDone, kPark, kFailed };

  // A session run translates array ids into the shared pool's namespace;
  // the identity for solo runs.
  int Pid(int array_id) const {
    return session_ != nullptr && !session_->pool_array_ids.empty()
               ? session_->pool_array_ids[static_cast<size_t>(array_id)]
               : array_id;
  }

  // Binds the plan's future to the replacement policy, starts the I/O
  // pipeline and readies the first positions. Nothing of this runs before
  // the plan passes its lint.
  void Start() {
    pool_stats0_ = pool_.stats();
    // ScheduleOpt replays the plan's future uses (ExecOptions::replacement).
    if (schedule_policy_) {
      auto uses = std::make_shared<BlockUseMap>();
      for (const auto& [key, positions] : script_.block_uses) {
        (*uses)[{Pid(key.first), key.second}] = positions;
      }
      bound_uses_ = std::move(uses);
      pool_.BindUsePlan(bound_uses_);
    }
    if (dag_ != nullptr) {
      stats_.parallel_groups = static_cast<int64_t>(dag_->critical_path);
    }
    // Depth 0 keeps the I/O pipeline dormant: the synchronous interpreter.
    if (depth_ > 0) {
      if (session_ != nullptr && session_->io != nullptr) {
        // Shared I/O workers: submit on the session's channel; the
        // pool-wide prefetch budget belongs to the runtime.
        io_ = session_->io;
        io_channel_ = session_->io_channel;
      } else {
        owned_io_ = std::make_unique<IoPool>(std::max(1, opts_.io_threads));
        io_ = owned_io_.get();
        pool_.SetPrefetchBudget(LookaheadBudget(
            pool_.cap_bytes(), nworkers_, script_.max_instance_bytes));
        required_max_ =
            std::make_unique<const RangeMax>(script_.required_bytes);
      }
    }
    MutexLock lock(&sc_.mu);  // no worker runs yet; lock for the analysis
    sc_.group_left.assign(script_.num_groups, 0);
    for (size_t p = 0; p < n_; ++p) ++sc_.group_left[script_.group_of[p]];
    if (dag_ != nullptr) {
      sc_.pred_left = dag_->pred_count;
      for (size_t p = 0; p < n_; ++p) {
        if (dag_->pred_count[p] == 0) sc_.ready.push(p);
      }
    } else if (n_ > 0) {
      sc_.ready.push(0);
    }
  }

  // Registers a terminal error (first one wins) and wakes every waiter so
  // the run unwinds promptly.
  void FailRun(const Status& st) EXCLUDES(sc_.mu) {
    {
      MutexLock lock(&sc_.mu);
      if (!sc_.failed) {
        sc_.failed = true;
        sc_.error = st;
      }
    }
    aborting_.store(true);
    sc_.cv.NotifyAll();
    pf_.cv.NotifyAll();
  }

  // ------------------------------------------------------- the prefetcher
  // Waits until the pending entry for `key` is done and returns it, or
  // nullptr if another thread resolved (adopted or canceled) it meanwhile:
  // the first resolution wins. One thread at a time drains completions,
  // dropping pf_.mu (held through `l`) while it waits.
  Pending* WaitPending(UniqueMutexLock& l, const Key& key) REQUIRES(pf_.mu) {
    for (;;) {
      auto want = pf_.pending.find(key);
      if (want == pf_.pending.end()) return nullptr;
      if (want->second.done) return &want->second;
      if (!pf_.draining) {
        pf_.draining = true;
        pf_.mu.Unlock();
        IoPool::Completion c = io_->WaitCompletion(io_channel_);
        pf_.mu.Lock();
        pf_.draining = false;
        // Mark the pending entry the completion belongs to done.
        auto it = pf_.key_of_tag.find(c.tag);
        RIOT_CHECK(it != pf_.key_of_tag.end());
        Pending& p = pf_.pending.at(it->second);
        p.done = true;
        p.status = std::move(c.status);
        pool_.CompletePrefetch(p.frame);
        pf_.key_of_tag.erase(it);
        pf_.cv.NotifyAll();
      } else {
        pf_.cv.Wait(l);
      }
    }
  }

  // Cancels the issued-but-unconsumed prefetch for `key`: waits for its
  // I/O, drops the frame, and accounts the disk read that already
  // happened. False when the entry vanished before this thread could.
  bool CancelKey(UniqueMutexLock& l, const Key& key) REQUIRES(pf_.mu) {
    Pending* p = WaitPending(l, key);
    if (p == nullptr) return false;
    if (p->status.ok()) {
      pf_.wasted_bytes += static_cast<int64_t>(p->frame->data.size());
      ++pf_.wasted_reads;
    }
    pool_.AbandonPrefetch(p->frame);
    ++pf_.wasted;
    pf_.pending.erase(key);
    return true;
  }

  // Cancels one outstanding prefetch (most recently issued first) to
  // relieve memory pressure; false when none remain.
  bool CancelOne(UniqueMutexLock& l) REQUIRES(pf_.mu) {
    while (!pf_.issue_order.empty()) {
      Key key = pf_.issue_order.back();
      pf_.issue_order.pop_back();
      if (pf_.pending.count(key) == 0) continue;  // already adopted
      if (CancelKey(l, key)) return true;
    }
    return false;
  }

  bool InFlight(const BlockAccessRecord& rec) const REQUIRES(pf_.mu) {
    return pf_.pending.count({Pid(rec.array_id), rec.block}) > 0;
  }

  // Served from memory by the read rule: reading it from disk ahead of
  // time would only add I/O.
  bool ServedResident(const BlockAccessRecord& rec) const {
    return serve_resident_ && pool_.Probe(Pid(rec.array_id), rec.block);
  }

  // The requirement of the positions from the frontier up to `pos`, which
  // a read for `pos` is charged beside; 0 in a session run.
  int64_t Earlier(size_t pos) const {
    return required_max_ != nullptr
               ? LookaheadCharge(*required_max_, pos_frontier_.load(), pos)
               : 0;
  }

  // Issues an asynchronous read for one disk-read record, charged `charge`
  // or to `account` (TryStartPrefetch). A record whose producing write
  // (dep_pos) has not completed — disk is stale — is dep-blocked; a pool
  // decline for room/budget is kNoRoom.
  Issue TryIssue(const BlockAccessRecord& rec, int64_t charge,
                 PoolAccount* account) REQUIRES(pf_.mu) {
    if (rec.dep_pos >= 0 &&
        !completed_[static_cast<size_t>(rec.dep_pos)].load()) {
      return Issue::kDepBlocked;
    }
    // One in-flight read per block is enough.
    if (InFlight(rec) || ServedResident(rec)) return Issue::kHandled;
    const Key key{Pid(rec.array_id), rec.block};
    BufferPool::Frame* f = pool_.TryStartPrefetch(key.first, rec.block,
                                                  rec.bytes, charge, account);
    if (f == nullptr) {
      if (pool_.WriteInFlight(key.first, rec.block)) {
        return Issue::kDepBlocked;  // the producing write has not landed
      }
      if (pool_.Probe(key.first, rec.block) != nullptr) {
        return Issue::kHandled;  // resident; a consumer serves it directly
      }
      return Issue::kNoRoom;
    }
    const uint64_t tag = pf_.next_tag++;
    pf_.key_of_tag[tag] = key;
    pf_.pending.emplace(key,
                        Pending{f, false, Status::OK(), account != nullptr});
    pf_.issue_order.push_back(key);
    io_->ReadBlockAsync(ex_.stores_[static_cast<size_t>(rec.array_id)],
                        rec.block, f->data.data(), tag, io_channel_);
    return Issue::kHandled;
  }

  // Lookahead for an instance not yet dispatched (a dispatched one's reads
  // were fanned out at its dispatch or are its consumer's).
  Issue TryLookahead(const BlockAccessRecord& rec) REQUIRES(pf_.mu) {
    if (dispatched_[rec.pos].load()) return Issue::kHandled;
    return TryIssue(rec, Earlier(rec.pos), nullptr);
  }

  // Fans out the instance just dispatched at `pos`, then reads ahead up to
  // `depth` groups past the group frontier (smallest group with an
  // incomplete instance). Dep-blocked records are deferred and retried as
  // the frontier moves; a decline for room pauses lookahead until
  // consumers free frames or the frontier passes the positions whose
  // requirement left no room.
  void AdvancePrefetcher(size_t pos) EXCLUDES(pf_.mu) {
    MutexLock l(&pf_.mu);
    const auto [rec_begin, rec_end] = script_.per_pos[pos];
    FanOut(
        script_.records.data() + rec_begin, rec_end - rec_begin,
        script_.required_bytes[pos], Earlier(pos),
        [&](const BlockAccessRecord& rec) {
          pf_.mu.AssertHeld();  // FanOut calls back under `l`
          return InFlight(rec);
        },
        [&](const BlockAccessRecord& rec) { return ServedResident(rec); },
        [&](const BlockAccessRecord& rec, int64_t charge) {
          pf_.mu.AssertHeld();
          TryIssue(rec, charge, account_);
          return InFlight(rec);
        });
    for (auto it = pf_.deferred.begin(); it != pf_.deferred.end();) {
      const Issue res = TryLookahead(script_.records[*it]);
      if (res == Issue::kNoRoom) return;
      if (res == Issue::kDepBlocked) {
        ++it;
      } else {
        it = pf_.deferred.erase(it);
      }
    }
    const size_t gf = group_frontier_.load();
    while (pf_.cursor < script_.records.size()) {
      const BlockAccessRecord& rec = script_.records[pf_.cursor];
      if (rec.group > gf + static_cast<size_t>(depth_)) break;
      if (!rec.disk_read()) {
        ++pf_.cursor;  // writes and saved reads never touch disk ahead
        continue;
      }
      const Issue res = TryLookahead(rec);
      if (res == Issue::kNoRoom) break;
      if (res == Issue::kDepBlocked) pf_.deferred.push_back(pf_.cursor);
      ++pf_.cursor;
    }
  }

  // ------------------------------------------------------- the instance step
  // Returns the pinned frame for one record, loaded for reads, bare for
  // write targets. `created`: this call created the frame (pool miss) —
  // rollback may discard only frames the attempt itself created. A
  // kResourceExhausted status is retryable (the caller rolls back and
  // parks); anything else is terminal.
  Result<BufferPool::Frame*> Acquire(const BlockAccessRecord& rec,
                                     ExecStats& ws, bool* created)
      EXCLUDES(pf_.mu) {
    *created = false;
    if (aborting_.load()) {
      return Status::Internal("aborted: concurrent failure");
    }
    const Key key{Pid(rec.array_id), rec.block};
    const bool is_read = rec.type == AccessType::kRead;
    // A one-worker plan-exact run reads a non-saved block from disk even
    // when it is resident (the read rule).
    const bool reread = rec.disk_read() && !serve_resident_;
    BufferPool::Frame* frame = nullptr;
    bool resident = false;
    {
      UniqueMutexLock pl(&pf_.mu);
      double parked = 0.0;
      double backoff = 0.0005;
      for (;;) {
        // Checked on every pass: the pressure relief below may drop pf_.mu,
        // and the Fetch must never meet this run's own prefetch.
        auto pending = pf_.pending.find(key);
        if (pending != pf_.pending.end()) {
          if (rec.disk_read() && (account_ == nullptr ||
                                  pending->second.charged ||
                                  account_->Admits(rec.bytes))) {
            // Adopt the prefetcher's read of this very block. Adoption
            // never refuses, so one over the session budget cancels the
            // prefetch and takes the parking fetch below. A racing consumer
            // may have resolved it first; then the regular fetch serves it.
            Pending* p = WaitPending(pl, key);
            if (p != nullptr) {
              if (!p->status.ok()) return p->status;
              BufferPool::Frame* adopted =
                  pool_.AdoptPrefetched(p->frame, account_);
              pf_.pending.erase(key);
              ++ws.prefetch_hits;
              ws.bytes_read += rec.bytes;
              ++ws.block_reads;
              return adopted;
            }
          } else {
            // Any other access colliding with an in-flight prefetch
            // resolves it first (defensive; dependence gating makes this
            // unreachable for writes).
            CancelKey(pl, key);
          }
          continue;
        }
        const int64_t landed = ledger_.landed.load();
        auto f = pool_.Fetch(key.first, rec.block, rec.bytes, &resident,
                             account_, /*coalesce_loads=*/true);
        if (f.ok()) {
          frame = *f;
          break;
        }
        if (f.status().code() != StatusCode::kResourceExhausted) {
          return f.status();
        }
        // Memory pressure; the consumer wins over lookahead. This run's
        // oldest write frees its frame in bounded time (one that landed
        // since the Fetch already has), then lookahead is canceled. Session
        // runs then park-and-retry until the binding's park timeout:
        // another tenant's transient pressure resolves as it progresses.
        RIOT_RETURN_NOT_OK(pool_.AwaitOldestWrite(&ledger_));
        if (ledger_.landed.load() != landed) continue;
        if (CancelOne(pl)) continue;
        if (session_ == nullptr || parked >= session_->park_timeout_seconds) {
          return f.status();
        }
        ++ws.session_parks;
        pl.Unlock();
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        pl.Lock();
        parked += backoff;
        ws.session_park_seconds += backoff;
        backoff = std::min(backoff * 2, 0.05);
      }
    }
    *created = !resident;
    if (resident && (reread || !is_read) && io_ != nullptr) {
      // This caller overwrites the pinned frame: a write submitted before
      // the pin lands first, and one submitted after it sees the pin and
      // is written synchronously (WriteThroughAsync).
      Status wst = pool_.AwaitWrite(key.first, rec.block);
      if (!wst.ok()) {
        pool_.Unpin(frame, account_);
        return wst;
      }
    }
    if (!is_read) {
      // Write target: nothing fills a created frame. A guarded read access
      // of the same block (accumulation) was fetched first if live.
      if (!resident) pool_.MarkLoaded(frame);
      return frame;
    }
    if (resident && !reread) {
      // Served from memory. A resident frame holds the block's current
      // value (clean frames match disk via write-through; newer-than-disk
      // frames exist only behind retentions the plan orders this read
      // after), and the pool's latch waited out any load in progress.
      if (!rec.saved) ++ws.policy_saved_reads;
      return frame;
    }
    if (!resident && rec.saved) {
      // Created zeroed by this Fetch, never loaded; Discard also wakes any
      // coalesced waiter.
      pool_.Discard(frame, account_);
      return Status::Internal(
          "saved read not in memory: " + ex_.prog_.statement(rec.stmt_id).name +
          " access " + std::to_string(rec.access_idx) +
          " (plan/realization bug)");
    }
    BlockStore* store = ex_.stores_[static_cast<size_t>(rec.array_id)];
    Status rst = TimedStoreOp(&ws.io_seconds, [&] {
      return store->ReadBlock(rec.block, frame->data.data());
    });
    if (!rst.ok()) {
      // Fail the run *before* discarding, so coalesced waiters on this
      // garbage frame unwind behind this error; the frame must not linger
      // as apparently clean cache (shared_pool reuse).
      FailRun(rst);
      pool_.Discard(frame, account_);
      return rst;
    }
    if (!resident) pool_.MarkLoaded(frame);
    ws.bytes_read += rec.bytes;
    ++ws.block_reads;
    return frame;
  }

  // One execution attempt of the instance at `pos`.
  Status TryExecOnce(size_t pos, ExecStats& ws) {
    // A failed write-behind ends the run; the cleanup's drain reports it
    // as the run's status.
    if (ledger_.failed.load()) return Status::IoError("write-through failed");
    const auto& inst = script_.order[pos];
    const size_t na = ex_.prog_.statement(inst.stmt_id).accesses.size();
    std::vector<BufferPool::Frame*> frames(na, nullptr);
    std::vector<DenseView> views(na);
    std::vector<DenseView*> view_ptrs(na, nullptr);
    const auto [rec_begin, rec_end] = script_.per_pos[pos];

    // Rollbacks must not leave frames whose contents lie. kAcquireFailed
    // (the kernel never ran) discards the write targets this attempt
    // created, zero-filled and never written, and only unpins resident ones
    // (such as the retained, newer-than-disk block of an aliased saved
    // read). kKernelRan (a write-through failed) discards every write
    // frame: its output may never reach disk. kRelease (success) unpins.
    enum class Rollback { kRelease, kAcquireFailed, kKernelRan };
    std::vector<bool> is_write(na, false), created_write(na, false);
    auto rollback = [&](Rollback mode) {
      for (size_t ai = 0; ai < na; ++ai) {
        if (frames[ai] == nullptr) continue;
        const bool discard =
            (mode == Rollback::kAcquireFailed && created_write[ai]) ||
            (mode == Rollback::kKernelRan && is_write[ai]);
        if (discard) {
          pool_.Discard(frames[ai], account_);
        } else {
          pool_.Unpin(frames[ai], account_);
        }
        frames[ai] = nullptr;
      }
    };

    // Acquisition: pin every frame before any retention or kernel side
    // effect, so a memory-starved attempt can roll back to nothing and be
    // retried safely, in the issue policy's acquire order.
    std::vector<std::pair<AcquireRank, uint32_t>> acquire_order;
    acquire_order.reserve(rec_end - rec_begin);
    {
      MutexLock l(&pf_.mu);
      for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
        const BlockAccessRecord& rec = script_.records[ri];
        acquire_order.emplace_back(
            RankAcquire(rec.type == AccessType::kWrite, InFlight(rec),
                        [&] {
                          return session_ != nullptr &&
                                 pool_.InPrefetch(Pid(rec.array_id),
                                                  rec.block);
                        }),
            ri);
      }
    }
    std::sort(acquire_order.begin(), acquire_order.end());
    for (const auto& [rank, ri] : acquire_order) {
      const BlockAccessRecord& rec = script_.records[ri];
      bool created = false;
      auto f = Acquire(rec, ws, &created);
      if (!f.ok()) {
        rollback(Rollback::kAcquireFailed);
        return f.status();
      }
      const size_t ai = static_cast<size_t>(rec.access_idx);
      frames[ai] = *f;
      is_write[ai] = rec.type == AccessType::kWrite;
      created_write[ai] = created && is_write[ai];
      const ArrayInfo& arr = ex_.prog_.array(rec.array_id);
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
      const BlockAccessRecord& rec = script_.records[ri];
      if (rec.retain_until_group >= 0) {
        pool_.Retain(frames[static_cast<size_t>(rec.access_idx)],
                     rec.retain_until_group, account_);
      }
    }

    // Compute.
    {
      const auto t0 = Clock::now();
      ex_.kernels_[static_cast<size_t>(inst.stmt_id)](inst.iter, view_ptrs);
      ws.compute_seconds += Since(t0);
    }

    // Write-out (write-through keeps every unretained frame == disk). A
    // saved write stays in memory only: its retention (set above) keeps it
    // for the reads that consume it.
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script_.records[ri];
      if (rec.type != AccessType::kWrite || rec.saved) continue;
      const size_t ai = static_cast<size_t>(rec.access_idx);
      if (frames[ai] == nullptr) continue;
      BlockStore* store = ex_.stores_[static_cast<size_t>(rec.array_id)];
      // Write-behind unless the write extends its store (the I/O workers
      // never allocate; see storage/io_pool.h) or another holder also pins
      // the frame (then it may still be mutating it): those are written
      // now, as at depth 0.
      const int own_pins = static_cast<int>(
          std::count(frames.begin(), frames.end(), frames[ai]));
      if (!(io_ != nullptr && store->HasBlock(rec.block) &&
            pool_.WriteThroughAsync(frames[ai], own_pins, store, io_,
                                    io_channel_, &ledger_))) {
        Status wst = TimedStoreOp(&ws.io_seconds, [&] {
          return store->WriteBlock(frames[ai]->block, frames[ai]->data.data());
        });
        if (!wst.ok()) {
          rollback(Rollback::kKernelRan);
          return wst;
        }
      }
      ws.bytes_written += rec.bytes;
      ++ws.block_writes;
    }

    // Measure the requirement while the instance's frames are still
    // pinned, then release them. A session reports its own charged bytes
    // (the shared pool's global requirement mixes tenants).
    AtomicMax(&peak_required_,
              account_ != nullptr
                  ? account_->peak_charged_bytes.load(std::memory_order_relaxed)
                  : pool_.PinnedOrRetainedBytes());
    rollback(Rollback::kRelease);  // release pins; retentions persist
    return Status::OK();
  }

  // Retries an instance through memory pressure. Non-frontier instances
  // report back to be parked; the frontier instance waits for the world to
  // drain and only errors once it is provably alone and still starved.
  Outcome ExecInstance(size_t pos, ExecStats& ws) EXCLUDES(sc_.mu) {
    bool retried_alone = false;
    for (;;) {
      Status st = TryExecOnce(pos, ws);
      if (st.ok()) return Outcome::kDone;
      if (st.code() != StatusCode::kResourceExhausted || aborting_.load()) {
        FailRun(st);
        return Outcome::kFailed;
      }
      UniqueMutexLock sl(&sc_.mu);
      if (sc_.failed) return Outcome::kFailed;
      if (pos != sc_.frontier) return Outcome::kPark;
      if (sc_.running == 1) {
        if (retried_alone) {
          sl.Unlock();
          FailRun(st);
          return Outcome::kFailed;
        }
        retried_alone = true;  // one clean retry with the machine drained
        continue;
      }
      retried_alone = false;
      const uint64_t epoch = sc_.progress_epoch;
      while (!(sc_.failed || sc_.running == 1 || sc_.progress_epoch != epoch)) {
        sc_.cv.Wait(sl);
      }
      if (sc_.failed) return Outcome::kFailed;
    }
  }

  // ------------------------------------------------------------- workers
  // Pops the smallest ready position, runs it, and publishes its
  // completion: frontier, replacement clock, retentions of finished groups,
  // and the successors it readies — its DAG successors at N workers, the
  // next position at one.
  void Worker(int wid) EXCLUDES(sc_.mu) {
    ExecStats& ws = worker_stats_[static_cast<size_t>(wid)];
    UniqueMutexLock sl(&sc_.mu);
    for (;;) {
      while (!(sc_.failed || !sc_.ready.empty() || sc_.n_done == n_)) {
        sc_.cv.Wait(sl);
      }
      if (sc_.failed || sc_.n_done == n_) return;
      const size_t pos = sc_.ready.top();
      sc_.ready.pop();
      ++sc_.running;
      sc_.max_width = std::max(
          sc_.max_width, static_cast<int64_t>(sc_.running + sc_.ready.size()));
      sl.Unlock();

      dispatched_[pos].store(true);
      if (io_ != nullptr) AdvancePrefetcher(pos);
      const Outcome oc = ExecInstance(pos, ws);

      sl.Lock();
      --sc_.running;
      ++sc_.progress_epoch;
      if (oc == Outcome::kDone) {
        completed_[pos].store(true);
        ++sc_.n_done;
        const size_t old_frontier = sc_.frontier;
        while (sc_.frontier < n_ && completed_[sc_.frontier].load()) {
          ++sc_.frontier;
        }
        pos_frontier_.store(sc_.frontier);
        if (schedule_policy_ && sc_.frontier != old_frontier) {
          // Pool lock nests inside sc_.mu here; pool code never takes
          // sc_.mu, so the order is acyclic.
          pool_.AdvanceReplacementClock(bound_uses_,
                                        static_cast<int64_t>(sc_.frontier));
        }
        const size_t g = script_.group_of[pos];
        if (--sc_.group_left[g] == 0) {
          size_t gf = group_frontier_.load();
          while (gf < script_.num_groups && sc_.group_left[gf] == 0) ++gf;
          if (gf != group_frontier_.load()) {
            group_frontier_.store(gf);
            pool_.ReleaseRetainedBefore(static_cast<int64_t>(gf), account_);
          }
        }
        if (dag_ != nullptr) {
          for (uint32_t s : dag_->succ[pos]) {
            if (--sc_.pred_left[s] == 0) sc_.ready.push(s);
          }
        } else if (pos + 1 < n_) {
          sc_.ready.push(pos + 1);
        }
        for (size_t p : sc_.parked) sc_.ready.push(p);
        sc_.parked.clear();
      } else if (oc == Outcome::kPark) {
        sc_.parked.push_back(pos);
        // Parked instances are normally re-queued by the next completion —
        // but that completion may have happened in the window between
        // ExecInstance dropping sc_.mu and this re-lock. If this instance
        // has meanwhile become the frontier, or nothing is left running to
        // produce a future completion, re-queue immediately or the run
        // would strand with work parked and every worker asleep.
        if (pos == sc_.frontier || sc_.running == 0) {
          for (size_t p : sc_.parked) sc_.ready.push(p);
          sc_.parked.clear();
        }
      }
      // kFailed: FailRun already recorded it; fall through and let every
      // worker observe sc_.failed.
      sc_.cv.NotifyAll();
    }
  }

  // Cleanup, on success and error: cancel every prefetch still in flight,
  // land every write-through, join the I/O workers and release every
  // retention this run created, so even an error leaves the pool clean (the
  // shared_pool contract). A session's shared IoPool needs no drain beyond
  // the cancel loop and reports worker time runtime-wide.
  Result<ExecStats> Finish() {
    Status run_status;
    {
      MutexLock lock(&sc_.mu);  // workers are joined; lock for the analysis
      if (sc_.failed) run_status = sc_.error;
      if (dag_ != nullptr) stats_.max_ready_width = sc_.max_width;
    }
    {
      UniqueMutexLock pl(&pf_.mu);
      while (CancelOne(pl)) {
      }
      stats_.prefetch_wasted = pf_.wasted;
      stats_.bytes_read += pf_.wasted_bytes;
      stats_.block_reads += pf_.wasted_reads;
    }
    if (io_ != nullptr) {
      // A failed write is the root cause of whatever the run tripped over
      // afterwards (a poisoned block, a discarded frame), so it wins.
      Status wt = pool_.DrainWriteThroughs(&ledger_);
      if (!wt.ok()) run_status = wt;
      stats_.write_behind_peak_bytes = ledger_.peak_held_bytes.load();
    }
    if (owned_io_ != nullptr) {
      stats_.io_seconds +=
          owned_io_->read_seconds() + owned_io_->write_seconds();
      owned_io_.reset();  // joins the workers
    }
    pool_.ReleaseRetainedBefore(std::numeric_limits<int64_t>::max(), account_);
    // Saved/elided writes legitimately leave frame contents different from
    // disk; such frames must not outlive the run as apparently clean cache
    // in a shared pool.
    for (const BlockAccessRecord& rec : script_.records) {
      if (rec.type == AccessType::kWrite && rec.saved) {
        pool_.Drop(Pid(rec.array_id), rec.block);
      }
    }
    if (schedule_policy_) pool_.UnbindUsePlan(bound_uses_);
    stats_.peak_required_bytes = peak_required_.load();
    // Snapshot the session ledger, then sever the pool's references to it: a
    // shared frame another tenant still holds required would otherwise keep
    // pointing at this (caller-stack) account past the run.
    if (account_ != nullptr) {
      stats_.peak_required_bytes = std::max(
          stats_.peak_required_bytes,
          account_->peak_charged_bytes.load(std::memory_order_relaxed));
      pool_.DetachAccount(account_);
    }
    if (!run_status.ok()) return run_status;
    for (const ExecStats& ws : worker_stats_) AddWorkerCounters(ws, &stats_);
    stats_.pool = DiffPoolStats(pool_.stats(), pool_stats0_);
    stats_.wall_seconds = Since(wall0_);
    stats_.overlap_seconds = std::max(
        0.0, stats_.io_seconds + stats_.compute_seconds - stats_.wall_seconds);
    stats_.compute_overlap_seconds =
        std::max(0.0, stats_.compute_seconds - stats_.wall_seconds);
    return stats_;
  }

  const Executor& ex_;
  const ExecOptions& opts_;
  const AccessScript script_;
  const size_t n_;
  const Clock::time_point wall0_;
  const bool opportunistic_;
  const SessionBinding* const session_;
  // The session's budget ledger; nullptr in solo runs.
  PoolAccount* const account_;
  const int nworkers_;
  const std::unique_ptr<const InstanceDag> dag_;  // N workers only
  const bool serve_resident_;
  BufferPool local_pool_;
  BufferPool& pool_;
  BufferPoolStats pool_stats0_;
  const bool schedule_policy_;
  std::shared_ptr<const BlockUseMap> bound_uses_;
  ExecStats stats_;
  const int depth_;
  // Declared after the pools: joins its workers before frames die.
  std::unique_ptr<IoPool> owned_io_;
  IoPool* io_ = nullptr;  // owned_io_, or the session's shared workers
  int io_channel_ = 0;
  // The plan's requirement per position, for the range charges of a solo
  // run; sessions charge their account and the runtime's headroom.
  std::unique_ptr<const RangeMax> required_max_;
  // This run's write-throughs in flight (write-behind): the pool keeps
  // each frame resident until its write lands, and its write barrier
  // orders later disk reads, prefetches and rewrites of the block after it.
  WriteThroughLedger ledger_;
  // Each kernel worker's counters, merged after the run.
  std::vector<ExecStats> worker_stats_;
  std::atomic<int64_t> peak_required_{0};
  std::atomic<bool> aborting_{false};
  // Dispatch and completion flags (value-initialized to false), read by the
  // prefetcher without the scheduler lock.
  std::vector<std::atomic<bool>> dispatched_, completed_;
  // Smallest incomplete position and its group, published for the
  // prefetcher.
  std::atomic<size_t> pos_frontier_{0}, group_frontier_{0};

  // The prefetcher's state, all of it under mu. Consumers also hold mu
  // across their pending-table check *and* the subsequent pool Fetch, so
  // the prefetcher can never slip a kPrefetching frame under a consumer
  // between the two.
  struct {
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
    // Canceled prefetches; the successful ones still read the disk.
    int64_t wasted GUARDED_BY(mu) = 0;
    int64_t wasted_reads GUARDED_BY(mu) = 0;
    int64_t wasted_bytes GUARDED_BY(mu) = 0;
  } pf_;

  // The scheduler's state.
  struct {
    Mutex mu;
    CondVar cv;
    // Smallest scheduled position first.
    std::priority_queue<size_t, std::vector<size_t>, std::greater<size_t>>
        ready GUARDED_BY(mu);
    // Memory-starved; re-queued on progress.
    std::vector<size_t> parked GUARDED_BY(mu);
    // DAG in-degrees left (N workers only).
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
  } sc_;
};

Result<ExecStats> Executor::Run(const Schedule& schedule,
                                const std::vector<const CoAccess*>& realized) {
  RIOT_RETURN_NOT_OK(lint_status_);
  const auto wall0 = Clock::now();
  // Under the opportunistic-cache ablation the plan's sharing set is
  // deliberately ignored: no saved reads, no retention obligations. A
  // malformed schedule or map is an error here, before any store is
  // touched.
  auto lowered = LowerPlan(prog_, schedule,
                           opts_.mode == ExecMode::kOpportunisticCache
                               ? std::vector<const CoAccess*>{}
                               : realized);
  RIOT_RETURN_NOT_OK(lowered.status());
  return Execution(*this, std::move(lowered).ValueOrDie(), wall0).Run();
}

}  // namespace riot
