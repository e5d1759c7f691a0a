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
// The engine. Every run, at any worker count, executes statement instances
// through one instance step (pin all of the instance's frames, apply
// retentions, run the kernel, write out, record the peak, unpin), one
// fetch-under-pressure loop and one prefetcher. At depth >= 1 the
// prefetcher issues two kinds of reads through one pending table, adopted
// the same way and canceled the same way on error:
//   * lookahead — reads of instances not yet dispatched, each charged
//     beside the plan's largest requirement over the positions its frame
//     waits through (a session's to the runtime's headroom instead);
//   * fan-out — when an instance is dispatched, its disk reads other than
//     the one its consumer reads first, charged inside the instance's own
//     requirement R(pos): they are frames R(pos) already counts, so they
//     need no memory beyond what the plan requires. A solo run charges
//     them against the cap beside R(pos); a session charges them to its
//     account, whose budget admission reserved.
// The instance step acquires the reads nobody has issued first, so the
// consumer's own reads run while the fanned-out and lookahead ones are in
// flight, then the reads in flight, then the writes.
// The worker count changes only how the next instance is picked:
//   * one worker: the next position of the script's order, on the calling
//     thread. No dependence DAG is built and no thread is spawned; the
//     order is a linear extension of the DAG, so this is the DAG
//     dispatch's special case and the reference semantics every worker
//     count reproduces bit-for-bit;
//   * N workers: the access script is lifted to the statement-instance
//     DAG (BuildInstanceDag) and N threads pop the smallest ready position.
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
// Memory pressure never deadlocks: a starved instance releases everything
// it pinned and parks; the frontier instance (smallest incomplete position
// — always dispatchable, since edges only point forward) retries once
// alone, and only then is ResourceExhausted real.
// ---------------------------------------------------------------------------
Result<ExecStats> Executor::Run(const Schedule& schedule,
                                const std::vector<const CoAccess*>& realized) {
  RIOT_RETURN_NOT_OK(lint_status_);
  auto wall0 = std::chrono::steady_clock::now();
  const bool opportunistic = opts_.mode == ExecMode::kOpportunisticCache;
  const SessionBinding* session = opts_.session;
  // Under the opportunistic-cache ablation the plan's sharing set is
  // deliberately ignored: no saved reads, no retention obligations.
  // A malformed schedule or map is an error here, before any store is
  // touched.
  auto lowered = LowerPlan(
      prog_, schedule,
      opportunistic ? std::vector<const CoAccess*>{} : realized);
  RIOT_RETURN_NOT_OK(lowered.status());
  const AccessScript script = std::move(lowered).ValueOrDie();
  const size_t n = script.order.size();
  // The ablation is defined against the serial reference order, and
  // session runs are serial by contract (the sessions themselves are the
  // parallelism).
  const int nworkers =
      session != nullptr || opportunistic
          ? 1
          : static_cast<int>(std::min<size_t>(
                static_cast<size_t>(std::max(1, opts_.exec_threads)),
                std::max<size_t>(1, n)));
  std::unique_ptr<const InstanceDag> dag;
  if (nworkers > 1) {
    dag = std::make_unique<const InstanceDag>(BuildInstanceDag(script));
  }
  RIOT_RETURN_NOT_OK(LintLoweredPlan(script, dag.get()));
  // The read rule. A non-saved read of a resident block is served from
  // memory whenever another thread may hold that frame — another worker,
  // or another tenant of a shared pool: re-reading disk into a frame
  // someone else is reading would be a data race. Write-through keeps
  // every clean frame equal to disk, so outputs are unchanged; I/O counts
  // may come in under the cost model's prediction, and the replacement
  // policy gets the credit (policy_saved_reads). The ablation serves any
  // resident block by definition. A one-worker solo plan-exact run reads
  // the plan's read set from disk even on a pool hit (Section 5.3: a
  // schedule may "accidentally" enable more sharing, but generated code
  // exploits exactly Q), so it stays exact against EvaluatePlanCost.
  const bool serve_resident =
      opportunistic || session != nullptr || nworkers > 1;

  BufferPool local_pool(opts_.memory_cap_bytes,
                        MakeReplacementPolicy(opts_.replacement));
  BufferPool& pool = opts_.shared_pool != nullptr ? *opts_.shared_pool
                                                  : local_pool;
  const BufferPoolStats pool_stats0 = pool.stats();

  // ------------------------------------------------ multi-tenant context
  // A session run translates array ids into the shared pool's namespace,
  // charges its budget account, and dedupes reads across sessions;
  // everything degrades to the identity for solo runs.
  PoolAccount* account = session != nullptr ? session->account : nullptr;
  auto pid = [session](int array_id) {
    return session != nullptr && !session->pool_array_ids.empty()
               ? session->pool_array_ids[static_cast<size_t>(array_id)]
               : array_id;
  };

  // Belady-style replacement needs the plan's future: bind every block's
  // use positions and advance the policy clock by the completed frontier
  // (smallest incomplete position) — a linear extension of the DAG, so a
  // use is never declared past while its instance can still run. Binds
  // nest across sessions; with several tenants bound at once the policy
  // merges every plan's future uses into one normalized timeline (see
  // storage/replacement.h).
  const bool schedule_policy =
      pool.replacement_kind() == ReplacementKind::kScheduleOpt;
  std::shared_ptr<const BlockUseMap> bound_uses;
  if (schedule_policy) {
    auto uses = std::make_shared<BlockUseMap>();
    for (const auto& [key, positions] : script.block_uses) {
      (*uses)[{pid(key.first), key.second}] = positions;
    }
    bound_uses = std::move(uses);
    pool.BindUsePlan(bound_uses);
  }
  ExecStats stats;
  if (dag != nullptr) {
    stats.parallel_groups = static_cast<int64_t>(dag->critical_path);
  }

  // ------------------------------------------------------- I/O pipeline
  // The prefetcher walks the access script up to `depth` groups ahead of
  // the completed frontier, reserving kPrefetching frames and handing the
  // reads to the I/O pool; write-throughs go behind the kernels to the
  // same workers. Depth 0 keeps all of this dormant and the engine is the
  // synchronous interpreter. Opportunistic mode has no trusted access
  // plan, so it never prefetches.
  const int depth = opportunistic ? 0 : std::max(0, opts_.pipeline_depth);
  std::unique_ptr<IoPool> owned_io;  // declared after `pool`: joins before
                                     // frames die
  IoPool* io = nullptr;  // owned_io.get(), or the session's shared workers
  int io_channel = 0;
  // Solo runs: the plan's requirement over the positions each prefetch
  // spans, charged against the budget per issue (see try_lookahead_locked
  // and fan_out_locked). Sessions charge fan-out to their account and
  // lookahead to the runtime's headroom.
  std::unique_ptr<const RangeMax> required_max;
  if (depth > 0) {
    if (session != nullptr && session->io != nullptr) {
      // Shared I/O workers: submit on the session's channel; the
      // pool-wide prefetch budget belongs to the runtime.
      io = session->io;
      io_channel = session->io_channel;
    } else {
      owned_io = std::make_unique<IoPool>(std::max(1, opts_.io_threads));
      io = owned_io.get();
      // The cap less the other workers' instance footprints. Each issue
      // then charges the plan's largest requirement over the positions
      // its frame spans, so lookahead never displaces anything the plan
      // needs, and at one worker the consumer never has to cancel a
      // prefetch (it waits out in-flight writes instead).
      pool.SetPrefetchBudget(std::max<int64_t>(
          0, pool.cap_bytes() - static_cast<int64_t>(nworkers - 1) *
                                    script.max_instance_bytes));
      required_max = std::make_unique<const RangeMax>(script.required_bytes);
    }
  }
  // Write-behind: with an I/O pool each non-saved write goes to the
  // workers instead of blocking its kernel worker. The pool keeps the frame
  // resident until the write lands (inside the cap, outside the required
  // bytes), lists this run's writes in `ledger`, and its write barrier
  // orders every later disk read, prefetch or rewrite of the block after
  // the write.
  WriteThroughLedger ledger;

  // Per-worker counters, merged after the run.
  struct WorkerStats {
    int64_t bytes_read = 0, bytes_written = 0;
    int64_t block_reads = 0, block_writes = 0;
    int64_t prefetch_hits = 0, policy_saved_reads = 0, session_parks = 0;
    double io_seconds = 0.0, compute_seconds = 0.0;
    double session_park_seconds = 0.0;
  };
  std::vector<WorkerStats> worker_stats(static_cast<size_t>(nworkers));
  std::atomic<int64_t> peak_required{0};
  std::atomic<bool> aborting{false};

  // Dispatch and completion flags (value-initialized to false), read by
  // the prefetcher without the scheduler lock.
  std::vector<std::atomic<bool>> dispatched(n), completed(n);
  // Smallest incomplete position and its group, published for the
  // prefetcher.
  std::atomic<size_t> pos_frontier{0}, group_frontier{0};

  // ----------------------------------------------------- prefetcher state
  // All of it lives under pf.mu. Consumers also hold pf.mu across their
  // pending-table check *and* the subsequent pool Fetch, so the prefetcher
  // can never slip a kPrefetching frame under a consumer between the two.
  using Key = std::pair<int, int64_t>;  // (pool array id, linear block)
  struct Pending {
    BufferPool::Frame* frame = nullptr;
    bool done = false;
    Status status;
    // Charged to the session account at issue (a session's fan-out read).
    bool charged = false;
  };
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
    // Canceled prefetches; the successful ones still read the disk.
    int64_t wasted GUARDED_BY(mu) = 0;
    int64_t wasted_reads GUARDED_BY(mu) = 0;
    int64_t wasted_bytes GUARDED_BY(mu) = 0;
  } pf;

  // ------------------------------------------------------ scheduler state
  struct Sched {
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
  } sc;
  {
    MutexLock lock(&sc.mu);  // no worker runs yet; lock for the analysis
    sc.group_left.assign(script.num_groups, 0);
    for (size_t p = 0; p < n; ++p) ++sc.group_left[script.group_of[p]];
    if (dag != nullptr) {
      sc.pred_left = dag->pred_count;
      for (size_t p = 0; p < n; ++p) {
        if (dag->pred_count[p] == 0) sc.ready.push(p);
      }
    } else if (n > 0) {
      sc.ready.push(0);
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
    pf.cv.NotifyAll();
  };

  // A synchronous store call on a kernel worker, timed into its I/O
  // seconds. It may overlap other workers' and the I/O pool's calls on the
  // same store (never on the same block).
  auto sync_store_op = [&](double* io_seconds, auto&& op) -> Status {
    auto t0 = std::chrono::steady_clock::now();
    Status st = op();
    *io_seconds += Since(t0);
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
        IoPool::Completion c = io->WaitCompletion(io_channel);
        l.Lock();
        pf.draining = false;
        resolve_completion_locked(std::move(c));
        pf.cv.NotifyAll();
      } else {
        pf.cv.Wait(l);
      }
    }
  };

  // Cancels the issued-but-unconsumed prefetch for `key`: waits for its
  // I/O, drops the frame, and accounts the disk read that already
  // happened. False when the entry vanished before this thread could.
  auto cancel_key_locked = [&](UniqueMutexLock& l, const Key& key)
      NO_THREAD_SAFETY_ANALYSIS -> bool {
    Pending* p = wait_pending_locked(l, key);
    if (p == nullptr) return false;
    if (p->status.ok()) {
      pf.wasted_bytes += static_cast<int64_t>(p->frame->data.size());
      ++pf.wasted_reads;
    }
    pool.AbandonPrefetch(p->frame);
    ++pf.wasted;
    pf.pending.erase(key);
    return true;
  };

  // Cancels one outstanding prefetch (most recently issued first) to
  // relieve memory pressure; false when none remain.
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

  // Issues an asynchronous read for one non-saved read record, charging
  // `required` next to the lookahead, or the frame itself to `charge` (see
  // TryStartPrefetch). A record whose producing write (dep_pos) has not
  // completed — reading disk now would observe stale data — is
  // dep-blocked. A pool decline for room/budget is kNoRoom.
  enum class Issue { kHandled, kDepBlocked, kNoRoom };
  auto try_issue_locked = [&](const BlockAccessRecord& rec, int64_t required,
                              PoolAccount* charge)
      NO_THREAD_SAFETY_ANALYSIS -> Issue {
    if (rec.dep_pos >= 0 &&
        !completed[static_cast<size_t>(rec.dep_pos)].load()) {
      return Issue::kDepBlocked;
    }
    const Key key{pid(rec.array_id), rec.block};
    if (pf.pending.count(key) > 0) {
      return Issue::kHandled;  // one in-flight read per block is enough
    }
    if (serve_resident && pool.Probe(key.first, rec.block) != nullptr) {
      // Served from memory by the read rule; reading it from disk ahead
      // of time would only add I/O.
      return Issue::kHandled;
    }
    BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
    BufferPool::Frame* f = pool.TryStartPrefetch(key.first, rec.block,
                                                 rec.bytes, required, charge);
    if (f == nullptr) {
      if (pool.WriteInFlight(key.first, rec.block)) {
        return Issue::kDepBlocked;  // the producing write has not landed
      }
      if (pool.Probe(key.first, rec.block) != nullptr) {
        return Issue::kHandled;  // resident; a consumer serves it directly
      }
      return Issue::kNoRoom;
    }
    uint64_t tag = pf.next_tag++;
    pf.key_of_tag[tag] = key;
    pf.pending.emplace(key, Pending{f, false, Status::OK(), charge != nullptr});
    pf.issue_order.push_back(key);
    io->ReadBlockAsync(store, rec.block, f->data.data(), tag, io_channel);
    return Issue::kHandled;
  };

  // Lookahead for an instance not yet dispatched (a dispatched one's reads
  // were fanned out at its dispatch or are its consumer's). The frame
  // stays lookahead while positions [frontier, rec.pos) run, so the plan's
  // largest requirement among them must fit beside it. Every frame the plan
  // pins or retains there is part of that requirement, so at one worker
  // the bound is exact: lookahead plus the requirement never exceeds the
  // cap. Dep-blocked records are deferred and retried as the frontier
  // moves; a decline for room pauses issuance until consumers free frames
  // or the frontier passes the positions whose requirement left no room.
  auto try_lookahead_locked =
      [&](const BlockAccessRecord& rec) NO_THREAD_SAFETY_ANALYSIS -> Issue {
    if (dispatched[rec.pos].load()) return Issue::kHandled;
    return try_issue_locked(
        rec,
        required_max != nullptr
            ? required_max->Max(pos_frontier.load(), rec.pos)
            : 0,
        nullptr);
  };

  // Instance read fan-out (see the engine comment above). The consumer
  // keeps the instance's first disk read nobody has issued; every other
  // one is issued now. A solo run charges it inside R(pos) as R(pos) less
  // the instance's reads in flight (itself included), and beside the
  // requirement of earlier positions still running; outstanding lookahead
  // was admitted beside R(pos), so this needs no memory the plan does not
  // require. A session charges it to its account, inside the footprint
  // admission reserved. A read that is dep-blocked or finds no room stays
  // with the consumer, as at depth 0.
  auto fan_out_locked = [&](size_t pos) NO_THREAD_SAFETY_ANALYSIS {
    const uint32_t rec_begin = script.per_pos[pos].first;
    const uint32_t rec_end = script.per_pos[pos].second;
    // The instance's distinct disk reads: a block read twice is one frame.
    auto distinct_read = [&](uint32_t ri) {
      const BlockAccessRecord& rec = script.records[ri];
      if (rec.type != AccessType::kRead || rec.saved) return false;
      for (uint32_t j = rec_begin; j < ri; ++j) {
        const BlockAccessRecord& o = script.records[j];
        if (o.type == AccessType::kRead && !o.saved &&
            o.array_id == rec.array_id && o.block == rec.block) {
          return false;
        }
      }
      return true;
    };
    int64_t own = 0;  // bytes of the instance's reads in flight
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script.records[ri];
      if (distinct_read(ri) &&
          pf.pending.count({pid(rec.array_id), rec.block}) > 0) {
        own += rec.bytes;
      }
    }
    const int64_t earlier =
        required_max != nullptr ? required_max->Max(pos_frontier.load(), pos)
                                : 0;
    bool consumer_read = false;
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script.records[ri];
      const Key key{pid(rec.array_id), rec.block};
      if (!distinct_read(ri) || pf.pending.count(key) > 0) continue;
      if (serve_resident && pool.Probe(key.first, rec.block) != nullptr) {
        continue;  // served from memory, not a disk read
      }
      if (!consumer_read) {
        consumer_read = true;
        continue;
      }
      const int64_t required = std::max(
          earlier, script.required_bytes[pos] - own - rec.bytes);
      try_issue_locked(rec, required, account);
      if (pf.pending.count(key) > 0) own += rec.bytes;
    }
  };

  // Fans out the instance just dispatched at `pos`, then walks the script
  // up to `depth` groups past the group frontier (smallest group with an
  // incomplete instance). At one worker that is exactly the group of the
  // instance about to run.
  auto advance_prefetcher = [&](size_t pos) {
    MutexLock l(&pf.mu);
    fan_out_locked(pos);
    for (auto it = pf.deferred.begin(); it != pf.deferred.end();) {
      Issue res = try_lookahead_locked(script.records[*it]);
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
        ++pf.cursor;  // writes and saved reads never touch disk ahead
        continue;
      }
      Issue res = try_lookahead_locked(rec);
      if (res == Issue::kNoRoom) break;
      if (res == Issue::kDepBlocked) pf.deferred.push_back(pf.cursor);
      ++pf.cursor;
    }
  };

  // --- frame acquisition --------------------------------------------------
  // Returns the pinned frame for one record, loaded for reads, bare for
  // write targets. `created` reports whether this call created the frame
  // (pool miss) rather than pinning a resident one — rollback may discard
  // only frames the attempt itself created. A kResourceExhausted status is
  // retryable (the caller rolls back and parks); anything else is
  // terminal.
  auto acquire = [&](const BlockAccessRecord& rec, WorkerStats& ws,
                     bool* created) -> Result<BufferPool::Frame*> {
    *created = false;
    if (aborting.load()) return Status::Internal("aborted: concurrent failure");
    const Statement& st = prog_.statement(rec.stmt_id);
    BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
    const Key key{pid(rec.array_id), rec.block};
    const bool is_read = rec.type == AccessType::kRead;
    // A one-worker plan-exact run reads a non-saved block from disk even
    // when it is resident (the read rule above).
    const bool reread = is_read && !rec.saved && !serve_resident;
    BufferPool::Frame* frame = nullptr;
    bool resident = false;
    {
      UniqueMutexLock pl(&pf.mu);
      double parked = 0.0;
      double backoff = 0.0005;
      for (;;) {
        // Checked on every pass: the pressure relief below may drop pf.mu,
        // and the Fetch must never meet this run's own prefetch.
        auto pending = pf.pending.find(key);
        if (pending != pf.pending.end()) {
          if (is_read && !rec.saved &&
              (account == nullptr || pending->second.charged ||
               account->charged_bytes.load() + rec.bytes <=
                   account->budget_bytes)) {
            // The prefetcher issued this very disk read; adopt its frame
            // (only if the session budget admits it or the frame was
            // charged at issue — adoption itself never refuses, so an
            // over-budget adoption cancels the prefetch and takes the
            // parking fetch below). A racing consumer may have resolved
            // it first; then the block is served through the regular
            // fetch.
            Pending* p = wait_pending_locked(pl, key);
            if (p != nullptr) {
              if (!p->status.ok()) return p->status;
              BufferPool::Frame* adopted =
                  pool.AdoptPrefetched(p->frame, account);
              pf.pending.erase(key);
              ++ws.prefetch_hits;
              ws.bytes_read += rec.bytes;
              ++ws.block_reads;
              return adopted;
            }
          } else {
            // Any other access colliding with an in-flight prefetch
            // resolves it first (defensive; dependence gating makes this
            // unreachable for writes).
            cancel_key_locked(pl, key);
          }
          continue;
        }
        const int64_t landed = ledger.landed.load();
        auto f = pool.Fetch(key.first, rec.block, rec.bytes, &resident,
                            account, /*coalesce_loads=*/true);
        if (f.ok()) {
          frame = *f;
          break;
        }
        if (f.status().code() != StatusCode::kResourceExhausted) {
          return f.status();
        }
        // Memory pressure; the consumer wins over lookahead. This run's
        // oldest write frees its frame in bounded time (one that landed
        // since the Fetch already has), then lookahead is canceled.
        // Session runs additionally park-and-retry — another tenant's
        // transient pressure (its lookahead, a not-yet-released
        // retention) resolves as that tenant progresses — and only give
        // up after the binding's park timeout.
        RIOT_RETURN_NOT_OK(pool.AwaitOldestWrite(&ledger));
        if (ledger.landed.load() != landed) continue;
        if (cancel_one_locked(pl)) continue;
        if (session == nullptr || parked >= session->park_timeout_seconds) {
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
    if (resident && (reread || !is_read) && io != nullptr) {
      // This caller overwrites the pinned frame: a write submitted before
      // the pin lands first, and one submitted after it sees the pin and
      // is written synchronously (WriteThroughAsync).
      Status wst = pool.AwaitWrite(key.first, rec.block);
      if (!wst.ok()) {
        pool.Unpin(frame, account);
        return wst;
      }
    }
    if (!is_read) {
      // Write target: nothing fills a created frame. A guarded read access
      // of the same block (accumulation) was fetched first if live.
      if (!resident) pool.MarkLoaded(frame);
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
      pool.Discard(frame, account);
      return Status::Internal("saved read not in memory: " + st.name +
                              " access " + std::to_string(rec.access_idx) +
                              " (plan/realization bug)");
    }
    Status rst = sync_store_op(&ws.io_seconds, [&] {
      return store->ReadBlock(rec.block, frame->data.data());
    });
    if (!rst.ok()) {
      // Fail the run *before* discarding, so coalesced waiters on this
      // garbage frame unwind behind this error; the frame must not linger
      // as apparently clean cache (shared_pool reuse).
      fail_run(rst);
      pool.Discard(frame, account);
      return rst;
    }
    if (!resident) pool.MarkLoaded(frame);
    ws.bytes_read += rec.bytes;
    ++ws.block_reads;
    return frame;
  };

  // --- one execution attempt of one instance ------------------------------
  auto try_exec_once = [&](size_t pos, WorkerStats& ws) -> Status {
    // A failed write-behind ends the run; the cleanup's drain reports it
    // as the run's status.
    if (ledger.failed.load()) return Status::IoError("write-through failed");
    const auto& inst = script.order[pos];
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
          pool.Discard(frames[ai], account);
        } else {
          pool.Unpin(frames[ai], account);
        }
        frames[ai] = nullptr;
      }
    };

    // Acquisition: pin every frame before any retention or kernel side
    // effect, so a memory-starved attempt can roll back to nothing and be
    // retried safely. Reads nobody has issued come first: the consumer
    // reads them while this run's fan-out and lookahead reads are in
    // flight. Then those reads; then, in a session, blocks in another
    // tenant's prefetch — waited for only once this run has adopted its
    // own, so two tenants never wait on each other's fan-out; writes last
    // (a read may populate the frame the write access aliases).
    std::vector<std::pair<int, uint32_t>> acquire_order;
    acquire_order.reserve(rec_end - rec_begin);
    {
      MutexLock l(&pf.mu);
      for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
        const BlockAccessRecord& rec = script.records[ri];
        const Key key{pid(rec.array_id), rec.block};
        int rank = 0;
        if (rec.type == AccessType::kWrite) {
          rank = 3;
        } else if (pf.pending.count(key) > 0) {
          rank = 1;
        } else if (session != nullptr &&
                   pool.InPrefetch(key.first, key.second)) {
          rank = 2;
        }
        acquire_order.emplace_back(rank, ri);
      }
    }
    std::sort(acquire_order.begin(), acquire_order.end());
    for (const auto& [rank, ri] : acquire_order) {
      const BlockAccessRecord& rec = script.records[ri];
      bool created = false;
      auto f = acquire(rec, ws, &created);
      if (!f.ok()) {
        rollback(Rollback::kAcquireFailed);
        return f.status();
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
                    rec.retain_until_group, account);
      }
    }

    // Compute.
    {
      auto t0 = std::chrono::steady_clock::now();
      kernels_[static_cast<size_t>(inst.stmt_id)](inst.iter, view_ptrs);
      ws.compute_seconds += Since(t0);
    }

    // Write-out (write-through keeps every unretained frame == disk). A
    // saved write stays in memory only: its retention (set above) keeps it
    // for the reads that consume it.
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script.records[ri];
      if (rec.type != AccessType::kWrite) continue;
      const size_t ai = static_cast<size_t>(rec.access_idx);
      if (frames[ai] == nullptr) continue;
      if (!rec.saved) {
        BlockStore* store = stores_[static_cast<size_t>(rec.array_id)];
        // Write-behind unless the write extends its store (the I/O
        // workers never allocate; see storage/io_pool.h) or another holder
        // also pins the frame (then it may still be mutating it): those
        // are written now, as at depth 0.
        const int own_pins = static_cast<int>(
            std::count(frames.begin(), frames.end(), frames[ai]));
        if (!(io != nullptr && store->HasBlock(rec.block) &&
              pool.WriteThroughAsync(frames[ai], own_pins, store, io,
                                     io_channel, &ledger))) {
          Status wst = sync_store_op(&ws.io_seconds, [&] {
            return store->WriteBlock(frames[ai]->block,
                                     frames[ai]->data.data());
          });
          if (!wst.ok()) {
            rollback(Rollback::kKernelRan);
            return wst;
          }
        }
        ws.bytes_written += rec.bytes;
        ++ws.block_writes;
      }
    }

    // Measure the requirement while the instance's frames are still
    // pinned, then release them. A session reports its own charged bytes
    // (the shared pool's global requirement mixes tenants).
    AtomicMax(&peak_required,
              account != nullptr
                  ? account->peak_charged_bytes.load(std::memory_order_relaxed)
                  : pool.PinnedOrRetainedBytes());
    rollback(Rollback::kRelease);  // release pins; retentions persist
    return Status::OK();
  };

  // Retries an instance through memory pressure. Non-frontier instances
  // report back to be parked; the frontier instance waits for the world to
  // drain and only errors once it is provably alone and still starved.
  enum class Outcome { kDone, kPark, kFailed };
  auto exec_instance = [&](size_t pos, WorkerStats& ws) -> Outcome {
    bool retried_alone = false;
    for (;;) {
      Status st = try_exec_once(pos, ws);
      if (st.ok()) return Outcome::kDone;
      if (st.code() != StatusCode::kResourceExhausted || aborting.load()) {
        fail_run(st);
        return Outcome::kFailed;
      }
      UniqueMutexLock sl(&sc.mu);
      if (sc.failed) return Outcome::kFailed;
      if (pos != sc.frontier) return Outcome::kPark;
      if (sc.running == 1) {
        if (retried_alone) {
          sl.Unlock();
          fail_run(st);
          return Outcome::kFailed;
        }
        retried_alone = true;  // one clean retry with the machine drained
        continue;
      }
      retried_alone = false;
      uint64_t epoch = sc.progress_epoch;
      while (!(sc.failed || sc.running == 1 || sc.progress_epoch != epoch)) {
        sc.cv.Wait(sl);
      }
      if (sc.failed) return Outcome::kFailed;
    }
  };

  // ------------------------------------------------------------- workers
  // Pops the smallest ready position, runs it, and publishes its
  // completion: frontier, replacement clock, retentions of finished groups,
  // and the successors it readies — its DAG successors at N workers, the
  // next position at one.
  auto worker = [&](int wid) {
    WorkerStats& ws = worker_stats[static_cast<size_t>(wid)];
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
          sc.max_width, static_cast<int64_t>(sc.running + sc.ready.size()));
      sl.Unlock();

      dispatched[pos].store(true);
      if (io != nullptr) advance_prefetcher(pos);
      Outcome oc = exec_instance(pos, ws);

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
        pos_frontier.store(sc.frontier);
        if (schedule_policy && sc.frontier != old_frontier) {
          // Pool lock nests inside sc.mu here; pool code never takes
          // sc.mu, so the order is acyclic.
          pool.AdvanceReplacementClock(bound_uses,
                                       static_cast<int64_t>(sc.frontier));
        }
        const size_t g = script.group_of[pos];
        if (--sc.group_left[g] == 0) {
          size_t gf = group_frontier.load();
          while (gf < script.num_groups && sc.group_left[gf] == 0) ++gf;
          if (gf != group_frontier.load()) {
            group_frontier.store(gf);
            pool.ReleaseRetainedBefore(static_cast<int64_t>(gf), account);
          }
        }
        if (dag != nullptr) {
          for (uint32_t s : dag->succ[pos]) {
            if (--sc.pred_left[s] == 0) sc.ready.push(s);
          }
        } else if (pos + 1 < n) {
          sc.ready.push(pos + 1);
        }
        for (size_t p : sc.parked) sc.ready.push(p);
        sc.parked.clear();
      } else if (oc == Outcome::kPark) {
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
      // kFailed: fail_run already recorded it; fall through and let every
      // worker observe sc.failed.
      sc.cv.NotifyAll();
    }
  };

  if (nworkers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w) threads.emplace_back(worker, w);
    for (auto& t : threads) t.join();
  }

  // Cleanup (success and error): drain every in-flight prefetch (the
  // lookahead the plan ended ahead of, all of it on error) so no
  // kPrefetching frame survives this run, land every write-through, join
  // the I/O workers, and release every retention this run created — even
  // an error leaves `pool` clean (the shared_pool contract). A session's
  // shared IoPool needs no drain beyond the cancel loop (its channel is
  // then empty) and reports worker time runtime-wide, not here.
  Status run_status;
  {
    MutexLock lock(&sc.mu);  // workers are joined; lock for the analysis
    if (sc.failed) run_status = sc.error;
    if (dag != nullptr) stats.max_ready_width = sc.max_width;
  }
  {
    UniqueMutexLock pl(&pf.mu);
    while (cancel_one_locked(pl)) {
    }
    stats.prefetch_wasted = pf.wasted;
    stats.bytes_read += pf.wasted_bytes;
    stats.block_reads += pf.wasted_reads;
  }
  if (io != nullptr) {
    // A failed write is the root cause of whatever the run tripped over
    // afterwards (a poisoned block, a discarded frame), so it wins.
    Status wt = pool.DrainWriteThroughs(&ledger);
    if (!wt.ok()) run_status = wt;
    stats.write_behind_peak_bytes = ledger.peak_held_bytes.load();
  }
  if (owned_io != nullptr) {
    stats.io_seconds += owned_io->read_seconds() + owned_io->write_seconds();
    owned_io.reset();  // joins the workers
  }
  pool.ReleaseRetainedBefore(std::numeric_limits<int64_t>::max(), account);
  DropDivergentWrites(script, &pool, pid);
  if (schedule_policy) pool.UnbindUsePlan(bound_uses);
  stats.peak_required_bytes = peak_required.load();
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

  for (const WorkerStats& ws : worker_stats) {
    stats.bytes_read += ws.bytes_read;
    stats.bytes_written += ws.bytes_written;
    stats.block_reads += ws.block_reads;
    stats.block_writes += ws.block_writes;
    stats.prefetch_hits += ws.prefetch_hits;
    stats.policy_saved_reads += ws.policy_saved_reads;
    stats.session_parks += ws.session_parks;
    stats.session_park_seconds += ws.session_park_seconds;
    stats.io_seconds += ws.io_seconds;
    stats.compute_seconds += ws.compute_seconds;
  }
  stats.pool = DiffPoolStats(pool.stats(), pool_stats0);
  stats.wall_seconds = Since(wall0);
  stats.overlap_seconds = std::max(
      0.0, stats.io_seconds + stats.compute_seconds - stats.wall_seconds);
  stats.compute_overlap_seconds =
      std::max(0.0, stats.compute_seconds - stats.wall_seconds);
  return stats;
}

}  // namespace riot
