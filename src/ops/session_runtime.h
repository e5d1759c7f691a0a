// SessionRuntime: a multi-tenant execution layer that admits N concurrent
// program executions ("sessions") over ONE shared BufferPool and one
// shared IoPool — the leap from a per-run benchmark harness to a server
// runtime serving many programs against bounded buffer memory.
//
// What the runtime adds on top of a bare Executor with a shared_pool:
//
//   * Admission control — a session declares its plan footprint (the cost
//     model's exact peak requirement by default) and is admitted only
//     when the sum of admitted footprints fits the pool cap. Sessions
//     that do not fit PARK until running sessions complete (no thrashing,
//     no livelock: every completion re-examines the queue). The *order*
//     of admission is a pluggable AdmissionPolicy (ops/admission.h):
//     strict FIFO by default, or footprint-/expected-work-aware
//     small-job-first with an aging starvation bound for latency SLOs.
//     A footprint that can never fit is rejected up front with
//     kResourceExhausted.
//
//   * Per-session budgets — each admitted session's pinned+retained bytes
//     are charged to its PoolAccount, capped at its declared footprint.
//     Because the sum of admitted budgets never exceeds the cap, one
//     tenant can never starve another's required frames; transient
//     pressure (another tenant's prefetch lookahead) parks-and-retries
//     inside the executor instead of failing.
//
//   * Cross-session read dedup — sessions name their arrays into a
//     pool-global id space keyed by BlockStore, so two sessions reading
//     the same input store share frames: a block resident from one
//     session's read is served to the other from memory, and two
//     concurrent misses on one block coalesce on a single disk read
//     (BufferPool's load latch).
//
//   * Fair-share I/O — prefetch reads are submitted on per-session IoPool
//     channels and dispatched round-robin, so one session's deep
//     lookahead cannot starve another's.
//
//   * Plan-exact prefetch headroom — the shared pool's prefetch budget is
//     the cap's unreserved headroom, pool_cap_bytes minus the admitted
//     footprints, republished on every admit and release. Sessions at
//     pipeline_depth >= 1 (every serving job; see serve/catalog.h) read
//     ahead into it as storage/issue_policy.h says, and write behind their
//     kernels on the shared I/O workers.
//
//   * Stats — per-session ExecStats (+ budget peaks and park counts) and
//     aggregate RuntimeStats across the runtime's lifetime.
//
// Run() executes on the caller's thread and is safe to call from many
// threads at once; the runtime serializes only admission, not execution.
#ifndef RIOTSHARE_OPS_SESSION_RUNTIME_H_
#define RIOTSHARE_OPS_SESSION_RUNTIME_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "analysis/coaccess.h"
#include "core/cost_model.h"
#include "exec/executor.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "ops/admission.h"
#include "storage/buffer_pool.h"
#include "storage/io_pool.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace riot {

struct SessionRuntimeOptions {
  /// Shared pool cap carved into per-session budgets by admission.
  int64_t pool_cap_bytes = int64_t{64} << 20;
  /// Replacement policy of the shared pool. ScheduleOpt is exact Belady
  /// with one session bound and merges every concurrent session's future
  /// uses into one normalized clock with several (see replacement.h), so
  /// it now beats LRU under multi-tenancy too; LRU remains the cheapest
  /// default for workloads that never rebind the same blocks.
  ReplacementKind replacement = ReplacementKind::kLru;
  /// Shared I/O workers servicing every session's prefetch traffic and its
  /// write-through (sessions at pipeline_depth >= 1).
  int io_threads = 2;
  /// Seconds a starved fetch inside a session parks before giving up.
  double park_timeout_seconds = 10.0;
  /// Admission-queue ordering (ops/admission.h). kFifo is the historical
  /// strict arrival order; the SLO-aware policies overtake a parked whale
  /// with mice that fit now.
  AdmissionPolicyKind admission = AdmissionPolicyKind::kFifo;
  /// Starvation bound for the non-FIFO policies: a waiter older than this
  /// regains FIFO priority (nothing overtakes it further).
  double admission_aging_seconds = 2.0;
  /// Cost-model options used to derive footprints and expected work for
  /// specs that do not declare them (e.g. calibrated compute rates so
  /// shortest-work ranks by io + compute).
  CostModelOptions cost;
};

/// \brief One program execution request. The spec's pointers must outlive
/// the Run() call; `stores` and `kernels` are indexed by array id /
/// statement id exactly as for Executor.
struct SessionSpec {
  const Program* program = nullptr;
  const Schedule* schedule = nullptr;
  std::vector<const CoAccess*> realized;
  std::vector<BlockStore*> stores;
  const std::vector<StatementKernel>* kernels = nullptr;
  /// Exec knobs honored per session: mode, pipeline_depth (prefetch and
  /// write-behind on the shared IoPool). shared_pool / session /
  /// memory_cap_bytes / exec_threads are owned by the runtime, as is the
  /// pool-wide prefetch budget (the unreserved headroom).
  ExecOptions exec;
  /// Peak pinned+retained bytes the plan needs — the session's budget and
  /// admission reservation. 0 = derive exactly from the cost model.
  int64_t footprint_bytes = 0;
  /// Modeled execution seconds (the cost model's TotalSeconds()) that the
  /// shortest-expected-work admission policy ranks by. 0 = derive from
  /// the cost model when that policy is active (callers that run many
  /// identical jobs should pre-compute it once).
  double expected_work_seconds = 0;
};

struct SessionStats {
  int64_t session_id = 0;
  int64_t budget_bytes = 0;
  /// Peak bytes actually charged to the session — never exceeds
  /// budget_bytes (asserted by the stress suite).
  int64_t peak_charged_bytes = 0;
  int64_t budget_rejections = 0;
  /// Time spent parked in the admission queue before starting.
  double admission_wait_seconds = 0.0;
  /// True when the session had to wait for capacity before admission.
  bool parked_for_admission = false;
  ExecStats exec;
};

/// \brief Aggregate counters across the runtime's lifetime (one consistent
/// copy under the runtime lock).
struct RuntimeStats {
  int64_t sessions_completed = 0;
  int64_t sessions_failed = 0;
  int64_t sessions_rejected = 0;   // footprint can never fit the cap
  int64_t sessions_parked = 0;     // waited in the admission queue
  int64_t peak_concurrent_sessions = 0;
  int64_t peak_reserved_bytes = 0;
  double admission_wait_seconds = 0.0;
  // Sums of the corresponding per-session ExecStats fields.
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t block_reads = 0;
  int64_t block_writes = 0;
  int64_t prefetch_hits = 0;
  int64_t prefetch_wasted = 0;
  int64_t policy_saved_reads = 0;
  int64_t session_parks = 0;
  double io_seconds = 0.0;
  double compute_seconds = 0.0;
  double wall_seconds = 0.0;  // summed across sessions (not elapsed time)
  /// Maximum of the sessions' ExecStats::write_behind_peak_bytes.
  int64_t write_behind_peak_bytes = 0;
  /// Pool-global counters snapshotted at stats() time: evictions and
  /// cross-session effects (coalesced loads, policy-saved reads) that no
  /// per-session ExecStats sum can attribute.
  BufferPoolStats pool;
};

class SessionRuntime {
 public:
  explicit SessionRuntime(SessionRuntimeOptions options = {});

  SessionRuntime(const SessionRuntime&) = delete;
  SessionRuntime& operator=(const SessionRuntime&) = delete;

  /// Executes one session on the calling thread: derives/validates the
  /// footprint, waits for admission, runs the plan against the shared
  /// pool, releases the reservation, and returns the session's stats.
  /// Thread-safe; blocks while parked. Fails fast with kResourceExhausted
  /// when the footprint cannot fit the pool cap even alone, and with
  /// kInvalidArgument when the plan does not lower (see LowerPlan).
  Result<SessionStats> Run(const SessionSpec& spec) EXCLUDES(mu_);

  /// Drops the shared pool's frames for `store` and retires its pool id.
  /// MUST be called before destroying a BlockStore that any session used:
  /// a later store allocated at the same address would otherwise alias
  /// the stale cache. Fails if frames of the store are still in use.
  Status ReleaseStore(BlockStore* store) EXCLUDES(mu_);

  RuntimeStats stats() const EXCLUDES(mu_);
  BufferPool* pool() { return &pool_; }
  IoPool* io() { return io_.get(); }

 private:
  /// One parked Run() call. Queued in arrival order; the waiter's thread
  /// sleeps on admit_cv_ until AdmitLocked marks it admitted. Fields
  /// (notably `admitted`) are written by AdmitLocked and read by the
  /// parked waiter, both under mu_; a nested type cannot name the outer
  /// mutex, so the struct carries no annotations.
  struct Waiter {
    int64_t ticket = 0;
    int64_t footprint_bytes = 0;
    double expected_work_seconds = 0;
    std::chrono::steady_clock::time_point enqueued;
    bool admitted = false;
  };

  int PoolIdFor(BlockStore* store) REQUIRES(mu_);  // registry: same
                                                   // store, same id
  /// Runs the admission policy over the parked waiters until it admits no
  /// one, reserving footprints and marking waiters admitted. Called on
  /// every arrival and every completion, under mu_; wakes admitted
  /// waiters via admit_cv_.
  void AdmitLocked() REQUIRES(mu_);
  /// Sets the shared pool's prefetch budget to the current unreserved
  /// headroom. Called after every admit and release, outside mu_ (the
  /// pool mutex never nests under it); headroom_mu_ orders concurrent
  /// publishers, and each reads the reservation afresh, so the last one
  /// always publishes the latest headroom.
  void PublishHeadroom() EXCLUDES(mu_, headroom_mu_);

  const SessionRuntimeOptions opts_;
  const std::unique_ptr<AdmissionPolicy> admission_;
  /// Declared before pool_ so it outlives it: ~BufferPool waits out any
  /// write still in flight on these workers.
  std::unique_ptr<IoPool> io_;
  BufferPool pool_;

  /// Lock order: pool_'s internal mutex is NEVER acquired while mu_ is
  /// held (executors hold pool state while Run() re-enters mu_ to merge
  /// stats; nesting the other way here would create an inversion window).
  /// stats() and ReleaseStore() both stage their pool calls outside mu_.
  Mutex headroom_mu_ ACQUIRED_BEFORE(mu_);
  mutable Mutex mu_;
  CondVar admit_cv_;
  std::map<BlockStore*, int> pool_ids_ GUARDED_BY(mu_);
  int next_pool_id_ GUARDED_BY(mu_) = 0;
  // Arrival order; entries live on the waiting Run() call's stack.
  std::deque<Waiter*> admit_queue_ GUARDED_BY(mu_);
  int64_t next_ticket_ GUARDED_BY(mu_) = 0;
  int64_t reserved_bytes_ GUARDED_BY(mu_) = 0;
  int64_t running_sessions_ GUARDED_BY(mu_) = 0;
  RuntimeStats stats_ GUARDED_BY(mu_);
};

}  // namespace riot

#endif  // RIOTSHARE_OPS_SESSION_RUNTIME_H_
