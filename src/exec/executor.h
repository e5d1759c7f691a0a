// The execution engine: interprets an optimized plan (schedule + realized
// sharing set) against on-disk block stores, with a capped buffer pool.
//
// This plays the role of the paper's generated C code plus injected I/O
// management (Section 5.5): statement instances run in scheduled order; the
// executor fulfills each block access "either by blocks already buffered in
// memory or by I/O", retains shared blocks until their reuse, skips write
// I/O for W->W-saved and elided writes, and displaces unneeded buffers.
//
// Two orthogonal forms of overlap, both derived from the optimizer's
// perfect foreknowledge of the block access sequence — no heuristics, no
// speculation:
//
//   * I/O pipeline (ExecOptions::pipeline_depth): a prefetcher walks the
//     plan's block access script (core/access_plan.h) up to `depth` groups
//     ahead of the kernels, issuing asynchronous reads through an I/O
//     worker pool while kernels run against completed frames, and the
//     serial engine's write-through goes to the same workers behind the
//     kernels (write-behind). Depth 0 degrades to the fully synchronous
//     engine bit-for-bit.
//
//   * Parallel kernel dispatch (ExecOptions::exec_threads): the script is
//     lifted to a statement-instance dependence DAG (BuildInstanceDag) and
//     ready instances are dispatched onto a pool of kernel workers,
//     smallest scheduled position first. Workers acquire all of an
//     instance's frames, run the kernel, perform the write-through, then
//     release — so any interleaving the scheduler picks is a linear
//     extension of the DAG and produces bit-for-bit the serial outputs.
//     exec_threads = 1 (the default) runs the classic serial engine
//     unchanged. With exec_threads > 1 the engine dedupes physically
//     redundant reads (a non-saved read of a block still resident is
//     served from the frame instead of re-touching disk), so I/O *counts*
//     may come in under the cost model's serial prediction; outputs are
//     unchanged. Parallel execution may transiently need more memory than
//     the serial peak (out-of-order completions pin and retain early);
//     memory-starved instances park and retry rather than fail, but a cap
//     at exactly the serial peak is only guaranteed for exec_threads = 1.
#ifndef RIOTSHARE_EXEC_EXECUTOR_H_
#define RIOTSHARE_EXEC_EXECUTOR_H_

#include <functional>
#include <vector>

#include "analysis/coaccess.h"
#include "core/plan_realization.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "kernels/dense.h"
#include "storage/buffer_pool.h"

namespace riot {

class IoPool;
class StoreMutexMap;
struct AccessScript;
struct InstanceDag;

/// \brief Multi-tenant execution context, provided by the session runtime
/// (ops/session_runtime.h) when several programs run concurrently over one
/// shared BufferPool. It gives a run:
///   * a budget ledger (`account`) — frames this run pins or retains are
///     charged against the session's slice of the pool cap, and a fetch
///     past the budget parks and retries instead of eating into other
///     tenants' slices;
///   * a pool-id remap (`pool_array_ids`) — program array ids translate
///     into a pool-global namespace where two sessions over the same
///     BlockStore share frames (cross-session read dedup) while distinct
///     stores can never collide;
///   * shared I/O workers (`io` + `io_channel`) — prefetch reads are
///     submitted on the session's own completion channel, and the pool's
///     round-robin dispatch keeps one tenant's lookahead from starving
///     another's;
///   * cross-session store serialization (`store_mutexes`) for runs
///     without an I/O pool of their own.
/// A session run executes on the serial engine (the sessions themselves
/// are the parallelism), serves resident blocks from memory like the
/// parallel engine's read dedup, and coalesces concurrent loads of one
/// block across sessions onto a single disk read.
struct SessionBinding {
  PoolAccount* account = nullptr;
  /// Program array id -> shared-pool array id; empty = identity.
  std::vector<int> pool_array_ids;
  IoPool* io = nullptr;
  int io_channel = 0;
  StoreMutexMap* store_mutexes = nullptr;
  /// Total seconds a starved fetch parks-and-retries (waiting out other
  /// tenants' transient pressure) before the run fails with the pool's
  /// kResourceExhausted.
  double park_timeout_seconds = 10.0;
};

/// \brief In-memory compute for one statement instance. `views` is indexed
/// by access index; an entry is nullptr when the access's guard excludes the
/// current iteration. The kernel may branch on `iter` (e.g. initialize an
/// accumulator when the reduction variable is 0).
using StatementKernel = std::function<void(
    const std::vector<int64_t>& iter, const std::vector<DenseView*>& views)>;

enum class ExecMode {
  /// Realize exactly the plan's sharing set: saved reads come from memory,
  /// everything else from disk (paper Section 5.3 semantics). Default.
  kPlanExact,
  /// Ablation: ignore the plan's sharing; serve any read opportunistically
  /// from whatever the LRU buffer pool happens to hold under the cap. This
  /// models database-style buffer-pool sharing, which the paper argues is
  /// "low-level, opportunistic, and extremely sensitive to ... the
  /// replacement policy" (Section 2).
  kOpportunisticCache,
};

struct ExecOptions {
  int64_t memory_cap_bytes = int64_t{1} << 40;
  ExecMode mode = ExecMode::kPlanExact;
  /// When true, a saved read missing from the pool aborts (plan bug); when
  /// false it falls back to a disk read.
  bool strict_sharing = true;
  /// Lookahead of the prefetching pipeline, in schedule groups: the
  /// prefetcher walks the plan's block access script up to this many groups
  /// ahead of the kernels, issuing asynchronous disk reads so I/O overlaps
  /// compute. Prefetched lookahead never violates the memory cap: the
  /// serial engine budgets it at the cap's headroom over the plan's exact
  /// peak (cap - peak, so it never needs cancelling), the parallel engine
  /// at half the headroom over its workers' instance footprints. 0
  /// (default) disables the pipeline and reproduces the synchronous engine
  /// bit-for-bit — same I/O counts, same pool behavior. Ignored (treated
  /// as 0) under kOpportunisticCache, which has no plan foreknowledge to
  /// prefetch from.
  int pipeline_depth = 0;
  /// I/O worker threads servicing prefetch reads and write-behind when
  /// pipeline_depth >= 1.
  int io_threads = 2;
  /// Kernel worker threads. 1 (default) = the serial engine, bit-for-bit.
  /// > 1 dispatches DAG-ready statement instances onto this many workers
  /// (composable with pipeline_depth: the prefetcher keeps feeding frames
  /// while workers drain them). Ignored (treated as 1) under
  /// kOpportunisticCache — the ablation is defined against the serial
  /// reference order.
  int exec_threads = 1;
  /// Eviction policy for the run's private buffer pool (kLru reproduces
  /// the historical pool bit-for-bit; a shared_pool keeps its own policy).
  /// kScheduleOpt is Belady/MIN driven by the plan's access script: the
  /// executor binds every block's future-use positions before the run and
  /// advances the policy's clock as instances complete — per position in
  /// the serial engine, by completed frontier in the parallel one (a
  /// linear extension of the DAG, so the clock never runs ahead of an
  /// incomplete instance). It applies under both execution modes (the
  /// schedule, and hence the access order, is exact even when the sharing
  /// set is ignored). Concurrent runs over a shared pool each bind their
  /// own plan: ScheduleOpt merges the bound plans' future uses through
  /// per-plan normalized clocks (see storage/replacement.h); with no
  /// bound plan at all it is exact LRU.
  ReplacementKind replacement = ReplacementKind::kLru;
  /// Write-behind: active only when the run has an IoPool
  /// (pipeline_depth >= 1). The serial engine hands each non-saved
  /// write-through to the I/O workers instead of writing on the kernel
  /// thread; the frame stays resident (counted against the cap) until the
  /// write lands, and a write barrier orders every later disk read,
  /// prefetch or rewrite of the block after it. A frame a co-tenant also
  /// holds is written synchronously. Dirty eviction victims
  /// (spills, only possible when a shared pool carries dirty frames from
  /// outside the run) go the same way instead of being written back under
  /// the pool lock. The parallel engine keeps its synchronous
  /// write-through. Forcing this off (or depth 0) reproduces the
  /// historical synchronous write paths exactly. Session runs follow
  /// SessionRuntimeOptions::writeback_async.
  bool writeback_async = true;
  /// Optional caller-owned pool to run against instead of a private one
  /// (memory_cap_bytes is then ignored; the pool's own cap governs). Lets
  /// tests assert pin hygiene after a run — success or error — and is the
  /// seam future multi-query batching will share frames through. The run
  /// releases every retention it created before returning; frames linger
  /// only as clean, evictable cache, and a failed load's garbage frame is
  /// discarded rather than cached. Lingering frames mirror the stores as
  /// of the last run: a caller that mutates the stores out-of-band between
  /// runs must use a fresh pool (or FlushAll), since the parallel engine
  /// serves resident frames without re-touching disk.
  BufferPool* shared_pool = nullptr;
  /// Multi-tenant context (see SessionBinding). When set the run executes
  /// on the serial engine regardless of exec_threads, never reconfigures
  /// the shared pool's prefetch budget or write-behind (the session
  /// runtime owns pool-wide knobs), and dedupes reads off residency like
  /// the parallel engine, so I/O counts may come in under the serial
  /// cost-model prediction. Outputs are unchanged. The binding must
  /// outlive the run.
  const SessionBinding* session = nullptr;
  /// Static plan-integrity lint (analysis/program_lint.h): the constructor
  /// lints the program and Run() lints every lowered plan before touching
  /// the stores, failing with kInvalidArgument and the full LintReport on
  /// any finding. Pure analysis — execution order, I/O, and outputs are
  /// bit-for-bit unchanged when the lint passes. Defaults on in debug
  /// builds, off in release (the checks are O(instances^2) on small
  /// streams).
#ifndef NDEBUG
  bool lint = true;
#else
  bool lint = false;
#endif
};

struct ExecStats {
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t block_reads = 0;
  int64_t block_writes = 0;
  double io_seconds = 0.0;       // wall time inside block store calls
  double compute_seconds = 0.0;  // wall time inside kernels (summed across
                                 // workers when exec_threads > 1)
  double wall_seconds = 0.0;
  /// Peak of pinned+retained bytes: the plan's true memory requirement
  /// (comparable to the cost model's prediction).
  int64_t peak_required_bytes = 0;
  /// Peak bytes of frames held resident only by this run's in-flight
  /// write-throughs (writeback_async at pipeline_depth >= 1). Disjoint
  /// from peak_required_bytes: the plan needs these frames no longer, but
  /// they count against the cap until their writes land.
  int64_t write_behind_peak_bytes = 0;
  /// Reads served by an adopted prefetched frame (pipeline_depth >= 1).
  int64_t prefetch_hits = 0;
  /// Prefetched blocks canceled under memory pressure or never consumed.
  int64_t prefetch_wasted = 0;
  /// I/O + compute time hidden by pipelining and/or parallel dispatch:
  /// max(0, io_seconds + compute_seconds - wall_seconds).
  double overlap_seconds = 0.0;
  /// Dependence-DAG levels (exec_threads > 1): the longest chain of
  /// instances — the number of sequential waves a perfectly parallel
  /// machine still executes. 0 in the serial engine (no DAG is built).
  int64_t parallel_groups = 0;
  /// Peak number of instances simultaneously ready or running, observed at
  /// dispatch time (exec_threads > 1): > 1 means the DAG actually exposed
  /// kernel parallelism on this run. 0 in the serial engine.
  int64_t max_ready_width = 0;
  /// Kernel time hidden behind other kernels by multi-threaded dispatch:
  /// max(0, compute_seconds - wall_seconds). 0 in the serial engine.
  double compute_overlap_seconds = 0.0;
  /// Disk reads avoided because the block was still resident when a read
  /// that carries no planned sharing came due: every cache-served read of
  /// the kOpportunisticCache ablation, and the parallel engine's dedupe of
  /// physically redundant reads. 0 in plan-exact serial runs (their read
  /// set is the plan's, independent of residency). The replacement policy
  /// is what moves this number.
  int64_t policy_saved_reads = 0;
  /// Session runs: times a starved fetch parked (budget or transient
  /// cross-tenant pressure) and the wall time spent parked before the
  /// retry succeeded. 0 outside session runs, which fail fast instead.
  int64_t session_parks = 0;
  double session_park_seconds = 0.0;
  /// NOTE: under a shared multi-tenant pool these per-run pool deltas
  /// include concurrent tenants' traffic; per-session I/O counters above
  /// are exact regardless.
  BufferPoolStats pool;
};

class Executor {
 public:
  /// `stores` and `kernels` are indexed by array id / statement id.
  /// `kernels` may be empty (or have empty entries): statements without an
  /// explicit kernel must carry a typed StatementOp, from which the kernel
  /// is synthesized (exec/kernel_synthesis.h). A supplied lambda wins over
  /// synthesis — the escape hatch for computations no op kind describes.
  Executor(const Program& program, std::vector<BlockStore*> stores,
           std::vector<StatementKernel> kernels, ExecOptions options = {});

  /// Runs the program under `schedule`, exploiting exactly `realized`.
  /// Guarantees, success or error: all kernel and I/O workers joined, no
  /// frame left pinned, no retention left behind (relevant when
  /// ExecOptions::shared_pool is set).
  Result<ExecStats> Run(const Schedule& schedule,
                        const std::vector<const CoAccess*>& realized);

 private:
  Result<ExecStats> RunSerial(const Schedule& schedule,
                              const std::vector<const CoAccess*>& realized);
  Result<ExecStats> RunParallel(const Schedule& schedule,
                                const std::vector<const CoAccess*>& realized);
  /// Script-level lint of the lowered plan (ExecOptions::lint); OK when
  /// linting is off or the plan is clean.
  Status LintLoweredPlan(const RealizedPlan& rp, const AccessScript& script,
                         const InstanceDag* dag) const;

  const Program& prog_;
  std::vector<BlockStore*> stores_;
  std::vector<StatementKernel> kernels_;
  ExecOptions opts_;
  /// Program-level lint finding from the constructor; surfaced by Run().
  Status lint_status_;
};

}  // namespace riot

#endif  // RIOTSHARE_EXEC_EXECUTOR_H_
