// Plan costing (paper Section 5.4): exact I/O volume, modeled I/O time, and
// peak memory requirement of a schedule realizing a set of sharing
// opportunities.
//
// The evaluation is a sum over the plan's lowered access script
// (core/access_plan.h) under the linear sharing model, and its peak is the
// maximum of the script's per-position requirement: the same lowering the
// engine executes. Because the system works at block granularity and the
// extents are instance-exact, predicted I/O volume matches executed I/O
// volume byte-for-byte (the paper reports 0.6-2.3% error only because it
// converts volume to seconds with a two-rate disk model; we expose both).
//
// SimulateCacheBehavior goes further: it replays the plan's lowered block
// access script against a real BufferPool (with a chosen replacement
// policy and cap), mirroring the serial engine's fetch/pin/retain/unpin
// discipline step for step — so predicted reads, evictions, hits, and
// misses match a depth-0 serial execution *exactly*, for any policy, at
// any cap.
#ifndef RIOTSHARE_CORE_COST_MODEL_H_
#define RIOTSHARE_CORE_COST_MODEL_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/coaccess.h"
#include "analysis/loop_characteristics.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "storage/replacement.h"
#include "util/status.h"

namespace riot {

struct CostModelOptions {
  /// Sustained sequential rates used to convert volume to time; defaults are
  /// the paper's measured 96 MB/s read and 60 MB/s write (Section 6 setup).
  double read_mb_per_s = 96.0;
  double write_mb_per_s = 60.0;
  /// In-memory compute term. When set, EvaluatePlanCost prices each
  /// statement instance's flops through the rate table (with the table's
  /// cache penalty when the instance working set spills its modeled cache,
  /// see analysis/loop_characteristics.h) into PlanCost::compute_seconds,
  /// and plan ranking uses TotalSeconds() = io + compute. The compute term
  /// is identical across plans of one program (same statements either way),
  /// so single-program plan choice is unchanged — but configurations with
  /// different block sizes now trade I/O volume against cache behavior,
  /// which is exactly what BlockAdvisor ranks. nullopt (default) keeps the
  /// historical I/O-only model with compute_seconds == 0.
  std::optional<KernelRateTable> compute;
};

struct PlanCost {
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
  int64_t baseline_read_bytes = 0;
  int64_t baseline_write_bytes = 0;
  int64_t block_reads = 0;   // I/O request counts at block grain
  int64_t block_writes = 0;
  int64_t peak_memory_bytes = 0;
  double io_seconds = 0.0;
  double baseline_io_seconds = 0.0;
  /// In-memory compute time over all statement instances (0 unless
  /// CostModelOptions::compute is set).
  double compute_seconds = 0.0;

  int64_t TotalBytes() const { return read_bytes + write_bytes; }
  /// End-to-end modeled serial time: disk I/O plus in-memory compute.
  double TotalSeconds() const { return io_seconds + compute_seconds; }
  double SavingsFraction() const {
    double base = static_cast<double>(baseline_read_bytes) +
                  static_cast<double>(baseline_write_bytes);
    if (base == 0) return 0.0;
    return 1.0 - static_cast<double>(TotalBytes()) / base;
  }
};

/// \brief Evaluates the cost of executing `program` under `schedule` while
/// exploiting exactly the sharing opportunities in `realized`. A plan that
/// does not lower returns LowerPlan's error (see LowerPlan), so callers
/// holding an untrusted schedule can cost it without crashing.
Result<PlanCost> TryEvaluatePlanCost(
    const Program& program, const Schedule& schedule,
    const std::vector<const CoAccess*>& realized,
    const CostModelOptions& options = {});

/// \brief TryEvaluatePlanCost for a plan known to lower: a malformed one
/// CHECK-fails here.
PlanCost EvaluatePlanCost(const Program& program, const Schedule& schedule,
                          const std::vector<const CoAccess*>& realized,
                          const CostModelOptions& options = {});

struct CacheSimOptions {
  ReplacementKind policy = ReplacementKind::kLru;
  int64_t cap_bytes = std::numeric_limits<int64_t>::max();
  /// false: plan-exact replay (saved reads from memory, every other read
  /// from disk — the policy affects evictions only). true: the
  /// ExecMode::kOpportunisticCache ablation (sharing ignored; residency
  /// under the cap and policy decides every read) — where the LRU-vs-OPT
  /// read gap lives.
  bool opportunistic = false;
};

struct CacheSimResult {
  int64_t block_reads = 0;
  int64_t block_writes = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Opportunistic replay: reads served from residency instead of disk.
  int64_t policy_saved_reads = 0;
  double io_seconds = 0.0;  // volumes at the CostModelOptions rates
};

/// \brief Replays the plan's block access script against a real BufferPool
/// with the given policy and cap, mirroring the depth-0 serial engine
/// exactly: predicted block_reads/evictions/hits/misses equal a measured
/// serial run's ExecStats/BufferPoolStats for every policy and cap.
/// Fails with kResourceExhausted when a single instance's pinned footprint
/// exceeds the cap (the engine would fail identically).
Result<CacheSimResult> SimulateCacheBehavior(
    const Program& program, const Schedule& schedule,
    const std::vector<const CoAccess*>& realized, const CacheSimOptions& sim,
    const CostModelOptions& options = {});

/// One tenant of a multi-tenant cache simulation: a planned program plus
/// its mapping into the shared pool's namespace.
struct TenantCacheScript {
  const Program* program = nullptr;
  const Schedule* schedule = nullptr;
  std::vector<const CoAccess*> realized;
  /// Program array id -> shared-pool array id (the session runtime's
  /// PoolIdFor registry). Empty = identity (distinct tenants then collide
  /// on array ids — only correct for a single tenant).
  std::vector<int> pool_array_ids;
  /// Session budget ledger the replay charges (0 = the pool cap). Must
  /// admit the plan's peak footprint: the sim fails where the engine
  /// would park.
  int64_t budget_bytes = 0;
};

struct MultiTenantCacheResult {
  /// Pool-global counters (hits/misses/evictions) plus summed traffic.
  CacheSimResult total;
  /// Per-session I/O attribution: block_reads/block_writes/bytes and
  /// policy_saved_reads are per tenant; hits/misses/evictions (pool-global
  /// by nature) stay zero here.
  std::vector<CacheSimResult> per_tenant;
};

/// \brief Replays an interleaving of several tenants' access scripts
/// against one shared BufferPool, mirroring the session-mode depth-0
/// serial engine exactly (multi-tenant read discipline: a resident block
/// is served from memory and counts policy_saved_reads unless the
/// tenant's own plan saved it; misses read disk).
///
/// `interleaving` lists the tenant index whose next statement instance
/// runs at each global step; tenant t must appear exactly
/// (t's scheduled instance count) times. Pool operations are replayed at
/// lockstep-turn granularity — each step performs the previous instance's
/// write-out/unpin, then the next instance's clock advance and fetches —
/// matching an engine run whose kernels are serialized in the same order
/// (see LockstepGate in ops/lockstep.h). Under merged-clock ScheduleOpt
/// the per-tenant binds/clocks evolve exactly as the engine's, so
/// per-tenant reads and pool-global evictions are an exact oracle for
/// such a run.
///
/// `sim.opportunistic` drops each tenant's realized sharing set (the
/// engine's kOpportunisticCache mode); `sim.policy`/`sim.cap_bytes`
/// configure the shared pool.
Result<MultiTenantCacheResult> SimulateMultiTenantCache(
    const std::vector<TenantCacheScript>& tenants,
    const std::vector<int>& interleaving, const CacheSimOptions& sim,
    const CostModelOptions& options = {});

}  // namespace riot

#endif  // RIOTSHARE_CORE_COST_MODEL_H_
