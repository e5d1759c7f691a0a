#include "core/cost_model.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/access_plan.h"
#include "core/plan_realization.h"
#include "storage/buffer_pool.h"
#include "util/logging.h"

namespace riot {

PlanCost EvaluatePlanCost(const Program& program, const Schedule& schedule,
                          const std::vector<const CoAccess*>& realized,
                          const CostModelOptions& options) {
  RealizedPlan rp = RealizePlan(program, schedule, realized);
  PlanCost cost;

  // I/O volume sweep.
  for (const auto& inst : rp.order) {
    const Statement& st = program.statement(inst.stmt_id);
    for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
      const Access& a = st.accesses[ai];
      if (!a.ActiveAt(inst.iter)) continue;
      const int64_t bytes = program.array(a.array_id).BlockBytes();
      AccessInstanceKey key{inst.stmt_id, inst.iter, static_cast<int>(ai)};
      if (a.type == AccessType::kRead) {
        cost.baseline_read_bytes += bytes;
        if (!rp.saved_reads.count(key)) {
          cost.read_bytes += bytes;
          ++cost.block_reads;
        }
      } else {
        cost.baseline_write_bytes += bytes;
        if (!rp.saved_writes.count(key) && !rp.elided_writes.count(key)) {
          cost.write_bytes += bytes;
          ++cost.block_writes;
        }
      }
    }
  }

  // Peak memory: the per-position requirement the engine's pin/retain
  // discipline realizes, so predicted peak equals measured peak.
  for (int64_t bytes : RequiredBytesPerPosition(program, rp)) {
    cost.peak_memory_bytes = std::max(cost.peak_memory_bytes, bytes);
  }

  const double rd = options.read_mb_per_s * 1e6;
  const double wr = options.write_mb_per_s * 1e6;
  cost.io_seconds = static_cast<double>(cost.read_bytes) / rd +
                    static_cast<double>(cost.write_bytes) / wr;
  cost.baseline_io_seconds =
      static_cast<double>(cost.baseline_read_bytes) / rd +
      static_cast<double>(cost.baseline_write_bytes) / wr;

  // In-memory compute term: per-statement characteristics priced through
  // the calibrated rate table, summed over every scheduled instance. The
  // per-instance seconds depend only on the statement (all instances of a
  // statement touch same-shaped blocks), so analyze each statement once.
  if (options.compute.has_value()) {
    std::map<int, double> per_instance_s;
    for (const auto& inst : rp.order) {
      auto it = per_instance_s.find(inst.stmt_id);
      if (it == per_instance_s.end()) {
        const LoopCharacteristics lc =
            AnalyzeStatement(program, program.statement(inst.stmt_id));
        it = per_instance_s
                 .emplace(inst.stmt_id,
                          EstimateInstanceSeconds(lc, *options.compute))
                 .first;
      }
      cost.compute_seconds += it->second;
    }
  }

  // Memory-pressure projection: how this schedule behaves as a plain
  // bounded cache when its exact requirement cannot be afforded.
  if (options.pressure_cap_bytes > 0) {
    CacheSimOptions sim;
    sim.policy = options.pressure_policy;
    sim.cap_bytes = options.pressure_cap_bytes;
    sim.opportunistic = true;
    auto r = SimulateCacheBehavior(program, schedule, realized, sim, options);
    if (r.ok()) {
      cost.capped_block_reads = r->block_reads;
      cost.capped_evictions = r->evictions;
      cost.capped_io_seconds = r->io_seconds;
    }
  }
  return cost;
}

Result<CacheSimResult> SimulateCacheBehavior(
    const Program& program, const Schedule& schedule,
    const std::vector<const CoAccess*>& realized, const CacheSimOptions& sim,
    const CostModelOptions& options) {
  // The opportunistic ablation deliberately ignores the plan's sharing set
  // — exactly like the engine's kOpportunisticCache mode.
  RealizedPlan rp = RealizePlan(program, schedule,
                                sim.opportunistic
                                    ? std::vector<const CoAccess*>{}
                                    : realized);
  const AccessScript script = BuildAccessScript(program, rp);

  BufferPool pool(sim.cap_bytes, MakeReplacementPolicy(sim.policy));
  const bool schedule_policy =
      sim.policy == ReplacementKind::kScheduleOpt;
  std::shared_ptr<const BlockUseMap> bound_uses;
  if (schedule_policy) {
    bound_uses = std::make_shared<BlockUseMap>(script.block_uses);
    pool.BindUsePlan(bound_uses);
  }

  CacheSimResult out;
  // Replay the depth-0 serial engine's pool discipline, step for step:
  // release expired retentions at group boundaries, advance the policy
  // clock per instance, fetch reads-then-write, retain as scripted, unpin
  // at instance end. The pool's own counters then ARE the prediction.
  // (access_idx, frame): the engine releases an instance's pins in access
  // order, not record (reads-then-write) order — Clock's ring order
  // depends on it.
  std::vector<std::pair<int, BufferPool::Frame*>> frames;
  size_t cur_group = 0;
  for (size_t pos = 0; pos < rp.order.size(); ++pos) {
    if (rp.group_of[pos] != cur_group) {
      cur_group = rp.group_of[pos];
      pool.ReleaseRetainedBefore(static_cast<int64_t>(cur_group));
    }
    if (schedule_policy) {
      pool.AdvanceReplacementClock(bound_uses, static_cast<int64_t>(pos));
    }
    const auto [rec_begin, rec_end] = script.per_pos[pos];
    frames.clear();
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = script.records[ri];
      bool disk_read = false;
      if (rec.type == AccessType::kRead) {
        bool saved = rec.saved;
        const bool present =
            pool.Probe(rec.array_id, rec.block) != nullptr;
        if (sim.opportunistic) {
          saved = present;
          if (saved) ++out.policy_saved_reads;
        }
        if (saved && !present) {
          return Status::Internal(
              "cache sim: saved read not resident (plan/realization bug)");
        }
        // The engine reads disk for every non-saved read, resident or not
        // (plan-exact I/O counts must match the linear sharing model).
        disk_read = !saved || !present;
      }
      auto f = pool.Fetch(rec.array_id, rec.block, rec.bytes,
                          /*store=*/nullptr, /*load=*/false);
      if (!f.ok()) {
        for (auto& [ai, held] : frames) pool.Unpin(held);
        return f.status();
      }
      frames.emplace_back(rec.access_idx, *f);
      if (disk_read) {
        out.read_bytes += rec.bytes;
        ++out.block_reads;
      }
      if (rec.type == AccessType::kWrite && !rec.saved) {
        out.write_bytes += rec.bytes;
        ++out.block_writes;
      }
      if (rec.retain_until_group >= 0) {
        pool.Retain(*f, rec.retain_until_group);
      }
    }
    std::sort(frames.begin(), frames.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [ai, f] : frames) pool.Unpin(f);
  }
  pool.ReleaseRetainedBefore(std::numeric_limits<int64_t>::max());
  if (schedule_policy) pool.UnbindUsePlan(bound_uses);

  const BufferPoolStats ps = pool.stats();
  out.hits = ps.hits;
  out.misses = ps.misses;
  out.evictions = ps.evictions;
  out.dirty_writebacks = ps.dirty_writebacks;
  out.io_seconds =
      static_cast<double>(out.read_bytes) / (options.read_mb_per_s * 1e6) +
      static_cast<double>(out.write_bytes) / (options.write_mb_per_s * 1e6);
  return out;
}

// ---------------------------------------------------------------------------
// Multi-tenant cache simulation: several plans' scripts replayed against one
// shared pool in a caller-chosen kernel interleaving, mirroring the
// session-mode depth-0 serial engine at lockstep-turn granularity. A
// "turn" is the pool-op span a session owns between two of its kernel
// entries (see ops/lockstep.h): [write-out(i), unpin(i), retention release
// at a group boundary, clock advance(i+1), fetches(i+1)]. The prologue at
// serialized spawn is [bind, advance(0), fetches(0)]; the epilogue — still
// under the session's final turn — is [release all retentions, drop
// divergent (saved-write) frames, unbind, detach account]. The pool's
// global counters plus per-tenant I/O tallies then ARE the prediction.
// ---------------------------------------------------------------------------
namespace {

// One tenant's replay state over the shared pool.
struct TenantReplay {
  RealizedPlan rp;
  AccessScript script;
  std::shared_ptr<const BlockUseMap> bound;
  std::unique_ptr<PoolAccount> account;
  // Frames the last pre-step pinned, (access_idx, frame) in record order.
  std::vector<std::pair<int, BufferPool::Frame*>> frames;
  size_t done = 0;  // kernels completed (== interleaving entries consumed)
  size_t cur_group = 0;
};

}  // namespace

Result<MultiTenantCacheResult> SimulateMultiTenantCache(
    const std::vector<TenantCacheScript>& tenants,
    const std::vector<int>& interleaving, const CacheSimOptions& sim,
    const CostModelOptions& options) {
  if (tenants.empty()) {
    return Status::InvalidArgument("multi-tenant sim: no tenants");
  }
  const bool schedule_policy = sim.policy == ReplacementKind::kScheduleOpt;
  BufferPool pool(sim.cap_bytes, MakeReplacementPolicy(sim.policy));

  MultiTenantCacheResult out;
  out.per_tenant.resize(tenants.size());
  std::vector<TenantReplay> state(tenants.size());

  auto pid = [&](size_t t, int array_id) {
    const auto& ids = tenants[t].pool_array_ids;
    return ids.empty() ? array_id : ids[static_cast<size_t>(array_id)];
  };

  // Runs instance `pos`'s pre-kernel pool ops: retention release at a group
  // boundary, clock advance, and the record fetches (session read
  // discipline: resident frames are served from memory; misses "read
  // disk"). Leaves the instance's frames pinned in st.frames.
  auto pre_step = [&](size_t t, size_t pos) -> Status {
    TenantReplay& st = state[t];
    CacheSimResult& per = out.per_tenant[t];
    if (st.rp.group_of[pos] != st.cur_group) {
      st.cur_group = st.rp.group_of[pos];
      pool.ReleaseRetainedBefore(static_cast<int64_t>(st.cur_group),
                                 st.account.get());
    }
    if (schedule_policy) {
      pool.AdvanceReplacementClock(st.bound, static_cast<int64_t>(pos));
    }
    const auto [rec_begin, rec_end] = st.script.per_pos[pos];
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = st.script.records[ri];
      bool resident = false;
      auto f = pool.Fetch(pid(t, rec.array_id), rec.block, rec.bytes,
                          /*store=*/nullptr, /*load=*/false, &resident,
                          st.account.get(), /*coalesce_loads=*/true);
      if (!f.ok()) {
        // The engine parks here and retries once a co-tenant frees bytes;
        // under a fixed interleaving no such future exists, so surface
        // the refusal (callers must budget the way the runtime admits).
        for (auto& [ai, held] : st.frames) pool.Unpin(held, st.account.get());
        st.frames.clear();
        return f.status();
      }
      st.frames.emplace_back(rec.access_idx, *f);
      if (rec.type == AccessType::kRead) {
        if (!resident) {
          if (rec.saved) {
            return Status::Internal(
                "multi-tenant sim: saved read not resident "
                "(plan/realization bug)");
          }
          pool.MarkLoaded(*f);
          per.read_bytes += rec.bytes;
          ++per.block_reads;
        } else if (!rec.saved) {
          ++per.policy_saved_reads;  // cross-session residency win
        }
      } else {
        if (!resident) pool.MarkLoaded(*f);
      }
      if (rec.retain_until_group >= 0) {
        pool.Retain(*f, rec.retain_until_group, st.account.get());
      }
    }
    return Status::OK();
  };

  // Runs instance `pos`'s post-kernel pool ops: write-out accounting and
  // MarkClean in record order, then unpins in access order.
  auto post_step = [&](size_t t, size_t pos) {
    TenantReplay& st = state[t];
    CacheSimResult& per = out.per_tenant[t];
    const auto [rec_begin, rec_end] = st.script.per_pos[pos];
    for (uint32_t ri = rec_begin; ri < rec_end; ++ri) {
      const BlockAccessRecord& rec = st.script.records[ri];
      if (rec.type != AccessType::kWrite) continue;
      if (!rec.saved) {
        per.write_bytes += rec.bytes;
        ++per.block_writes;
      }
      pool.MarkClean(st.frames[ri - rec_begin].second);
    }
    std::sort(st.frames.begin(), st.frames.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [ai, f] : st.frames) pool.Unpin(f, st.account.get());
    st.frames.clear();
  };

  // Tenant finished: release retentions, drop saved-write frames whose
  // contents diverge from disk, unbind, sever the account.
  auto epilogue = [&](size_t t) {
    TenantReplay& st = state[t];
    pool.ReleaseRetainedBefore(std::numeric_limits<int64_t>::max(),
                               st.account.get());
    for (const BlockAccessRecord& rec : st.script.records) {
      if (rec.type == AccessType::kWrite && rec.saved) {
        pool.Drop(pid(t, rec.array_id), rec.block);
      }
    }
    if (schedule_policy) pool.UnbindUsePlan(st.bound);
    pool.DetachAccount(st.account.get());
  };

  // Prologues in tenant order (the lockstep harness serializes spawns):
  // bind the remapped use plan, open the budget ledger, and run the first
  // instance's pre-step — every tenant then sits pinned at kernel 0.
  size_t total_turns = 0;
  for (size_t t = 0; t < tenants.size(); ++t) {
    const TenantCacheScript& ts = tenants[t];
    TenantReplay& st = state[t];
    st.rp = RealizePlan(*ts.program, *ts.schedule,
                        sim.opportunistic ? std::vector<const CoAccess*>{}
                                          : ts.realized);
    st.script = BuildAccessScript(*ts.program, st.rp);
    st.account = std::make_unique<PoolAccount>();
    st.account->budget_bytes =
        ts.budget_bytes > 0 ? ts.budget_bytes : sim.cap_bytes;
    if (st.rp.order.empty()) {
      return Status::InvalidArgument("multi-tenant sim: empty plan");
    }
    total_turns += st.rp.order.size();
    if (schedule_policy) {
      auto remapped = std::make_shared<BlockUseMap>();
      for (const auto& [key, positions] : st.script.block_uses) {
        (*remapped)[{pid(t, key.first), key.second}] = positions;
      }
      st.bound = std::move(remapped);
      pool.BindUsePlan(st.bound);
    }
    Status s = pre_step(t, 0);
    if (!s.ok()) return s;
  }
  if (interleaving.size() != total_turns) {
    return Status::InvalidArgument(
        "multi-tenant sim: interleaving length " +
        std::to_string(interleaving.size()) + " != total instances " +
        std::to_string(total_turns));
  }

  // One interleaving entry = one kernel completing: finish its pool turn
  // (post ops, then the tenant's next pre-step or its epilogue).
  for (int t_idx : interleaving) {
    if (t_idx < 0 || static_cast<size_t>(t_idx) >= tenants.size()) {
      return Status::InvalidArgument("multi-tenant sim: bad tenant index");
    }
    const size_t t = static_cast<size_t>(t_idx);
    TenantReplay& st = state[t];
    if (st.done >= st.rp.order.size()) {
      return Status::InvalidArgument(
          "multi-tenant sim: interleaving overruns tenant " +
          std::to_string(t));
    }
    const size_t pos = st.done;
    post_step(t, pos);
    ++st.done;
    if (st.done < st.rp.order.size()) {
      Status s = pre_step(t, st.done);
      if (!s.ok()) return s;
    } else {
      epilogue(t);
    }
  }

  const BufferPoolStats ps = pool.stats();
  out.total.hits = ps.hits;
  out.total.misses = ps.misses;
  out.total.evictions = ps.evictions;
  out.total.dirty_writebacks = ps.dirty_writebacks;
  for (CacheSimResult& per : out.per_tenant) {
    per.io_seconds =
        static_cast<double>(per.read_bytes) / (options.read_mb_per_s * 1e6) +
        static_cast<double>(per.write_bytes) / (options.write_mb_per_s * 1e6);
    out.total.block_reads += per.block_reads;
    out.total.block_writes += per.block_writes;
    out.total.read_bytes += per.read_bytes;
    out.total.write_bytes += per.write_bytes;
    out.total.policy_saved_reads += per.policy_saved_reads;
    out.total.io_seconds += per.io_seconds;
  }
  return out;
}

}  // namespace riot
