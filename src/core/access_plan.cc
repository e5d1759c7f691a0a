#include "core/access_plan.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "ir/int_affine.h"
#include "util/logging.h"

namespace riot {

namespace {

// One access of a statement, compiled once per lowering.
struct LoweredAccess {
  int access_idx = -1;
  int array_id = -1;
  AccessType type = AccessType::kRead;
  IntAffineMap phi;
  bool guarded = false;
  IntGuard guard;
};

struct LoweredStatement {
  IntAffineMap time;
  // Reads in access order, then the write: the engine's fetch order (a
  // read may populate the frame the write access aliases).
  std::vector<LoweredAccess> accesses;
  // Access index -> index into `accesses`.
  std::vector<size_t> index_of_access;
  // Instance index (Program::InstancesOf order) -> stream position.
  std::vector<uint32_t> pos_of;
};

std::string IterString(const std::vector<int64_t>& iter) {
  std::string s = "(";
  for (size_t d = 0; d < iter.size(); ++d) {
    if (d) s += ",";
    s += std::to_string(iter[d]);
  }
  return s + ")";
}

std::string AccessName(const Program& program, const Statement& st,
                       size_t ai) {
  return program.AccessLabel({st.id, static_cast<int>(ai)});
}

Status CompileStatement(const Program& program, const Statement& st,
                        const Schedule& schedule, size_t time_rows,
                        LoweredStatement* out) {
  const RMatrix& m = schedule.ForStatement(st.id);
  if (m.rows() != time_rows) {
    return Status::InvalidArgument(
        "schedule for " + st.name + " has " + std::to_string(m.rows()) +
        " time rows, the first statement's has " + std::to_string(time_rows));
  }
  if (m.cols() != st.depth() + 1) {
    return Status::InvalidArgument(
        "schedule for " + st.name + " has " + std::to_string(m.cols()) +
        " columns, expected depth + 1 = " + std::to_string(st.depth() + 1));
  }
  auto time = IntAffineMap::Compile(m);
  if (!time.ok()) {
    return Status::InvalidArgument("schedule for " + st.name + ": " +
                                   time.status().message());
  }
  out->time = std::move(time).ValueOrDie();
  out->index_of_access.assign(st.accesses.size(), 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
      const Access& a = st.accesses[ai];
      if ((pass == 0) != (a.type == AccessType::kRead)) continue;
      if (a.array_id < 0 ||
          a.array_id >= static_cast<int>(program.arrays().size())) {
        return Status::InvalidArgument("access " + std::to_string(ai) +
                                       " of " + st.name +
                                       " references an unknown array");
      }
      const ArrayInfo& arr = program.array(a.array_id);
      if (a.phi.rows() != arr.ndim() || a.phi.cols() != st.depth() + 1) {
        return Status::InvalidArgument(
            "access map of " + AccessName(program, st, ai) + " is " +
            std::to_string(a.phi.rows()) + "x" + std::to_string(a.phi.cols()) +
            ", expected " + std::to_string(arr.ndim()) + "x" +
            std::to_string(st.depth() + 1));
      }
      LoweredAccess la;
      la.access_idx = static_cast<int>(ai);
      la.array_id = a.array_id;
      la.type = a.type;
      auto phi = IntAffineMap::Compile(a.phi);
      if (!phi.ok()) {
        return Status::InvalidArgument("access map of " +
                                       AccessName(program, st, ai) + ": " +
                                       phi.status().message());
      }
      la.phi = std::move(phi).ValueOrDie();
      if (a.guard.has_value()) {
        if (a.guard->dim() != st.depth()) {
          return Status::InvalidArgument("guard of " +
                                         AccessName(program, st, ai) +
                                         " does not match its statement");
        }
        auto guard = IntGuard::Compile(*a.guard);
        if (!guard.ok()) {
          return Status::InvalidArgument("guard of " +
                                         AccessName(program, st, ai) + ": " +
                                         guard.status().message());
        }
        la.guarded = true;
        la.guard = std::move(guard).ValueOrDie();
      }
      out->index_of_access[ai] = out->accesses.size();
      out->accesses.push_back(std::move(la));
    }
  }
  return Status::OK();
}

// Linear block index of `la` at `iter`, checked against `arr`'s grid.
Status BlockOf(const Program& program, const Statement& st,
               const LoweredAccess& la, const ArrayInfo& arr,
               const std::vector<int64_t>& iter, int64_t* coords,
               int64_t* lin) {
  const IntEval e = la.phi.Apply(iter.data(), coords);
  if (e != IntEval::kOk) {
    return Status::InvalidArgument(
        "block subscript of " + AccessName(program, st, la.access_idx) +
        " at " + IterString(iter) + " " + IntEvalError(e));
  }
  int64_t idx = 0;
  for (size_t d = 0; d < arr.grid.size(); ++d) {
    if (coords[d] < 0 || coords[d] >= arr.grid[d]) {
      return Status::OutOfRange(
          AccessName(program, st, la.access_idx) + " at " + IterString(iter) +
          " maps outside " + arr.name + "'s block grid at dim " +
          std::to_string(d));
    }
    idx = idx * arr.grid[d] + coords[d];
  }
  *lin = idx;
  return Status::OK();
}

}  // namespace

Result<AccessScript> LowerPlan(const Program& program,
                               const Schedule& schedule,
                               const std::vector<const CoAccess*>& realized) {
  const std::vector<Statement>& stmts = program.statements();
  const std::vector<ArrayInfo>& arrays = program.arrays();
  if (schedule.num_statements() != stmts.size()) {
    return Status::InvalidArgument(
        "schedule has " + std::to_string(schedule.num_statements()) +
        " statement matrices, the program has " +
        std::to_string(stmts.size()) + " statements");
  }
  const size_t time_rows = schedule.depth();
  if (!stmts.empty() && time_rows == 0) {
    return Status::InvalidArgument("schedule has no time dimensions");
  }

  // ---- compile every statement's rows once -------------------------------
  std::vector<LoweredStatement> lowered(stmts.size());
  size_t n = 0;
  size_t max_ndim = 0;
  for (const Statement& st : stmts) {
    RIOT_RETURN_NOT_OK(CompileStatement(program, st, schedule, time_rows,
                                        &lowered[static_cast<size_t>(st.id)]));
    n += program.InstancesOf(st.id).size();
  }
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("plan has more than 2^32 instances");
  }
  // Dense block ids: each array's base offset plus its linear block index.
  std::vector<int64_t> base(arrays.size() + 1, 0);
  for (size_t a = 0; a < arrays.size(); ++a) {
    max_ndim = std::max(max_ndim, arrays[a].ndim());
    base[a + 1] = base[a] + arrays[a].NumBlocks();
  }
  std::vector<int64_t> coords(max_ndim);

  // ---- the scheduled instance stream --------------------------------------
  struct Instance {
    int stmt_id;
    uint32_t index;  // into Program::InstancesOf(stmt_id)
  };
  std::vector<Instance> inst;
  inst.reserve(n);
  std::vector<int64_t> times(n * time_rows);
  for (const Statement& st : stmts) {
    const auto& iters = program.InstancesOf(st.id);
    const IntAffineMap& time = lowered[static_cast<size_t>(st.id)].time;
    for (size_t k = 0; k < iters.size(); ++k) {
      const IntEval e =
          time.Apply(iters[k].data(), times.data() + inst.size() * time_rows);
      if (e != IntEval::kOk) {
        return Status::InvalidArgument("time of " + st.name + " at " +
                                       IterString(iters[k]) + " " +
                                       IntEvalError(e));
      }
      inst.push_back({st.id, static_cast<uint32_t>(k)});
    }
  }
  auto iter_of = [&](const Instance& i) -> const std::vector<int64_t>& {
    return program.InstancesOf(i.stmt_id)[i.index];
  };
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  // The order is total on distinct instances, so any sort gives the same
  // result; merge sort keeps O(n log n) on the nearly sorted runs the
  // per-statement enumeration produces.
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    const int64_t* ta = times.data() + size_t{a} * time_rows;
    const int64_t* tb = times.data() + size_t{b} * time_rows;
    for (size_t r = 0; r < time_rows; ++r) {
      if (ta[r] != tb[r]) return ta[r] < tb[r];
    }
    if (inst[a].stmt_id != inst[b].stmt_id) {
      return inst[a].stmt_id < inst[b].stmt_id;
    }
    return iter_of(inst[a]) < iter_of(inst[b]);
  });

  AccessScript script;
  script.order.resize(n);
  script.group_of.resize(n);
  script.per_pos.resize(n);
  for (const Statement& st : stmts) {
    lowered[static_cast<size_t>(st.id)].pos_of.resize(
        program.InstancesOf(st.id).size());
  }
  for (size_t pos = 0; pos < n; ++pos) {
    const Instance& i = inst[perm[pos]];
    const int64_t* t = times.data() + size_t{perm[pos]} * time_rows;
    ScheduledInstance& si = script.order[pos];
    si.stmt_id = i.stmt_id;
    si.iter = iter_of(i);
    si.time.assign(t, t + time_rows);
    lowered[static_cast<size_t>(i.stmt_id)].pos_of[i.index] =
        static_cast<uint32_t>(pos);
    // Groups: instances sharing the time prefix (all but the last,
    // constant dimension).
    if (pos == 0 ||
        !std::equal(t, t + time_rows - 1,
                    times.data() + size_t{perm[pos - 1]} * time_rows)) {
      ++script.num_groups;
    }
    script.group_of[pos] = script.num_groups - 1;
  }

  // ---- one record per active access ---------------------------------------
  size_t max_records = 0;
  for (const Statement& st : stmts) {
    max_records += program.InstancesOf(st.id).size() * st.accesses.size();
  }
  script.records.reserve(max_records);
  for (size_t pos = 0; pos < n; ++pos) {
    const ScheduledInstance& si = script.order[pos];
    const Statement& st = program.statement(si.stmt_id);
    const LoweredStatement& ls = lowered[static_cast<size_t>(si.stmt_id)];
    script.per_pos[pos].first = static_cast<uint32_t>(script.records.size());
    for (const LoweredAccess& la : ls.accesses) {
      if (la.guarded) {
        bool active = false;
        const IntEval e = la.guard.Contains(si.iter.data(), &active);
        if (e != IntEval::kOk) {
          return Status::InvalidArgument(
              "guard of " + AccessName(program, st, la.access_idx) + " at " +
              IterString(si.iter) + " " + IntEvalError(e));
        }
        if (!active) continue;
      }
      const ArrayInfo& arr = arrays[static_cast<size_t>(la.array_id)];
      BlockAccessRecord rec;
      rec.pos = pos;
      rec.group = script.group_of[pos];
      rec.stmt_id = si.stmt_id;
      rec.access_idx = la.access_idx;
      rec.array_id = la.array_id;
      RIOT_RETURN_NOT_OK(
          BlockOf(program, st, la, arr, si.iter, coords.data(), &rec.block));
      rec.bytes = arr.BlockBytes();
      rec.type = la.type;
      script.records.push_back(rec);
    }
    script.per_pos[pos].second = static_cast<uint32_t>(script.records.size());
  }
  if (script.records.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("plan has more than 2^32 block accesses");
  }

  // ---- the realized sharing set -------------------------------------------
  auto find_pos = [&](int stmt_id, const std::vector<int64_t>& iter,
                      size_t* pos) {
    if (stmt_id < 0 || static_cast<size_t>(stmt_id) >= stmts.size()) {
      return false;
    }
    // Program::InstancesOf enumerates lexicographically.
    const auto& iters = program.InstancesOf(stmt_id);
    auto it = std::lower_bound(iters.begin(), iters.end(), iter);
    if (it == iters.end() || *it != iter) return false;
    const size_t index = static_cast<size_t>(it - iters.begin());
    *pos = lowered[static_cast<size_t>(stmt_id)].pos_of[index];
    return true;
  };
  // Record of access `access_idx` at `pos`; -1 when the access is inactive.
  auto find_record = [&](size_t pos, int access_idx) -> int64_t {
    for (uint32_t r = script.per_pos[pos].first;
         r < script.per_pos[pos].second; ++r) {
      if (script.records[r].access_idx == access_idx) return r;
    }
    return -1;
  };
  std::vector<char> saved_read(script.records.size(), 0);
  std::vector<char> ww_saved(script.records.size(), 0);
  auto valid_ref = [&](const AccessRef& r) {
    return r.stmt_id >= 0 && static_cast<size_t>(r.stmt_id) < stmts.size() &&
           r.access_idx >= 0 &&
           static_cast<size_t>(r.access_idx) <
               program.statement(r.stmt_id).accesses.size();
  };
  for (const CoAccess* o : realized) {
    if (!valid_ref(o->src) || !valid_ref(o->dst) ||
        program.access(o->src).array_id != o->array_id) {
      return Status::InvalidArgument(
          "realized opportunity names an access outside the program");
    }
    const bool src_w = o->src_type == AccessType::kWrite;
    const bool dst_w = o->dst_type == AccessType::kWrite;
    for (const InstancePair& pr : o->pairs) {
      size_t p1 = 0, p2 = 0;
      if (dst_w && src_w) {
        // W->W: the earlier write is a candidate; no retention needed.
        if (find_pos(o->src.stmt_id, pr.src_iter, &p1)) {
          const int64_t r = find_record(p1, o->src.access_idx);
          if (r >= 0) ww_saved[static_cast<size_t>(r)] = 1;
        }
        continue;
      }
      // W->R or R->R: the target's read is saved; the block stays in
      // memory from the source access through the target's group.
      if (!find_pos(o->src.stmt_id, pr.src_iter, &p1) ||
          !find_pos(o->dst.stmt_id, pr.dst_iter, &p2)) {
        return Status::InvalidArgument(
            "realized opportunity " + o->Label(program) +
            " names an instance outside the scheduled stream");
      }
      if (p1 > p2) {
        return Status::InvalidArgument("realized opportunity " +
                                       o->Label(program) +
                                       " runs backwards under the schedule");
      }
      const int64_t r = find_record(p2, o->dst.access_idx);
      if (r >= 0) saved_read[static_cast<size_t>(r)] = 1;
      const Statement& src_st = program.statement(o->src.stmt_id);
      const LoweredStatement& ls =
          lowered[static_cast<size_t>(o->src.stmt_id)];
      int64_t block = 0;
      RIOT_RETURN_NOT_OK(BlockOf(
          program, src_st,
          ls.accesses[ls.index_of_access[static_cast<size_t>(
              o->src.access_idx)]],
          arrays[static_cast<size_t>(o->array_id)], pr.src_iter,
          coords.data(), &block));
      script.spans.push_back({p1, script.group_of[p1], script.group_of[p2],
                              o->array_id, block});
    }
  }
  std::sort(script.spans.begin(), script.spans.end());
  script.spans.erase(std::unique(script.spans.begin(), script.spans.end()),
                     script.spans.end());
  // Per-block state below is indexed by dense block id.
  const size_t nblocks = static_cast<size_t>(base.back());
  auto dense = [&](int array_id, int64_t block) {
    return static_cast<size_t>(base[static_cast<size_t>(array_id)] + block);
  };

  // ---- saved flags: one backward sweep ------------------------------------
  // A W->W save is only honored when every read between the two writes is
  // itself served from memory; otherwise a disk read would observe a stale
  // block, so the first write must still be performed. (The paper's best
  // plans always pair W->W with the corresponding W->R, where this check is
  // vacuous; it keeps the executor correct for every plan in the space.)
  // A write of a non-persistent temporary whose every later read (before
  // the next write of the block) is served from memory never hits disk.
  // clean[block]: every read after the sweep point, up to the block's next
  // write, is saved.
  std::vector<char> clean(nblocks, 1);
  for (size_t i = script.records.size(); i-- > 0;) {
    BlockAccessRecord& rec = script.records[i];
    const size_t s = dense(rec.array_id, rec.block);
    if (rec.type == AccessType::kRead) {
      rec.saved = saved_read[i] != 0;
      if (!rec.saved) clean[s] = 0;
    } else {
      const bool persistent =
          arrays[static_cast<size_t>(rec.array_id)].persistent;
      rec.saved = clean[s] && (ww_saved[i] || !persistent);
      clean[s] = 1;
    }
  }
  // Retention: every record of a span's block at its source position.
  for (const RetentionSpan& span : script.spans) {
    const auto [b, e] = script.per_pos[span.begin_pos];
    for (uint32_t r = b; r < e; ++r) {
      BlockAccessRecord& rec = script.records[r];
      if (rec.array_id == span.array_id && rec.block == span.block) {
        rec.retain_until_group = std::max(
            rec.retain_until_group, static_cast<int64_t>(span.end_group));
      }
    }
  }

  // ---- forward sweep: dep_pos, use lists, footprints, requirement ---------
  std::vector<int64_t> last_write(nblocks, -1);
  std::vector<std::vector<int64_t>> uses(nblocks);
  // Retained blocks (dense id, bytes) and their furthest end group (-1 =
  // not retained); `stamp` dedupes the live set of one position.
  std::vector<int64_t> retained_end(nblocks, -1);
  std::vector<std::pair<size_t, int64_t>> retained;
  std::vector<size_t> stamp(nblocks, std::numeric_limits<size_t>::max());
  size_t next_span = 0;
  script.required_bytes.assign(n, 0);
  for (size_t pos = 0; pos < n; ++pos) {
    const auto [b, e] = script.per_pos[pos];
    int64_t inst_bytes = 0;
    for (uint32_t r = b; r < e; ++r) {
      BlockAccessRecord& rec = script.records[r];
      const size_t s = dense(rec.array_id, rec.block);
      if (rec.type == AccessType::kRead) {
        rec.dep_pos = last_write[s];
      } else {
        last_write[s] = static_cast<int64_t>(pos);
      }
      if (uses[s].empty() || uses[s].back() != static_cast<int64_t>(pos)) {
        uses[s].push_back(static_cast<int64_t>(pos));
      }
      inst_bytes += rec.bytes;
    }
    script.max_instance_bytes = std::max(script.max_instance_bytes, inst_bytes);

    // Requirement: expire retentions whose end group has completed,
    // activate spans whose source access is this instance, then sum the
    // distinct blocks of this instance and of the retained set.
    const int64_t group = static_cast<int64_t>(script.group_of[pos]);
    size_t keep = 0;
    for (const auto& block : retained) {
      if (retained_end[block.first] < group) {
        retained_end[block.first] = -1;
      } else {
        retained[keep++] = block;
      }
    }
    retained.resize(keep);
    for (; next_span < script.spans.size() &&
           script.spans[next_span].begin_pos <= pos;
         ++next_span) {
      const RetentionSpan& span = script.spans[next_span];
      const size_t s = dense(span.array_id, span.block);
      if (retained_end[s] < 0) {
        retained.emplace_back(
            s, arrays[static_cast<size_t>(span.array_id)].BlockBytes());
      }
      retained_end[s] =
          std::max(retained_end[s], static_cast<int64_t>(span.end_group));
    }
    int64_t required = 0;
    auto count = [&](size_t s, int64_t bytes) {
      if (stamp[s] == pos) return;
      stamp[s] = pos;
      required += bytes;
    };
    for (uint32_t r = b; r < e; ++r) {
      const BlockAccessRecord& rec = script.records[r];
      count(dense(rec.array_id, rec.block), rec.bytes);
    }
    for (const auto& block : retained) count(block.first, block.second);
    script.required_bytes[pos] = required;
  }

  // ---- next use: backward sweep -------------------------------------------
  // seen[s]: the smallest position >= the sweep point using s;
  // next[s]: the smallest position strictly after it.
  std::vector<int64_t> seen(nblocks, -1), next(nblocks, -1);
  for (size_t i = script.records.size(); i-- > 0;) {
    BlockAccessRecord& rec = script.records[i];
    const size_t s = dense(rec.array_id, rec.block);
    const int64_t pos = static_cast<int64_t>(rec.pos);
    if (seen[s] != pos) {
      next[s] = seen[s];
      seen[s] = pos;
    }
    rec.next_use_pos = next[s];
  }

  // Use lists in (array, block) order, which is dense-id order.
  for (size_t a = 0; a < arrays.size(); ++a) {
    for (int64_t block = 0; block < arrays[a].NumBlocks(); ++block) {
      std::vector<int64_t>& u = uses[dense(static_cast<int>(a), block)];
      if (u.empty()) continue;
      script.block_uses.emplace_hint(script.block_uses.end(),
                                     PoolKey{static_cast<int>(a), block},
                                     std::move(u));
    }
  }
  return script;
}

InstanceDag BuildInstanceDag(const AccessScript& script) {
  InstanceDag dag;
  const size_t n = script.per_pos.size();
  dag.succ.resize(n);
  dag.pred_count.assign(n, 0);

  std::set<std::pair<uint32_t, uint32_t>> edges;
  auto add_edge = [&](size_t from, size_t to) {
    if (from == to) return;  // accesses within one instance are not edges
    RIOT_CHECK_LT(from, to) << "dependence edge must point forward";
    auto key = std::make_pair(static_cast<uint32_t>(from),
                              static_cast<uint32_t>(to));
    if (edges.insert(key).second) {
      dag.succ[from].push_back(key.second);
      ++dag.pred_count[to];
    }
  };

  // Per-(array, block) scan state. `readers` holds every read since the
  // last write (WAR sources); `materializer` is the latest access that
  // (re)loaded or produced the in-memory frame (write or non-saved read),
  // which saved reads must run after.
  struct BlockState {
    int64_t last_write = -1;
    int64_t materializer = -1;
    std::vector<uint32_t> readers;
  };
  std::map<std::pair<int, int64_t>, BlockState> state;

  for (const BlockAccessRecord& rec : script.records) {
    BlockState& bs = state[{rec.array_id, rec.block}];
    if (rec.type == AccessType::kRead) {
      if (bs.last_write >= 0) {
        add_edge(static_cast<size_t>(bs.last_write), rec.pos);  // RAW
      }
      if (rec.saved && bs.materializer >= 0) {
        add_edge(static_cast<size_t>(bs.materializer), rec.pos);
      }
      if (!rec.saved) bs.materializer = static_cast<int64_t>(rec.pos);
      bs.readers.push_back(static_cast<uint32_t>(rec.pos));
    } else {
      for (uint32_t r : bs.readers) add_edge(r, rec.pos);  // WAR
      if (bs.last_write >= 0) {
        add_edge(static_cast<size_t>(bs.last_write), rec.pos);  // WAW
      }
      bs.last_write = static_cast<int64_t>(rec.pos);
      bs.materializer = static_cast<int64_t>(rec.pos);
      bs.readers.clear();
    }
  }

  // Sort successor lists and derive the level structure. Position order is
  // topological (edges point forward), so one forward sweep suffices.
  std::vector<size_t> depth(n, 0);
  for (size_t p = 0; p < n; ++p) {
    std::sort(dag.succ[p].begin(), dag.succ[p].end());
    for (uint32_t s : dag.succ[p]) {
      depth[s] = std::max(depth[s], depth[p] + 1);
    }
  }
  std::map<size_t, size_t> width_at;
  for (size_t p = 0; p < n; ++p) {
    dag.critical_path = std::max(dag.critical_path, depth[p] + 1);
    dag.max_width = std::max(dag.max_width, ++width_at[depth[p]]);
  }
  return dag;
}

}  // namespace riot
