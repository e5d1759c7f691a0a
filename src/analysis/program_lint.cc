#include "analysis/program_lint.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "ir/scalar_ops.h"
#include "kernels/dense.h"
#include "linalg/rational.h"

namespace riot {

const char* LintCodeName(LintCode code) {
  switch (code) {
    case LintCode::kEmptyDomain: return "empty-domain";
    case LintCode::kMalformedAccess: return "malformed-access";
    case LintCode::kSubscriptOutOfGrid: return "subscript-out-of-grid";
    case LintCode::kOpArityMismatch: return "op-arity-mismatch";
    case LintCode::kMalformedTape: return "malformed-tape";
    case LintCode::kUnguardedAccumulator: return "unguarded-accumulator";
    case LintCode::kUseBeforeDef: return "use-before-def";
    case LintCode::kElidedWriteRead: return "elided-write-read";
    case LintCode::kBadDepPos: return "bad-dep-pos";
    case LintCode::kDagInconsistent: return "dag-inconsistent";
    case LintCode::kMissingDagEdge: return "missing-dag-edge";
  }
  return "?";
}

std::string LintDiag::ToString() const {
  std::ostringstream os;
  os << "[" << LintCodeName(code) << "]";
  if (stmt_id >= 0) os << " stmt " << stmt_id;
  if (access_idx >= 0) os << " access " << access_idx;
  if (pos >= 0) os << " pos " << pos;
  os << ": " << message;
  return os.str();
}

bool LintReport::Has(LintCode code) const {
  for (const LintDiag& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

size_t LintReport::CountOf(LintCode code) const {
  size_t n = 0;
  for (const LintDiag& d : diags) {
    if (d.code == code) ++n;
  }
  return n;
}

std::string LintReport::ToString() const {
  std::ostringstream os;
  if (diags.empty()) {
    os << "lint: clean";
  } else {
    os << "lint: " << diags.size() << " finding(s)";
  }
  if (instances_checked > 0) {
    os << " (" << instances_checked << " instances, DAG cross-check "
       << (dag_cross_checked ? "ran" : "skipped") << ")";
  }
  for (const LintDiag& d : diags) os << "\n  " << d.ToString();
  return os.str();
}

namespace {

void Add(LintReport* report, LintCode code, int stmt_id, int access_idx,
         int64_t pos, std::string message) {
  LintDiag d;
  d.code = code;
  d.stmt_id = stmt_id;
  d.access_idx = access_idx;
  d.pos = pos;
  d.message = std::move(message);
  report->diags.push_back(std::move(d));
}

// Rational bounds of one phi row (coeffs . iter + const) over `region`.
// Returns false when the row is unbounded over the region.
bool RowBounds(const Polyhedron& region, const RMatrix& phi, size_t row,
               Rational* lo, Rational* hi) {
  const size_t depth = region.dim();
  RVector obj(depth);
  for (size_t d = 0; d < depth; ++d) obj[d] = phi.At(row, d);
  auto mn = region.Minimize(obj);
  auto mx = region.Maximize(obj);
  if (!mn.has_value() || !mx.has_value()) return false;
  const Rational c = phi.At(row, depth);
  *lo = *mn + c;
  *hi = *mx + c;
  return true;
}

// True when `idx` names a valid access of `st` with type `want`.
bool ValidAccess(const Statement& st, int idx, AccessType want) {
  return idx >= 0 && idx < static_cast<int>(st.accesses.size()) &&
         st.accesses[static_cast<size_t>(idx)].type == want;
}

// Validate a kFused statement's scalar tape: post-order positions only,
// per-code arity, loads naming real read accesses, resolvable scalar fns,
// and no read access the tape never consumes (paid I/O feeding nothing).
void LintFusedTape(const Statement& st, LintReport* report) {
  const StatementOp& op = *st.op;
  const int sid = st.id;
  if (op.tape.empty()) {
    Add(report, LintCode::kMalformedTape, sid, -1, -1,
        "fused statement has an empty tape");
    return;
  }
  if (op.tape.size() > static_cast<size_t>(kMaxFusedTapeOps)) {
    Add(report, LintCode::kMalformedTape, sid, -1, -1,
        "tape length " + std::to_string(op.tape.size()) +
            " exceeds kMaxFusedTapeOps");
    return;
  }
  if (op.acc >= 0 || op.reduction_iter >= 0) {
    Add(report, LintCode::kMalformedTape, sid, op.acc, -1,
        "fused statements are pure elementwise; acc/reduction_iter must be "
        "unset");
  }
  std::vector<bool> read_consumed(st.accesses.size(), false);
  for (size_t p = 0; p < op.tape.size(); ++p) {
    const TapeOp& t = op.tape[p];
    const std::string at = "tape[" + std::to_string(p) + "] ";
    const bool unary = t.code == TapeOp::Code::kScale ||
                       t.code == TapeOp::Code::kMap;
    if (t.code == TapeOp::Code::kLoad) {
      if (!ValidAccess(st, t.a, AccessType::kRead)) {
        Add(report, LintCode::kMalformedTape, sid, t.a, -1,
            at + "load does not name a read access");
      } else {
        read_consumed[static_cast<size_t>(t.a)] = true;
      }
      if (t.b != -1) {
        Add(report, LintCode::kMalformedTape, sid, t.a, -1,
            at + "load must leave `b` unset");
      }
      continue;
    }
    if (t.a < 0 || t.a >= static_cast<int>(p)) {
      Add(report, LintCode::kMalformedTape, sid, -1, -1,
          at + "operand `a` is not an earlier tape position");
    }
    if (unary) {
      if (t.b != -1) {
        Add(report, LintCode::kMalformedTape, sid, -1, -1,
            at + "unary op must leave `b` unset");
      }
    } else if (t.b < 0 || t.b >= static_cast<int>(p)) {
      Add(report, LintCode::kMalformedTape, sid, -1, -1,
          at + "operand `b` is not an earlier tape position");
    }
    if (t.code == TapeOp::Code::kMap && !IsScalarMap(t.scalar_fn)) {
      Add(report, LintCode::kMalformedTape, sid, -1, -1,
          at + "map references no registered unary scalar fn");
    }
    if (t.code == TapeOp::Code::kZip && !IsScalarZip(t.scalar_fn)) {
      Add(report, LintCode::kMalformedTape, sid, -1, -1,
          at + "zip references no registered binary scalar fn");
    }
  }
  for (size_t i = 0; i < st.accesses.size(); ++i) {
    if (st.accesses[i].type == AccessType::kRead && !read_consumed[i]) {
      Add(report, LintCode::kMalformedTape, sid, static_cast<int>(i), -1,
          "read access is never loaded by the tape (I/O feeding nothing)");
    }
  }
}

void LintStatementOp(const Program& program, const Statement& st,
                     LintReport* report) {
  const StatementOp& op = *st.op;
  const int sid = st.id;
  using Kind = StatementOp::Kind;
  if (op.kind == Kind::kInput) {
    Add(report, LintCode::kOpArityMismatch, sid, -1, -1,
        "kInput is an expression-graph leaf; it cannot appear on a "
        "statement");
    return;
  }
  if (!ValidAccess(st, op.out, AccessType::kWrite)) {
    Add(report, LintCode::kOpArityMismatch, sid, op.out, -1,
        "op `out` does not name a write access of the statement");
    return;
  }
  const bool binary = op.kind == Kind::kAdd || op.kind == Kind::kSub ||
                      op.kind == Kind::kGemm || op.kind == Kind::kZip;
  if (!ValidAccess(st, op.a, AccessType::kRead)) {
    Add(report, LintCode::kOpArityMismatch, sid, op.a, -1,
        "op `a` does not name a read access of the statement");
  }
  if (binary && !ValidAccess(st, op.b, AccessType::kRead)) {
    Add(report, LintCode::kOpArityMismatch, sid, op.b, -1,
        std::string(StatementOpKindName(op.kind)) +
            " is binary but `b` does not name a read access");
  }
  if (op.kind == Kind::kMap && !IsScalarMap(op.scalar_fn)) {
    Add(report, LintCode::kOpArityMismatch, sid, -1, -1,
        "kMap statement references no registered unary scalar fn");
  }
  if (op.kind == Kind::kZip && !IsScalarZip(op.scalar_fn)) {
    Add(report, LintCode::kOpArityMismatch, sid, -1, -1,
        "kZip statement references no registered binary scalar fn");
  }
  if (op.kind == Kind::kFused) {
    LintFusedTape(st, report);
  } else if (!op.tape.empty()) {
    Add(report, LintCode::kMalformedTape, sid, -1, -1,
        std::string(StatementOpKindName(op.kind)) +
            " statement carries a tape; only kFused may");
  }
  if (op.reduction_iter >= static_cast<int>(st.depth())) {
    Add(report, LintCode::kOpArityMismatch, sid, -1, -1,
        "reduction_iter " + std::to_string(op.reduction_iter) +
            " out of range for depth " + std::to_string(st.depth()));
    return;
  }
  if (op.acc < 0) return;
  if (!ValidAccess(st, op.acc, AccessType::kRead)) {
    Add(report, LintCode::kOpArityMismatch, sid, op.acc, -1,
        "op `acc` does not name a read access of the statement");
    return;
  }
  const Access& acc = st.accesses[static_cast<size_t>(op.acc)];
  const Access& out = st.accesses[static_cast<size_t>(op.out)];
  if (acc.array_id != out.array_id || !(acc.phi == out.phi)) {
    Add(report, LintCode::kOpArityMismatch, sid, op.acc, -1,
        "accumulator access does not alias the write access (different "
        "array or subscript map)");
    return;
  }
  if (op.reduction_iter < 0) return;
  // The kernel initializes the output at reduction-start iterations
  // (iter[reduction_iter] <= 0) and accumulates elsewhere; the carry read
  // must be guarded off the start, or the kernel consumes a frame nothing
  // has initialized (a zero-filled pool frame at best, stale disk at
  // worst).
  Polyhedron start = st.domain;
  RVector neg(st.domain.dim());
  neg[static_cast<size_t>(op.reduction_iter)] = Rational(-1);
  start.AddGe(std::move(neg), Rational(0));  // iter[r] <= 0
  if (acc.guard.has_value() &&
      acc.guard->dim() == st.domain.dim()) {
    start = start.Intersect(*acc.guard);
  } else if (acc.guard.has_value()) {
    return;  // malformed guard reported by the access checks
  }
  if (!start.IsEmptyInteger()) {
    Add(report, LintCode::kUnguardedAccumulator, sid, op.acc, -1,
        acc.guard.has_value()
            ? "accumulator self-read guard does not exclude the "
              "reduction-start iterations"
            : "accumulator self-read has no guard; it is live at the "
              "reduction-start iterations");
  }
  (void)program;
}

}  // namespace

Result<LintReport> LintProgram(const Program& program) {
  LintReport report;
  const auto& arrays = program.arrays();
  for (const Statement& st : program.statements()) {
    const size_t depth = st.depth();
    const int sid = st.id;
    if (st.domain.dim() != depth) {
      Add(&report, LintCode::kEmptyDomain, sid, -1, -1,
          "domain dimensionality " + std::to_string(st.domain.dim()) +
              " != statement depth " + std::to_string(depth));
      continue;
    }
    bool domain_ok = true;
    for (size_t d = 0; d < depth && domain_ok; ++d) {
      if (!st.domain.IntegerVarBounds(d).has_value()) {
        Add(&report, LintCode::kEmptyDomain, sid, -1, -1,
            "domain is empty or unbounded in iterator " +
                std::to_string(d));
        domain_ok = false;
      }
    }
    if (!domain_ok) continue;
    if (st.domain.IsEmptyInteger()) {
      Add(&report, LintCode::kEmptyDomain, sid, -1, -1,
          "domain contains no integer points");
      continue;
    }
    for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
      const Access& a = st.accesses[ai];
      const int aidx = static_cast<int>(ai);
      if (a.array_id < 0 ||
          a.array_id >= static_cast<int>(arrays.size())) {
        Add(&report, LintCode::kMalformedAccess, sid, aidx, -1,
            "array id " + std::to_string(a.array_id) + " out of range");
        continue;
      }
      const ArrayInfo& arr = arrays[static_cast<size_t>(a.array_id)];
      if (a.phi.rows() != arr.ndim() || a.phi.cols() != depth + 1) {
        Add(&report, LintCode::kMalformedAccess, sid, aidx, -1,
            "phi is " + std::to_string(a.phi.rows()) + "x" +
                std::to_string(a.phi.cols()) + ", expected " +
                std::to_string(arr.ndim()) + "x" +
                std::to_string(depth + 1) + " for array " + arr.name);
        continue;
      }
      if (a.guard.has_value() && a.guard->dim() != depth) {
        Add(&report, LintCode::kMalformedAccess, sid, aidx, -1,
            "guard dimensionality " + std::to_string(a.guard->dim()) +
                " != statement depth " + std::to_string(depth));
        continue;
      }
      const Polyhedron region = a.guard.has_value()
                                    ? st.domain.Intersect(*a.guard)
                                    : st.domain;
      if (region.IsEmptyInteger()) continue;  // access never occurs
      for (size_t r = 0; r < arr.ndim(); ++r) {
        Rational lo, hi;
        if (!RowBounds(region, a.phi, r, &lo, &hi)) {
          Add(&report, LintCode::kSubscriptOutOfGrid, sid, aidx, -1,
              "subscript dim " + std::to_string(r) +
                  " is unbounded over the guarded domain");
          continue;
        }
        if (lo < Rational(0) || hi > Rational(arr.grid[r] - 1)) {
          Add(&report, LintCode::kSubscriptOutOfGrid, sid, aidx, -1,
              "subscript dim " + std::to_string(r) + " spans [" +
                  lo.ToString() + ", " + hi.ToString() + "], grid of " +
                  arr.name + " allows [0, " +
                  std::to_string(arr.grid[r] - 1) + "]");
        }
      }
    }
    if (st.op.has_value()) LintStatementOp(program, st, &report);
  }
  return report;
}

namespace {

// Collapsed per-position access flags of one (array, block).
struct BlockPosUse {
  size_t pos = 0;
  bool has_write = false;
  bool has_read = false;
  bool has_nonsaved_read = false;
  bool has_saved_read = false;
};

// Dense forward-reachability over the DAG: reach[p] answers "is q (> p)
// reachable from p" in O(1) after an O(E * n / 64) closure. Edges always
// point forward, so descending position order is a reverse topological
// order.
class Reachability {
 public:
  Reachability(const InstanceDag& dag, size_t n)
      : n_(n), words_((n + 63) / 64), bits_(n * words_, 0) {
    for (size_t p = n; p-- > 0;) {
      uint64_t* row = Row(p);
      for (uint32_t s : dag.succ[p]) {
        if (s >= n) continue;  // structural check reports it
        row[s / 64] |= uint64_t{1} << (s % 64);
        const uint64_t* srow = Row(s);
        for (size_t w = 0; w < words_; ++w) row[w] |= srow[w];
      }
    }
  }

  bool Reaches(size_t p, size_t q) const {
    return (Row(p)[q / 64] >> (q % 64)) & 1;
  }

 private:
  uint64_t* Row(size_t p) { return bits_.data() + p * words_; }
  const uint64_t* Row(size_t p) const { return bits_.data() + p * words_; }
  size_t n_;
  size_t words_;
  std::vector<uint64_t> bits_;
};

std::string PairMessage(const char* kind, size_t p, size_t q) {
  return std::string(kind) + ": instance " + std::to_string(q) +
         " conflicts with instance " + std::to_string(p) +
         " on the same block but no dependence path orders them";
}

}  // namespace

Result<LintReport> LintScript(const Program& program,
                              const AccessScript& script,
                              const InstanceDag& dag,
                              const LintOptions& opts) {
  LintReport report;
  const size_t n = script.order.size();
  report.instances_checked = n;

  // ---- per-record checks + per-block record streams -----------------------
  // Keyed by (array, block); values are indices into script.records in
  // stream order (records are emitted position-ascending).
  std::map<std::pair<int, int64_t>, std::vector<size_t>> by_block;
  for (size_t ri = 0; ri < script.records.size(); ++ri) {
    const BlockAccessRecord& rec = script.records[ri];
    by_block[{rec.array_id, rec.block}].push_back(ri);
    const ArrayInfo& arr = program.array(rec.array_id);
    if (rec.type == AccessType::kRead && !arr.persistent &&
        rec.dep_pos < 0) {
      Add(&report, LintCode::kUseBeforeDef, rec.stmt_id, rec.access_idx,
          static_cast<int64_t>(rec.pos),
          "read of non-persistent " + arr.name + " block " +
              std::to_string(rec.block) +
              " with no earlier write in the plan (uninitialized scratch)");
    }
    if (rec.type == AccessType::kRead && rec.dep_pos >= 0) {
      bool found = false;
      if (rec.dep_pos < static_cast<int64_t>(rec.pos) &&
          rec.dep_pos < static_cast<int64_t>(script.per_pos.size())) {
        const auto [b, e] = script.per_pos[static_cast<size_t>(rec.dep_pos)];
        for (uint32_t j = b; j < e && !found; ++j) {
          const BlockAccessRecord& w = script.records[j];
          found = w.type == AccessType::kWrite &&
                  w.array_id == rec.array_id && w.block == rec.block;
        }
      }
      if (!found) {
        Add(&report, LintCode::kBadDepPos, rec.stmt_id, rec.access_idx,
            static_cast<int64_t>(rec.pos),
            "dep_pos " + std::to_string(rec.dep_pos) +
                " is not an earlier write of " + arr.name + " block " +
                std::to_string(rec.block));
      }
    }
  }

  // ---- write elision vs later disk reads ----------------------------------
  // After a saved (W->W) or elided write the disk image is stale until the
  // next write-through materializes the block: any non-saved read in that
  // window reads garbage, and a persistent array must not end the plan in
  // that state.
  for (const auto& [key, recs] : by_block) {
    const ArrayInfo& arr = program.array(key.first);
    bool unmaterialized = false;
    size_t eliding_pos = 0;
    for (size_t ri : recs) {
      const BlockAccessRecord& rec = script.records[ri];
      if (rec.type == AccessType::kRead) {
        if (!rec.saved && unmaterialized) {
          Add(&report, LintCode::kElidedWriteRead, rec.stmt_id,
              rec.access_idx, static_cast<int64_t>(rec.pos),
              "disk read of " + arr.name + " block " +
                  std::to_string(key.second) +
                  " after its write at instance " +
                  std::to_string(eliding_pos) + " was saved/elided");
        }
      } else {
        if (rec.saved) eliding_pos = rec.pos;
        unmaterialized = rec.saved;
      }
    }
    if (unmaterialized && arr.persistent) {
      Add(&report, LintCode::kElidedWriteRead, -1, -1,
          static_cast<int64_t>(eliding_pos),
          "final write of persistent " + arr.name + " block " +
              std::to_string(key.second) +
              " is saved/elided; the disk image ends stale");
    }
  }

  // ---- DAG structural consistency -----------------------------------------
  bool structure_ok = true;
  if (dag.succ.size() != n || dag.pred_count.size() != n) {
    Add(&report, LintCode::kDagInconsistent, -1, -1, -1,
        "DAG sized for " + std::to_string(dag.succ.size()) + "/" +
            std::to_string(dag.pred_count.size()) + " instances, stream has " +
            std::to_string(n));
    structure_ok = false;
  }
  if (structure_ok) {
    std::vector<uint32_t> indeg(n, 0);
    for (size_t p = 0; p < n && structure_ok; ++p) {
      for (uint32_t s : dag.succ[p]) {
        if (s <= p || s >= n) {
          Add(&report, LintCode::kDagInconsistent, -1, -1,
              static_cast<int64_t>(p),
              "edge " + std::to_string(p) + " -> " + std::to_string(s) +
                  " does not point forward in scheduled order");
          structure_ok = false;
          break;
        }
        ++indeg[s];
      }
    }
    for (size_t q = 0; structure_ok && q < n; ++q) {
      if (indeg[q] != dag.pred_count[q]) {
        Add(&report, LintCode::kDagInconsistent, -1, -1,
            static_cast<int64_t>(q),
            "pred_count[" + std::to_string(q) + "] = " +
                std::to_string(dag.pred_count[q]) + " but " +
                std::to_string(indeg[q]) + " edge(s) point at it");
        structure_ok = false;
      }
    }
  }

  // ---- DAG completeness: brute-force conflicting-pair enumeration ---------
  if (structure_ok && n > 0 && n <= opts.max_dag_instances) {
    report.dag_cross_checked = true;
    Reachability reach(dag, n);
    for (const auto& [key, recs] : by_block) {
      // Collapse records to per-position flags (an instance may read and
      // write the same block; its internal order is kernel-local).
      std::vector<BlockPosUse> uses;
      for (size_t ri : recs) {
        const BlockAccessRecord& rec = script.records[ri];
        if (uses.empty() || uses.back().pos != rec.pos) {
          uses.push_back(BlockPosUse{rec.pos, false, false, false, false});
        }
        BlockPosUse& u = uses.back();
        if (rec.type == AccessType::kWrite) {
          u.has_write = true;
        } else {
          u.has_read = true;
          (rec.saved ? u.has_saved_read : u.has_nonsaved_read) = true;
        }
      }
      // Reduced conflict set: ordering each access against the latest
      // earlier write (RAW/WAW) and each write against the reads since
      // that write (WAR) covers every conflicting pair by reachability
      // transitivity. Saved reads with no earlier writer must still be
      // ordered after the access that brought the block in (the
      // read-read materialization edge, the one non-hazard edge kind) —
      // unless the instance also reads the block unsaved or writes it,
      // in which case it is its own materializer / is ordered by WAR and
      // no cross-instance edge is required.
      int64_t last_write = -1;
      int64_t last_bringer = -1;  // latest write or non-saved read
      std::vector<size_t> reads_since_write;
      for (const BlockPosUse& u : uses) {
        if (u.has_read) {
          if (last_write >= 0 &&
              !reach.Reaches(static_cast<size_t>(last_write), u.pos)) {
            Add(&report, LintCode::kMissingDagEdge, -1, -1,
                static_cast<int64_t>(u.pos),
                PairMessage("read-after-write",
                            static_cast<size_t>(last_write), u.pos));
          } else if (u.has_saved_read && !u.has_nonsaved_read &&
                     !u.has_write && last_write < 0 && last_bringer >= 0 &&
                     !reach.Reaches(static_cast<size_t>(last_bringer),
                                    u.pos)) {
            Add(&report, LintCode::kMissingDagEdge, -1, -1,
                static_cast<int64_t>(u.pos),
                PairMessage("saved-read materialization",
                            static_cast<size_t>(last_bringer), u.pos));
          }
        }
        if (u.has_write) {
          if (last_write >= 0 &&
              !reach.Reaches(static_cast<size_t>(last_write), u.pos)) {
            Add(&report, LintCode::kMissingDagEdge, -1, -1,
                static_cast<int64_t>(u.pos),
                PairMessage("write-after-write",
                            static_cast<size_t>(last_write), u.pos));
          }
          for (size_t r : reads_since_write) {
            if (!reach.Reaches(r, u.pos)) {
              Add(&report, LintCode::kMissingDagEdge, -1, -1,
                  static_cast<int64_t>(u.pos),
                  PairMessage("write-after-read", r, u.pos));
            }
          }
        }
        // A position that writes subsumes its own read for later
        // conflicts (path to the write covers the whole instance).
        if (u.has_write) {
          last_write = static_cast<int64_t>(u.pos);
          last_bringer = static_cast<int64_t>(u.pos);
          reads_since_write.clear();
        } else if (u.has_read) {
          reads_since_write.push_back(u.pos);
          if (u.has_nonsaved_read) {
            last_bringer = static_cast<int64_t>(u.pos);
          }
        }
      }
    }
  }
  return report;
}

Result<LintReport> LintPlan(const Program& program, const Schedule& schedule,
                            const std::vector<const CoAccess*>& realized,
                            const LintOptions& opts) {
  auto prog_report = LintProgram(program);
  RIOT_RETURN_NOT_OK(prog_report.status());
  LintReport merged = std::move(prog_report).ValueOrDie();
  if (!merged.ok()) return merged;  // the findings already name the fault
  auto lowered = LowerPlan(program, schedule, realized);
  RIOT_RETURN_NOT_OK(lowered.status());
  const AccessScript& script = *lowered;
  const InstanceDag dag = BuildInstanceDag(script);
  auto script_report = LintScript(program, script, dag, opts);
  RIOT_RETURN_NOT_OK(script_report.status());
  LintReport sr = std::move(script_report).ValueOrDie();
  merged.instances_checked = sr.instances_checked;
  merged.dag_cross_checked = sr.dag_cross_checked;
  for (LintDiag& d : sr.diags) merged.diags.push_back(std::move(d));
  return merged;
}

}  // namespace riot
