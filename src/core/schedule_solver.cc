#include "core/schedule_solver.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "ilp/ilp.h"
#include "ilp/simplex.h"
#include "util/logging.h"

namespace riot {

namespace {

// Variable layout of one schedule row across all statements:
// statement s owns [offset[s], offset[s] + depth(s)] — iteration coefficients
// followed by one constant term.
struct Layout {
  std::vector<size_t> offset;
  std::vector<size_t> depth;
  size_t dim = 0;
};

Layout MakeLayout(const Program& prog) {
  Layout l;
  for (const auto& s : prog.statements()) {
    l.offset.push_back(l.dim);
    l.depth.push_back(s.depth());
    l.dim += s.depth() + 1;
  }
  return l;
}

// Linear form (over one row's joint coefficient vector) whose value equals
// theta_dst(y) - theta_src(x).
RVector PairForm(const Layout& l, int src_stmt,
                 const std::vector<int64_t>& x, int dst_stmt,
                 const std::vector<int64_t>& y) {
  RVector f(l.dim);
  const size_t od = l.offset[static_cast<size_t>(dst_stmt)];
  for (size_t j = 0; j < y.size(); ++j) f[od + j] += Rational(y[j]);
  f[od + y.size()] += Rational(1);
  const size_t os = l.offset[static_cast<size_t>(src_stmt)];
  for (size_t j = 0; j < x.size(); ++j) f[os + j] -= Rational(x[j]);
  f[os + x.size()] -= Rational(1);
  return f;
}

std::string ConstraintKey(const LpConstraint& c) {
  std::ostringstream os;
  os << static_cast<int>(c.op) << "|" << c.rhs.ToString();
  for (size_t i = 0; i < c.coeffs.size(); ++i) {
    if (!c.coeffs[i].IsZero()) os << "|" << i << ":" << c.coeffs[i].ToString();
  }
  return os.str();
}

// Constraint pool with deduplication (many instance pairs induce the same
// linear constraint on schedule coefficients).
class Pool {
 public:
  void Add(LpConstraint c) {
    std::string key = ConstraintKey(c);
    if (seen_.insert(std::move(key)).second) {
      cons_.push_back(std::move(c));
    }
  }
  void AddAll(const std::vector<LpConstraint>& cs) {
    for (const auto& c : cs) Add(c);
  }
  const std::vector<LpConstraint>& constraints() const { return cons_; }
  size_t size() const { return cons_.size(); }
  void TruncateTo(size_t n) {
    while (cons_.size() > n) {
      seen_.erase(ConstraintKey(cons_.back()));
      cons_.pop_back();
    }
  }

 private:
  std::vector<LpConstraint> cons_;
  std::set<std::string> seen_;
};

}  // namespace

ScheduleSolver::ScheduleSolver(const Program& program,
                               std::vector<CoAccess> dependences,
                               SolverOptions options)
    : prog_(program), deps_(std::move(dependences)), opts_(options) {}

std::optional<Schedule> ScheduleSolver::FindSchedule(
    const std::vector<const CoAccess*>& q) const {
  const Layout layout = MakeLayout(prog_);
  const size_t dmax = prog_.MaxDepth();
  const size_t n = prog_.statements().size();

  std::vector<std::vector<std::vector<int64_t>>> rows(n);  // sampled, per stmt
  std::vector<size_t> ki(n, 0);  // independent rows so far
  std::vector<bool> dep_satisfied(deps_.size(), false);

  auto feasible = [&](const std::vector<LpConstraint>& cs) {
    ++stats_.lp_calls;
    auto f = LpFeasible(layout.dim, cs);
    if (!f.ok()) {
      // Pivot budget exhausted: treat the candidate row as infeasible —
      // the solver simply fails to find a schedule for this combination
      // rather than hanging or aborting the whole optimization.
      RIOT_LOG(Warning) << "schedule LP gave up: " << f.status().ToString();
      return false;
    }
    return *f;
  };

  for (size_t d = 1; d <= dmax; ++d) {
    Pool pool;
    // Weakly satisfy remaining dependence constraints (Alg. 3 lines 11-12).
    for (size_t di = 0; di < deps_.size(); ++di) {
      if (dep_satisfied[di]) continue;
      for (const auto& pr : deps_[di].generators) {
        pool.Add({PairForm(layout, deps_[di].src.stmt_id, pr.src_iter,
                           deps_[di].dst.stmt_id, pr.dst_iter),
                  CmpOp::kGe, Rational(0)});
      }
    }
    // Sharing opportunity constraints (Table 1; Alg. 3 lines 13-26).
    for (const CoAccess* o : q) {
      const bool self = o->IsSelf();
      if (!self || d < dmax) {
        for (const auto& pr : o->generators) {
          pool.Add({PairForm(layout, o->src.stmt_id, pr.src_iter,
                             o->dst.stmt_id, pr.dst_iter),
                    CmpOp::kEq, Rational(0)});
        }
        continue;
      }
      // Self opportunity at the deepest non-constant dimension.
      const bool write_src = o->src_type == AccessType::kWrite ||
                             o->dst_type == AccessType::kWrite;
      if (write_src) {
        for (const auto& pr : o->generators) {
          pool.Add({PairForm(layout, o->src.stmt_id, pr.src_iter,
                             o->dst.stmt_id, pr.dst_iter),
                    CmpOp::kEq, Rational(1)});
        }
      } else {
        // Self R->R: a uniform c in {+1, -1} (new schedule may reverse the
        // two reads). Greedily try +1 then -1.
        bool placed = false;
        for (int sign : {+1, -1}) {
          size_t mark = pool.size();
          for (const auto& pr : o->generators) {
            pool.Add({PairForm(layout, o->src.stmt_id, pr.src_iter,
                               o->dst.stmt_id, pr.dst_iter),
                      CmpOp::kEq, Rational(sign)});
          }
          if (feasible(pool.constraints())) {
            placed = true;
            break;
          }
          pool.TruncateTo(mark);
        }
        if (!placed) return std::nullopt;
      }
    }
    if (!feasible(pool.constraints())) return std::nullopt;

    // Dimensionality constraints (Alg. 3 lines 28-38, EnumRow = Alg. 1).
    std::vector<std::vector<size_t>> nonzero_groups;
    for (size_t i = 0; i < n; ++i) {
      const size_t ds = layout.depth[i];
      std::vector<int> l_options;
      if (dmax - (d - 1) == ds - ki[i]) {
        l_options = {1};  // forced independent to reach full rank
      } else if (ki[i] == ds) {
        l_options = {0};  // rank complete; only dependent rows remain
      } else {
        l_options = {0, 1};
      }
      // Previous rows of this statement, iteration-coefficient part only.
      RMatrix prev(0, ds);
      for (const auto& row : rows[i]) {
        RVector v(ds);
        for (size_t j = 0; j < ds; ++j) {
          v[j] = Rational(row[layout.offset[i] + j]);
        }
        prev.AppendRow(v);
      }
      bool locked = false;
      for (int l : l_options) {
        size_t mark = pool.size();
        if (l == 0) {
          // Row must lie in the span of previous rows: orthogonal to every
          // null-space basis vector of prev.
          for (const auto& b : prev.NullSpaceBasis()) {
            RVector c(layout.dim);
            for (size_t j = 0; j < ds; ++j) c[layout.offset[i] + j] = b[j];
            pool.Add({std::move(c), CmpOp::kEq, Rational(0)});
          }
        } else {
          // Row must lie in the null space of previous rows (guarantees
          // linear independence for a nonzero row).
          for (size_t r = 0; r < prev.rows(); ++r) {
            RVector c(layout.dim);
            for (size_t j = 0; j < ds; ++j) {
              c[layout.offset[i] + j] = prev.At(r, j);
            }
            pool.Add({std::move(c), CmpOp::kEq, Rational(0)});
          }
        }
        bool ok = feasible(pool.constraints());
        if (ok && l == 1) {
          // Additionally require that a nonzero iteration part exists.
          ok = false;
          for (size_t j = 0; j < ds && !ok; ++j) {
            for (int sign : {+1, -1}) {
              auto cs = pool.constraints();
              RVector c(layout.dim);
              c[layout.offset[i] + j] = Rational(1);
              cs.push_back({std::move(c), sign > 0 ? CmpOp::kGe : CmpOp::kLe,
                            Rational(sign)});
              if (feasible(cs)) {
                ok = true;
                break;
              }
            }
          }
        }
        if (ok) {
          ki[i] += static_cast<size_t>(l);
          if (l == 1) {
            std::vector<size_t> group;
            for (size_t j = 0; j < ds; ++j) {
              group.push_back(layout.offset[i] + j);
            }
            nonzero_groups.push_back(std::move(group));
          }
          locked = true;
          break;
        }
        pool.TruncateTo(mark);
      }
      if (!locked) return std::nullopt;
    }

    // Strongly satisfy remaining dependences where possible (lines 39-43).
    for (size_t di = 0; di < deps_.size(); ++di) {
      if (dep_satisfied[di]) continue;
      size_t mark = pool.size();
      for (const auto& pr : deps_[di].generators) {
        pool.Add({PairForm(layout, deps_[di].src.stmt_id, pr.src_iter,
                           deps_[di].dst.stmt_id, pr.dst_iter),
                  CmpOp::kGe, Rational(1)});
      }
      if (feasible(pool.constraints())) {
        dep_satisfied[di] = true;
      } else {
        pool.TruncateTo(mark);
      }
    }

    // Sample an integer row (line 44), honoring nonzero groups via DFS.
    IlpOptions io;
    io.var_bound = opts_.coeff_bound;
    // Constants may legitimately be as large as the sum of all loop
    // trip counts (sequential composition of nests in one time dim).
    int64_t const_bound = 2;
    for (const auto& st : prog_.statements()) {
      for (size_t dd = 0; dd < st.depth(); ++dd) {
        auto bb = st.domain.IntegerVarBounds(dd);
        if (bb) const_bound += (bb->second - bb->first + 1);
      }
    }
    io.var_bounds.assign(layout.dim, opts_.coeff_bound);
    for (size_t i = 0; i < n; ++i) {
      io.var_bounds[layout.offset[i] + layout.depth[i]] = const_bound;
    }
    // The ILP's integer point lies in its box |x_v| <= var_bounds[v], so a
    // branch whose relaxation is empty inside the box holds no point: the
    // DFS drops it with one LP instead of an ILP per leaf below it.
    auto boxed_feasible = [&](const std::vector<LpConstraint>& cs) {
      std::vector<LpConstraint> sys = cs;
      for (size_t v = 0; v < layout.dim; ++v) {
        RVector c(layout.dim);
        c[v] = Rational(1);
        sys.push_back({c, CmpOp::kLe, Rational(io.var_bounds[v])});
        sys.push_back({std::move(c), CmpOp::kGe, Rational(-io.var_bounds[v])});
      }
      return feasible(sys);
    };
    std::function<std::optional<std::vector<int64_t>>(
        std::vector<LpConstraint>&, size_t)>
        sample = [&](std::vector<LpConstraint>& cs,
                     size_t gi) -> std::optional<std::vector<int64_t>> {
      if (gi == nonzero_groups.size()) {
        // With no nonzero groups no branch checked the box yet.
        if (gi == 0 && !boxed_feasible(cs)) return std::nullopt;
        ++stats_.ilp_calls;
        return FindIntegerPoint(layout.dim, cs, /*minimize_l1=*/true, io);
      }
      for (size_t v : nonzero_groups[gi]) {
        for (int sign : {+1, -1}) {
          RVector c(layout.dim);
          c[v] = Rational(1);
          cs.push_back({std::move(c), sign > 0 ? CmpOp::kGe : CmpOp::kLe,
                        Rational(sign)});
          if (boxed_feasible(cs)) {
            auto r = sample(cs, gi + 1);
            if (r) return r;
          }
          cs.pop_back();
        }
      }
      return std::nullopt;
    };
    auto cs = pool.constraints();
    auto row = sample(cs, 0);
    if (!row) return std::nullopt;
    for (size_t i = 0; i < n; ++i) rows[i].push_back(*row);
  }

  // Last (constant) schedule dimension: topological assignment (Section 5.2
  // final remark). Build precedence edges among statements.
  std::vector<std::vector<int64_t>> consts_needed;  // edges (src, dst)
  std::set<std::pair<int, int>> edges;
  auto row_value = [&](size_t stmt, size_t depth_idx,
                       const std::vector<int64_t>& iter) {
    const auto& row = rows[stmt][depth_idx];
    int64_t acc = row[layout.offset[stmt] + layout.depth[stmt]];
    for (size_t j = 0; j < iter.size(); ++j) {
      acc += row[layout.offset[stmt] + j] * iter[j];
    }
    return acc;
  };
  for (size_t di = 0; di < deps_.size(); ++di) {
    for (const auto& pr : deps_[di].pairs) {
      bool strict = false;
      bool illegal = false;
      for (size_t d = 0; d < dmax; ++d) {
        int64_t vs = row_value(static_cast<size_t>(deps_[di].src.stmt_id), d,
                               pr.src_iter);
        int64_t vd = row_value(static_cast<size_t>(deps_[di].dst.stmt_id), d,
                               pr.dst_iter);
        if (vd > vs) {
          strict = true;
          break;
        }
        if (vd < vs) {
          illegal = true;
          break;
        }
      }
      if (illegal) return std::nullopt;
      if (!strict) {
        if (deps_[di].src.stmt_id == deps_[di].dst.stmt_id) {
          return std::nullopt;  // self dependence unresolvable by constants
        }
        edges.insert({deps_[di].src.stmt_id, deps_[di].dst.stmt_id});
      }
    }
  }
  for (const CoAccess* o : q) {
    if (o->IsSelf()) continue;
    // W->R / W->W require c > 0; R->R only c != 0 but a forward edge is
    // always acceptable when acyclic (distinct constants give c != 0).
    edges.insert({o->src.stmt_id, o->dst.stmt_id});
  }
  // Kahn's algorithm; all constants distinct to guarantee injectivity across
  // statements and nonzero separation for non-self R->R opportunities.
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<int>> adj(n);
  for (auto [a, b] : edges) {
    adj[static_cast<size_t>(a)].push_back(b);
    ++indeg[static_cast<size_t>(b)];
  }
  std::vector<int> order;
  std::vector<int> ready;
  for (size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<int>(i));
  }
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), std::greater<int>());
    int u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (int v : adj[static_cast<size_t>(u)]) {
      if (--indeg[static_cast<size_t>(v)] == 0) ready.push_back(v);
    }
  }
  if (order.size() != n) return std::nullopt;  // cycle
  std::vector<int64_t> constants(n, 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    constants[static_cast<size_t>(order[pos])] = static_cast<int64_t>(pos);
  }

  // Assemble the schedule: dmax sampled rows + the constant row.
  std::vector<RMatrix> mats;
  for (size_t i = 0; i < n; ++i) {
    const size_t ds = layout.depth[i];
    RMatrix m(dmax + 1, ds + 1);
    for (size_t d = 0; d < dmax; ++d) {
      for (size_t j = 0; j <= ds; ++j) {
        m.At(d, j) = Rational(rows[i][d][layout.offset[i] + j]);
      }
    }
    m.At(dmax, ds) = Rational(constants[i]);
    mats.push_back(std::move(m));
  }
  Schedule sched(std::move(mats));

  // Final exact verification: legality + realization of every opportunity.
  if (!IsLegal(sched)) return std::nullopt;
  for (const CoAccess* o : q) {
    if (!Realizes(sched, *o)) return std::nullopt;
  }
  return sched;
}

bool ScheduleSolver::IsLegal(const Schedule& sched) const {
  // Dependence order.
  for (const auto& dep : deps_) {
    for (const auto& pr : dep.pairs) {
      TimeVector ts = sched.TimeOf(dep.src.stmt_id, pr.src_iter);
      TimeVector td = sched.TimeOf(dep.dst.stmt_id, pr.dst_iter);
      if (CompareTime(ts, td) >= 0) return false;
    }
  }
  // Injectivity.
  auto order = prog_.ScheduledOrder(sched);
  for (size_t i = 1; i < order.size(); ++i) {
    if (CompareTime(order[i - 1].time, order[i].time) == 0) return false;
  }
  return true;
}

bool ScheduleSolver::Realizes(const Schedule& sched,
                              const CoAccess& opp) const {
  if (opp.pairs.empty()) return false;
  const size_t rows = sched.depth();
  RIOT_CHECK_GE(rows, 2u);
  int uniform_sign = 0;
  for (const auto& pr : opp.pairs) {
    TimeVector ts = sched.TimeOf(opp.src.stmt_id, pr.src_iter);
    TimeVector td = sched.TimeOf(opp.dst.stmt_id, pr.dst_iter);
    std::vector<int64_t> diff(rows);
    for (size_t r = 0; r < rows; ++r) diff[r] = td[r] - ts[r];
    if (!opp.IsSelf()) {
      // (0, ..., 0, 0, c) with c > 0 (W->*) or c != 0 (R->R).
      for (size_t r = 0; r + 1 < rows; ++r) {
        if (diff[r] != 0) return false;
      }
      int64_t c = diff[rows - 1];
      const bool has_write = opp.src_type == AccessType::kWrite ||
                             opp.dst_type == AccessType::kWrite;
      if (has_write ? c <= 0 : c == 0) return false;
    } else {
      // (0, ..., 0, s, 0) with s = 1 (W->*) or uniform s in {+1,-1} (R->R).
      for (size_t r = 0; r + 2 < rows; ++r) {
        if (diff[r] != 0) return false;
      }
      if (diff[rows - 1] != 0) return false;
      int64_t s = diff[rows - 2];
      const bool has_write = opp.src_type == AccessType::kWrite ||
                             opp.dst_type == AccessType::kWrite;
      if (has_write) {
        if (s != 1) return false;
      } else {
        if (s != 1 && s != -1) return false;
        if (uniform_sign == 0) {
          uniform_sign = static_cast<int>(s);
        } else if (uniform_sign != static_cast<int>(s)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace riot
