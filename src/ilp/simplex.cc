#include "ilp/simplex.h"

#include <algorithm>

#include "util/logging.h"

namespace riot {

namespace {

// Tableau-based simplex in standard form:
//   maximize c.y  s.t.  A y = b, y >= 0, b >= 0 (after phase-I setup).
// Dantzig pricing, Bland's rule (smallest index) after a degenerate
// streak, hard pivot budget across both phases.
class Tableau {
 public:
  // a: m x (n + m), whose first n columns hold A and whose last m columns
  // are left for the phase-I artificials; b: m (must be >= 0), c: n.
  Tableau(RMatrix a, size_t n, RVector b, RVector c, const LpOptions& options)
      : m_(a.rows()), n_(n), cols_(a.cols()), a_(std::move(a)),
        b_(std::move(b)), c_(std::move(c)), basis_(m_), opts_(options) {
    RIOT_DCHECK(cols_ == n_ + m_);
  }

  /// The pivot budget ran out; any PhaseI/PhaseII answer is unreliable.
  bool budget_exhausted() const { return budget_exhausted_; }
  int64_t pivots() const { return pivots_; }

  // Phase I: add m artificial variables with identity columns; minimize
  // their sum. Returns false if infeasible.
  bool PhaseI() {
    for (size_t i = 0; i < m_; ++i) {
      a_.At(i, n_ + i) = Rational(1);
      basis_[i] = n_ + i;
    }
    // Phase-I objective: maximize -(sum of artificials).
    RVector pc(n_ + m_);
    for (size_t j = 0; j < m_; ++j) pc[n_ + j] = Rational(-1);
    Rational obj = RunSimplex(pc);
    if (!obj.IsZero()) return false;  // some artificial stuck positive
    // Pivot any artificial still in the basis out (degenerate rows).
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) continue;
      bool pivoted = false;
      for (size_t j = 0; j < n_; ++j) {
        if (!a_.At(i, j).IsZero()) {
          Pivot(i, j);
          pivoted = true;
          break;
        }
      }
      if (!pivoted) {
        // Row is all zeros over original vars: redundant; leave artificial
        // basic at value 0 (b_[i] must be 0 here).
        RIOT_DCHECK(b_[i].IsZero());
      }
    }
    // Drop the artificial columns: from here on only the first n columns
    // are priced and updated. Any basis entry still pointing at an
    // artificial marks a zero row, removed in PhaseII.
    cols_ = n_;
    return true;
  }

  // Phase II with true objective. Returns nullopt if unbounded.
  std::optional<Rational> PhaseII() {
    // Remove redundant rows whose basis is an (already dropped) artificial.
    std::vector<size_t> keep;
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) keep.push_back(i);
    }
    if (keep.size() != m_) {
      RMatrix a2(keep.size(), n_);
      RVector b2(keep.size());
      std::vector<size_t> basis2(keep.size());
      for (size_t k = 0; k < keep.size(); ++k) {
        for (size_t j = 0; j < n_; ++j) a2.At(k, j) = a_.At(keep[k], j);
        b2[k] = b_[keep[k]];
        basis2[k] = basis_[keep[k]];
      }
      a_ = std::move(a2);
      b_ = std::move(b2);
      basis_ = std::move(basis2);
      m_ = keep.size();
    }
    unbounded_ = false;
    Rational obj = RunSimplex(c_);
    if (unbounded_) return std::nullopt;
    return obj;
  }

  RVector Solution() const {
    RVector x(n_);
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) x[basis_[i]] = b_[i];
    }
    return x;
  }

 private:
  // Runs simplex maximizing obj over current tableau; returns objective.
  // Maintains an explicit reduced-cost row updated on each pivot (the naive
  // per-column recomputation is O(m n) per candidate and dominates runtime
  // with exact rationals).
  Rational RunSimplex(const RVector& obj) {
    bool bland = false;       // switched on after a degenerate streak
    int64_t degen_streak = 0;
    const size_t ncols = cols_;
    // rc_j = c_j - c_B^T B^-1 A_j; computed once, then pivot-maintained.
    rc_ = RVector(ncols);
    obj_val_ = Rational(0);
    {
      RVector basis_cost(m_);
      for (size_t i = 0; i < m_; ++i) {
        basis_cost[i] = basis_[i] < obj.size() ? obj[basis_[i]] : Rational(0);
        obj_val_ += basis_cost[i] * b_[i];
      }
      for (size_t j = 0; j < ncols; ++j) {
        Rational rc = j < obj.size() ? obj[j] : Rational(0);
        for (size_t i = 0; i < m_; ++i) {
          if (!basis_cost[i].IsZero() && !a_.At(i, j).IsZero()) {
            rc -= basis_cost[i] * a_.At(i, j);
          }
        }
        rc_[j] = rc;
      }
    }
    for (;;) {
      if (pivots_ >= opts_.max_pivots) {
        budget_exhausted_ = true;
        break;
      }
      size_t enter = ncols;
      if (bland) {
        // Bland: first improving index — cannot cycle.
        for (size_t j = 0; j < ncols; ++j) {
          if (rc_[j].IsPositive()) {
            enter = j;
            break;
          }
        }
      } else {
        // Dantzig: most positive reduced cost (smallest index on ties).
        for (size_t j = 0; j < ncols; ++j) {
          if (rc_[j].IsPositive() &&
              (enter == ncols || rc_[enter] < rc_[j])) {
            enter = j;
          }
        }
      }
      if (enter == ncols) break;  // optimal
      // Ratio test (Bland: smallest basis index on ties).
      size_t leave = m_;
      Rational best_ratio;
      for (size_t i = 0; i < m_; ++i) {
        if (!a_.At(i, enter).IsPositive()) continue;
        Rational ratio = b_[i] / a_.At(i, enter);
        if (leave == m_ || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave == m_) {
        unbounded_ = true;
        break;
      }
      // A zero-ratio pivot makes no objective progress (degeneracy): a
      // long enough streak of them under Dantzig pricing may be a cycle,
      // which Bland's rule provably exits. Real progress re-arms Dantzig.
      if (best_ratio.IsZero()) {
        if (++degen_streak >= opts_.degenerate_pivot_limit) bland = true;
      } else {
        degen_streak = 0;
        bland = false;
      }
      ++pivots_;
      Pivot(leave, enter);
    }
    return obj_val_;
  }

  void Pivot(size_t row, size_t col) {
    Rational p = a_.At(row, col);
    RIOT_DCHECK(!p.IsZero());
    Rational inv = Rational(1) / p;
    // The pivot row is mostly zeros; every update below touches only its
    // nonzero columns.
    nonzero_.clear();
    for (size_t j = 0; j < cols_; ++j) {
      if (a_.At(row, j).IsZero()) continue;
      a_.At(row, j) *= inv;
      nonzero_.push_back(j);
    }
    b_[row] *= inv;
    for (size_t i = 0; i < m_; ++i) {
      if (i == row || a_.At(i, col).IsZero()) continue;
      Rational f = a_.At(i, col);
      for (size_t j : nonzero_) a_.At(i, j) -= f * a_.At(row, j);
      b_[i] -= f * b_[row];
    }
    // Maintain the reduced-cost row and objective value.
    if (!rc_.size()) {
      basis_[row] = col;
      return;
    }
    Rational f = rc_[col];
    if (!f.IsZero()) {
      for (size_t j : nonzero_) rc_[j] -= f * a_.At(row, j);
      obj_val_ += f * b_[row];
    }
    basis_[row] = col;
  }

  size_t m_, n_;
  size_t cols_;  // columns priced and updated: n + m in phase I, then n
  RMatrix a_;
  RVector b_;
  RVector c_;
  RVector rc_;  // reduced-cost row of the active objective
  std::vector<size_t> nonzero_;  // nonzero columns of the last pivot row
  Rational obj_val_;
  std::vector<size_t> basis_;
  LpOptions opts_;
  int64_t pivots_ = 0;  // across both phases
  bool unbounded_ = false;
  bool budget_exhausted_ = false;
};

}  // namespace

Result<LpSolution> SolveLp(size_t num_vars,
                           const std::vector<LpConstraint>& cons,
                           const RVector& objective,
                           const LpOptions& options) {
  RIOT_CHECK_EQ(objective.size(), num_vars);
  // Split each free variable v into v+ - v-. Standard-form var count:
  const size_t nsf = 2 * num_vars;
  // Build equality rows, adding one slack/surplus per inequality.
  size_t num_slacks = 0;
  for (const auto& c : cons) {
    if (c.op != CmpOp::kEq) ++num_slacks;
  }
  const size_t ncols = nsf + num_slacks;
  RMatrix a(cons.size(), ncols + cons.size());  // + phase-I artificials
  RVector b(cons.size());
  size_t slack = 0;
  for (size_t i = 0; i < cons.size(); ++i) {
    const auto& c = cons[i];
    RIOT_CHECK_EQ(c.coeffs.size(), num_vars);
    for (size_t v = 0; v < num_vars; ++v) {
      a.At(i, 2 * v) = c.coeffs[v];
      a.At(i, 2 * v + 1) = -c.coeffs[v];
    }
    b[i] = c.rhs;
    if (c.op == CmpOp::kLe) {
      a.At(i, nsf + slack++) = Rational(1);
    } else if (c.op == CmpOp::kGe) {
      a.At(i, nsf + slack++) = Rational(-1);
    }
    // Normalize to b >= 0 for phase I.
    if (b[i].IsNegative()) {
      for (size_t j = 0; j < ncols; ++j) a.At(i, j) = -a.At(i, j);
      b[i] = -b[i];
    }
  }
  RVector c_sf(ncols);
  for (size_t v = 0; v < num_vars; ++v) {
    c_sf[2 * v] = objective[v];
    c_sf[2 * v + 1] = -objective[v];
  }

  Tableau t(std::move(a), ncols, std::move(b), std::move(c_sf), options);
  LpSolution sol;
  const bool phase1_feasible = t.PhaseI();
  if (t.budget_exhausted()) {
    return Status::ResourceExhausted(
        "simplex pivot budget exhausted in phase I (" +
        std::to_string(t.pivots()) + " pivots, " +
        std::to_string(cons.size()) + " constraints, " +
        std::to_string(num_vars) + " vars)");
  }
  if (!phase1_feasible) {
    sol.status = LpStatus::kInfeasible;
    return sol;
  }
  auto obj = t.PhaseII();
  if (t.budget_exhausted()) {
    return Status::ResourceExhausted(
        "simplex pivot budget exhausted in phase II (" +
        std::to_string(t.pivots()) + " pivots, " +
        std::to_string(cons.size()) + " constraints, " +
        std::to_string(num_vars) + " vars)");
  }
  if (!obj.has_value()) {
    sol.status = LpStatus::kUnbounded;
    return sol;
  }
  sol.status = LpStatus::kOptimal;
  sol.objective = *obj;
  RVector y = t.Solution();
  sol.x = RVector(num_vars);
  for (size_t v = 0; v < num_vars; ++v) sol.x[v] = y[2 * v] - y[2 * v + 1];
  return sol;
}

Result<bool> LpFeasible(size_t num_vars,
                        const std::vector<LpConstraint>& cons,
                        const LpOptions& options) {
  RVector zero(num_vars);
  auto s = SolveLp(num_vars, cons, zero, options);
  if (!s.ok()) return s.status();
  return s->status == LpStatus::kOptimal;
}

}  // namespace riot
