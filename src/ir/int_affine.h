// Integer forms of the IR's rational affine rows.
//
// Access maps, guards and schedules are Rational in the IR. That is their
// reference semantics (Access::BlockAt, Access::ActiveAt,
// Schedule::TimeOf, Polyhedron::Contains), which the analysis, the
// optimizer and the tests evaluate. A pass that evaluates the same rows at
// every statement instance compiles each row once instead:
//   * the row is scaled by the LCM L of its denominators, so it becomes
//     integer coefficients a and constant c;
//   * its value at an integer point x is (a . x + c) / L, computed with
//     checked int64 multiply-add;
//   * a map value must divide exactly; a constraint needs no division,
//     since L > 0 keeps the sign of a . x + c.
// An overflow or a non-integer map value is an error, never rounded.
#ifndef RIOTSHARE_IR_INT_AFFINE_H_
#define RIOTSHARE_IR_INT_AFFINE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "polyhedral/polyhedron.h"
#include "util/status.h"

namespace riot {

enum class IntEval { kOk, kOverflow, kNotInteger };

/// "overflows int64" or "is not an integer", for error messages.
const char* IntEvalError(IntEval e);

/// \brief Affine rows over `vars()` integer variables, each scaled to
/// integers by the LCM of its denominators.
class IntAffineMap {
 public:
  IntAffineMap() = default;

  /// Rows of `m` are (coefficients over m.cols() - 1 variables, constant).
  /// Fails when an LCM or a scaled coefficient does not fit int64.
  static Result<IntAffineMap> Compile(const RMatrix& m);

  size_t rows() const { return scale_.size(); }
  size_t vars() const { return vars_; }

  /// out[r] = row r at x, exactly, for every row.
  IntEval Apply(const int64_t* x, int64_t* out) const {
    for (size_t r = 0; r < scale_.size(); ++r) {
      int64_t v;
      if (ScaledAt(r, x, &v) != IntEval::kOk) return IntEval::kOverflow;
      const int64_t l = scale_[r];
      if (l != 1) {
        if (v % l != 0) return IntEval::kNotInteger;
        v /= l;
      }
      out[r] = v;
    }
    return IntEval::kOk;
  }

  /// L_r * (row r at x): row r's value scaled by its LCM, so it has the
  /// value's sign. Never kNotInteger.
  IntEval ScaledAt(size_t r, const int64_t* x, int64_t* out) const {
    const int64_t* row = coef_.data() + r * (vars_ + 1);
    int64_t acc = row[vars_];
    for (size_t d = 0; d < vars_; ++d) {
      int64_t term;
      if (__builtin_mul_overflow(row[d], x[d], &term) ||
          __builtin_add_overflow(acc, term, &acc)) {
        return IntEval::kOverflow;
      }
    }
    *out = acc;
    return IntEval::kOk;
  }

 private:
  friend class IntGuard;

  size_t vars_ = 0;
  std::vector<int64_t> coef_;   // rows x (vars_ + 1): coefficients, constant
  std::vector<int64_t> scale_;  // per row, > 0
};

/// \brief A guard polyhedron compiled to integer constraint rows.
class IntGuard {
 public:
  IntGuard() = default;

  static Result<IntGuard> Compile(const Polyhedron& p);

  /// Sets *inside to whether x satisfies every constraint: the integer
  /// counterpart of Polyhedron::Contains.
  IntEval Contains(const int64_t* x, bool* inside) const;

 private:
  IntAffineMap rows_;
  std::vector<char> is_eq_;
};

}  // namespace riot

#endif  // RIOTSHARE_IR_INT_AFFINE_H_
