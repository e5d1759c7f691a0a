#include "ir/int_affine.h"

#include <limits>
#include <string>

namespace riot {

namespace {

int128 Gcd(int128 a, int128 b) {
  while (b != 0) {
    const int128 t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

bool FitsInt64(int128 v) {
  return v >= std::numeric_limits<int64_t>::min() &&
         v <= std::numeric_limits<int64_t>::max();
}

// Appends one row scaled by the LCM of its denominators; `at(c)` yields
// column c of (coefficients..., constant).
template <typename At>
Status AppendScaledRow(size_t cols, const At& at, std::vector<int64_t>* coef,
                       std::vector<int64_t>* scale) {
  int128 lcm = 1;
  for (size_t c = 0; c < cols; ++c) {
    const int128 den = at(c).den();
    lcm = lcm / Gcd(lcm, den) * den;
    if (!FitsInt64(lcm)) {
      return Status::InvalidArgument(
          "affine row: denominator LCM overflows int64");
    }
  }
  for (size_t c = 0; c < cols; ++c) {
    const Rational& v = at(c);
    const int128 scaled = v.num() * (lcm / v.den());
    if (!FitsInt64(scaled)) {
      return Status::InvalidArgument(
          "affine row: coefficient " + v.ToString() +
          " overflows int64 when scaled by " +
          std::to_string(static_cast<int64_t>(lcm)));
    }
    coef->push_back(static_cast<int64_t>(scaled));
  }
  scale->push_back(static_cast<int64_t>(lcm));
  return Status::OK();
}

}  // namespace

const char* IntEvalError(IntEval e) {
  switch (e) {
    case IntEval::kOk: return "is exact";
    case IntEval::kOverflow: return "overflows int64";
    case IntEval::kNotInteger: return "is not an integer";
  }
  return "?";
}

Result<IntAffineMap> IntAffineMap::Compile(const RMatrix& m) {
  if (m.cols() == 0 && m.rows() > 0) {
    return Status::InvalidArgument("affine map has no constant column");
  }
  IntAffineMap out;
  out.vars_ = m.cols() == 0 ? 0 : m.cols() - 1;
  out.coef_.reserve(m.rows() * m.cols());
  out.scale_.reserve(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    RIOT_RETURN_NOT_OK(AppendScaledRow(
        m.cols(), [&](size_t c) -> const Rational& { return m.At(r, c); },
        &out.coef_, &out.scale_));
  }
  return out;
}

Result<IntGuard> IntGuard::Compile(const Polyhedron& p) {
  IntGuard g;
  const size_t dim = p.dim();
  g.rows_.vars_ = dim;
  for (const AffineConstraint& c : p.constraints()) {
    if (c.coeffs.size() != dim) {
      return Status::InvalidArgument("guard constraint dimension mismatch");
    }
    RIOT_RETURN_NOT_OK(AppendScaledRow(
        dim + 1,
        [&](size_t col) -> const Rational& {
          return col < dim ? c.coeffs[col] : c.constant;
        },
        &g.rows_.coef_, &g.rows_.scale_));
    g.is_eq_.push_back(c.is_equality ? 1 : 0);
  }
  return g;
}

IntEval IntGuard::Contains(const int64_t* x, bool* inside) const {
  for (size_t r = 0; r < is_eq_.size(); ++r) {
    int64_t v;
    if (rows_.ScaledAt(r, x, &v) != IntEval::kOk) return IntEval::kOverflow;
    if (is_eq_[r] ? v != 0 : v < 0) {
      *inside = false;
      return IntEval::kOk;
    }
  }
  *inside = true;
  return IntEval::kOk;
}

}  // namespace riot
