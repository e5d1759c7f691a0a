// Exact rational arithmetic: 64-bit terms, 128-bit intermediates.
//
// The optimizer manipulates polyhedra and simplex tableaux whose entries must
// be exact; floating point would silently corrupt emptiness tests and
// schedule legality. Numerators/denominators are kept reduced; a reduced
// term of magnitude 2^62 or more aborts (it indicates a modeling bug, not a
// data-size issue, since all quantities here are schedule coefficients and
// small loop bounds).
#ifndef RIOTSHARE_LINALG_RATIONAL_H_
#define RIOTSHARE_LINALG_RATIONAL_H_

#include <cstdint>
#include <iosfwd>
#include <numeric>
#include <string>

#include "util/logging.h"

namespace riot {

using int128 = __int128;

/// \brief An exact rational number num/den with den > 0, always reduced.
class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  Rational(int64_t n) : num_(n), den_(1) {}  // NOLINT implicit
  Rational(int64_t n, int64_t d) { Assign(n, d); }

  static Rational FromInt128(int128 n, int128 d) {
    Rational r;
    r.Assign(n, d);
    return r;
  }

  int128 num() const { return num_; }
  int128 den() const { return den_; }

  bool IsZero() const { return num_ == 0; }
  bool IsInteger() const { return den_ == 1; }
  bool IsNegative() const { return num_ < 0; }
  bool IsPositive() const { return num_ > 0; }

  /// Integer value; requires IsInteger().
  int64_t ToInt64() const {
    RIOT_CHECK(den_ == 1) << "not an integer: " << ToString();
    return num_;
  }

  double ToDouble() const {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  /// Largest integer <= this.
  int64_t Floor() const;
  /// Smallest integer >= this.
  int64_t Ceil() const;

  Rational operator-() const {
    return FromReduced(-int128{num_}, den_);  // already in lowest terms
  }
  // Integer operands (most simplex entries) skip the gcd reductions.
  Rational operator+(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return FromReduced(int128{num_} + o.num_, 1);
    return AddReduced(o.num_, o.den_);
  }
  Rational operator-(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return FromReduced(int128{num_} - o.num_, 1);
    return AddReduced(-int128{o.num_}, o.den_);
  }
  Rational operator*(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return FromReduced(int128{num_} * o.num_, 1);
    return MultiplyReduced(o);
  }
  Rational operator/(const Rational& o) const;
  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator<=(const Rational& o) const { return !(o < *this); }
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator>=(const Rational& o) const { return !(*this < o); }

  Rational Abs() const { return num_ < 0 ? -*this : *this; }

  std::string ToString() const;

 private:
  // n/d, already in lowest terms with d > 0; checks only the range.
  static Rational FromReduced(int128 n, int64_t d) {
    CheckRange(n);
    Rational r;
    r.num_ = static_cast<int64_t>(n);
    r.den_ = d;
    return r;
  }
  Rational AddReduced(int128 o_num, int128 o_den) const;
  Rational MultiplyReduced(const Rational& o) const;
  // Stores n/d reduced, with a positive denominator.
  void Assign(int128 n, int128 d);
  static int128 Gcd(int128 a, int128 b);
  // Bound chosen so that products of two in-range values stay within
  // __int128.
  static void CheckRange(int128 v) {
    constexpr int128 kRangeLimit = int128(1) << 62;
    RIOT_CHECK(v < kRangeLimit && v > -kRangeLimit)
        << "rational overflow; value magnitude exceeds 2^62";
  }

  // Held in 64 bits: every reduced value is range-checked below 2^62.
  // Arithmetic widens to 128 bits, so products never overflow.
  int64_t num_;
  int64_t den_;  // > 0
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace riot

#endif  // RIOTSHARE_LINALG_RATIONAL_H_
