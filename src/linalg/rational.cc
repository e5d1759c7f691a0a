#include "linalg/rational.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace riot {

namespace {
std::string Int128ToString(int128 v) {
  if (v == 0) return "0";
  bool neg = v < 0;
  // Careful with INT128_MIN; our range checks keep us far from it.
  if (neg) v = -v;
  std::string s;
  while (v > 0) {
    s.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  if (neg) s.push_back('-');
  std::reverse(s.begin(), s.end());
  return s;
}
// a / b, in 64 bits when both fit (128-bit division is a library call).
int128 Quotient(int128 a, int128 b) {
  if (a <= INT64_MAX && a >= -INT64_MAX && b <= INT64_MAX && b >= -INT64_MAX) {
    return static_cast<int64_t>(a) / static_cast<int64_t>(b);
  }
  return a / b;
}
}  // namespace

int128 Rational::Gcd(int128 a, int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  // 128-bit remainders are library calls; finish in 64 bits once both fit.
  while (b != 0 && (a > INT64_MAX || b > INT64_MAX)) {
    int128 t = a % b;
    a = b;
    b = t;
  }
  if (b == 0) return a;
  uint64_t x = static_cast<uint64_t>(a);
  uint64_t y = static_cast<uint64_t>(b);
  while (y != 0) {
    uint64_t t = x % y;
    x = y;
    y = t;
  }
  return x;
}

void Rational::Assign(int128 n, int128 d) {
  RIOT_CHECK(d != 0) << "zero denominator";
  if (d < 0) {
    n = -n;
    d = -d;
  }
  if (n == 0) {
    num_ = 0;
    den_ = 1;
    return;
  }
  if (d != 1) {
    int128 g = Gcd(n, d);
    n = Quotient(n, g);
    d = Quotient(d, g);
  }
  CheckRange(n);
  CheckRange(d);
  num_ = static_cast<int64_t>(n);
  den_ = static_cast<int64_t>(d);
}

int64_t Rational::Floor() const {
  int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) q -= 1;
  return static_cast<int64_t>(q);
}

int64_t Rational::Ceil() const {
  int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) q += 1;
  return static_cast<int64_t>(q);
}

Rational Rational::AddReduced(int128 o_num, int128 o_den) const {
  // Reduce cross terms first to limit growth.
  int128 g = Gcd(den_, o_den);
  int128 lcm_part = Quotient(o_den, g);
  return FromInt128(num_ * lcm_part + o_num * Quotient(den_, g),
                    den_ * lcm_part);
}

Rational Rational::MultiplyReduced(const Rational& o) const {
  int128 g1 = Gcd(num_, o.den_);
  int128 g2 = Gcd(o.num_, den_);
  return FromInt128(Quotient(num_, g1) * Quotient(o.num_, g2),
                    Quotient(den_, g2) * Quotient(o.den_, g1));
}

Rational Rational::operator/(const Rational& o) const {
  RIOT_CHECK(!o.IsZero()) << "division by zero";
  return *this * FromInt128(o.den_, o.num_);
}

bool Rational::operator<(const Rational& o) const {
  // num_/den_ < o.num_/o.den_  <=>  num_*o.den_ < o.num_*den_ (dens > 0).
  return int128{num_} * o.den_ < int128{o.num_} * den_;
}

std::string Rational::ToString() const {
  if (den_ == 1) return Int128ToString(num_);
  return Int128ToString(num_) + "/" + Int128ToString(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.ToString();
}

}  // namespace riot
