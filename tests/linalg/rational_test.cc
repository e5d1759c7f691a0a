#include "linalg/rational.h"

#include <gtest/gtest.h>

namespace riot {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.IsZero());
  EXPECT_TRUE(r.IsInteger());
  EXPECT_EQ(r.ToInt64(), 0);
}

TEST(RationalTest, NormalizationReduces) {
  Rational r(6, 8);
  EXPECT_EQ(r, Rational(3, 4));
  EXPECT_EQ(r.ToString(), "3/4");
}

TEST(RationalTest, NegativeDenominatorNormalizes) {
  Rational r(3, -4);
  EXPECT_TRUE(r.IsNegative());
  EXPECT_EQ(r, Rational(-3, 4));
}

TEST(RationalTest, Arithmetic) {
  Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_GE(Rational(7), Rational(7));
  EXPECT_NE(Rational(1, 3), Rational(1, 4));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).Floor(), 3);
  EXPECT_EQ(Rational(7, 2).Ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).Floor(), -4);
  EXPECT_EQ(Rational(-7, 2).Ceil(), -3);
  EXPECT_EQ(Rational(4).Floor(), 4);
  EXPECT_EQ(Rational(4).Ceil(), 4);
  EXPECT_EQ(Rational(-4).Floor(), -4);
}

TEST(RationalTest, Abs) {
  EXPECT_EQ(Rational(-5, 3).Abs(), Rational(5, 3));
  EXPECT_EQ(Rational(5, 3).Abs(), Rational(5, 3));
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).ToDouble(), 0.25);
  EXPECT_DOUBLE_EQ(Rational(-3, 2).ToDouble(), -1.5);
}

// Property-style sweep: field axioms on a grid of small rationals.
class RationalPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RationalPropertyTest, FieldProperties) {
  auto [n, d] = GetParam();
  Rational a(n, d);
  Rational b(d, 7);
  Rational c(n - d, 5);
  // Commutativity / associativity / distributivity.
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  // Inverses.
  EXPECT_TRUE((a - a).IsZero());
  if (!a.IsZero()) EXPECT_EQ(a / a, Rational(1));
  // Floor/Ceil bracket the value.
  EXPECT_LE(Rational(a.Floor()), a);
  EXPECT_GE(Rational(a.Ceil()), a);
  EXPECT_LE((a - Rational(a.Floor())).ToDouble(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RationalPropertyTest,
    ::testing::Combine(::testing::Values(-17, -5, -1, 0, 3, 12, 40),
                       ::testing::Values(-9, -2, 1, 4, 15)));

TEST(RationalTest, LargeValuesNoOverflow) {
  Rational big(int64_t{1} << 40);
  Rational r = big * Rational(3, 7);
  EXPECT_EQ(r, Rational((int64_t{3} << 40), 7));
  EXPECT_EQ(r / big, Rational(3, 7));
}

// Reductions whose operands pass 64 bits run the 128-bit gcd steps first
// and still land in lowest terms.
TEST(RationalTest, WideOperandsReduce) {
  const int128 wide = int128{1} << 70;
  EXPECT_EQ(Rational::FromInt128(3 * wide, 5 * wide), Rational(3, 5));
  EXPECT_EQ(Rational::FromInt128(-7 * wide, wide), Rational(-7));
  EXPECT_EQ(Rational::FromInt128(wide + wide, -wide), Rational(-2));
  Rational a(int64_t{1} << 40, 3);
  EXPECT_EQ(a * Rational(3, int64_t{1} << 41), Rational(1, 2));
  EXPECT_EQ(a - Rational(int64_t{1} << 40), Rational(-(int64_t{1} << 41), 3));
}

// Integer operands take a shortcut past the gcd; the range check stays.
TEST(RationalDeathTest, IntegerResultPastRangeAborts) {
  const Rational big(int64_t{1} << 40);
  EXPECT_DEATH(big * big, "rational overflow");
  const Rational edge((int64_t{1} << 62) - 1);
  EXPECT_DEATH(edge + Rational(1), "rational overflow");
}

}  // namespace
}  // namespace riot
