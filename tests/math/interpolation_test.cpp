#include "flexopt/math/interpolation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/util/alloc_probe.hpp"

namespace flexopt {
namespace {

TEST(NewtonPolynomial, InterpolatesThroughSamples) {
  NewtonPolynomial p;
  ASSERT_TRUE(p.add_point(0.0, 1.0).ok());
  ASSERT_TRUE(p.add_point(1.0, 3.0).ok());
  ASSERT_TRUE(p.add_point(2.0, 9.0).ok());
  EXPECT_NEAR(p.evaluate(0.0), 1.0, 1e-12);
  EXPECT_NEAR(p.evaluate(1.0), 3.0, 1e-12);
  EXPECT_NEAR(p.evaluate(2.0), 9.0, 1e-12);
}

TEST(NewtonPolynomial, ExactOnPolynomialData) {
  // f(x) = 2x^2 - 3x + 5 must be recovered exactly from 3 samples.
  auto f = [](double x) { return 2 * x * x - 3 * x + 5; };
  NewtonPolynomial p;
  for (const double x : {-1.0, 0.5, 4.0}) ASSERT_TRUE(p.add_point(x, f(x)).ok());
  for (const double x : {-3.0, 0.0, 1.7, 10.0}) EXPECT_NEAR(p.evaluate(x), f(x), 1e-9);
}

TEST(NewtonPolynomial, IncrementalExtension) {
  // Adding a fourth point refines the fit to a cubic without refitting.
  auto f = [](double x) { return x * x * x - x; };
  NewtonPolynomial p;
  for (const double x : {0.0, 1.0, 2.0}) ASSERT_TRUE(p.add_point(x, f(x)).ok());
  ASSERT_TRUE(p.add_point(3.0, f(3.0)).ok());
  EXPECT_NEAR(p.evaluate(1.5), f(1.5), 1e-9);
  EXPECT_NEAR(p.evaluate(-1.0), f(-1.0), 1e-9);
}

/// The in-place diagonal update must reproduce the textbook construction
/// bit for bit: a fresh divided-difference column per added point.
TEST(NewtonPolynomial, InPlaceUpdateMatchesColumnRebuildBitForBit) {
  const std::vector<double> xs{40.0, 7.0, 128.0, 19.0, 77.0, 3.0, 55.0, 101.0};
  const std::vector<double> ys{812.5, 1043.25, 640.0, 977.125, 700.0, 1200.5, 760.75, 655.0};
  NewtonPolynomial p;
  std::vector<double> diag;
  std::vector<double> coef;
  for (std::size_t n = 0; n < xs.size(); ++n) {
    ASSERT_TRUE(p.add_point(xs[n], ys[n]).ok());
    std::vector<double> next(n + 1);
    next[n] = ys[n];
    for (std::size_t i = n; i-- > 0;) next[i] = (next[i + 1] - diag[i]) / (xs[n] - xs[i]);
    diag = next;
    coef.push_back(diag[0]);
    for (const double x : {0.0, 5.5, 64.0, 130.0}) {
      double expected = 0.0;
      for (std::size_t i = coef.size(); i-- > 0;) expected = expected * (x - xs[i]) + coef[i];
      EXPECT_EQ(p.evaluate(x), expected) << "points " << n + 1 << " x " << x;
    }
  }
}

/// clear() keeps capacity: refilling a cleared polynomial or family to its
/// previous size allocates nothing and reproduces the same values.
TEST(NewtonPolynomial, WarmRefillDoesNotAllocate) {
  auto f = [](double x) { return 0.01 * x * x - 2.0 * x + 900.0; };
  auto g = [](double x) { return 3.0 * x + 40.0; };
  NewtonPolynomial p;
  CurveFamily family(2);
  auto fill = [&] {
    bool added = true;
    for (int i = 0; i < 8; ++i) {
      const double x = ((i * 5) % 8) * 16.0;  // out of x order
      added = p.add_point(x, f(x)).ok() && added;
      const double ys[] = {f(x), g(x)};
      added = family.insert(x, ys).ok() && added;
    }
    return added;
  };
  auto family_at = [&](double x) {
    std::vector<double> out(family.curves());
    family.evaluate(x, out);
    return out;
  };
  ASSERT_TRUE(fill());
  const double p_before = p.evaluate(37.0);
  const std::vector<double> family_before = family_at(37.0);
  p.clear();
  family.clear();
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(family.size(), 0u);
  const std::uint64_t a0 = alloc_probe::thread_allocations();
  const bool added = fill();
  const std::uint64_t allocations = alloc_probe::thread_allocations() - a0;
  EXPECT_TRUE(added);
  EXPECT_EQ(p.evaluate(37.0), p_before);
  EXPECT_EQ(family_at(37.0), family_before);
  if (!alloc_probe::installed()) GTEST_SKIP() << "alloc probe displaced (sanitizer build)";
  EXPECT_EQ(allocations, 0u);
}

TEST(NewtonPolynomial, RejectsDuplicateAbscissa) {
  NewtonPolynomial p;
  ASSERT_TRUE(p.add_point(1.0, 2.0).ok());
  EXPECT_FALSE(p.add_point(1.0, 5.0).ok());
}

TEST(PiecewiseLinear, InterpolatesAndClamps) {
  auto pl = PiecewiseLinear::fit({0.0, 10.0, 20.0}, {0.0, 100.0, 0.0});
  ASSERT_TRUE(pl.ok());
  EXPECT_DOUBLE_EQ(pl.value().evaluate(5.0), 50.0);
  EXPECT_DOUBLE_EQ(pl.value().evaluate(15.0), 50.0);
  EXPECT_DOUBLE_EQ(pl.value().evaluate(-5.0), 0.0);   // constant extrapolation
  EXPECT_DOUBLE_EQ(pl.value().evaluate(30.0), 0.0);
}

TEST(PiecewiseLinear, SortsUnorderedInput) {
  auto pl = PiecewiseLinear::fit({20.0, 0.0, 10.0}, {0.0, 0.0, 100.0});
  ASSERT_TRUE(pl.ok());
  EXPECT_DOUBLE_EQ(pl.value().evaluate(10.0), 100.0);
}

TEST(PiecewiseLinear, RejectsDuplicatesAndMismatch) {
  EXPECT_FALSE(PiecewiseLinear::fit({1.0, 1.0}, {2.0, 3.0}).ok());
  EXPECT_FALSE(PiecewiseLinear::fit({1.0}, {2.0, 3.0}).ok());
  EXPECT_FALSE(PiecewiseLinear::fit({}, {}).ok());
}

/// Evaluates every curve of `family` at x.
std::vector<double> values_at(const CurveFamily& family, double x) {
  std::vector<double> out(family.curves());
  family.evaluate(x, out);
  return out;
}

TEST(CurveFamily, ClampsToFixedRange) {
  // Curve 0: 1e13 x^2 µs, extrapolated far past its nodes; curve 1 falls
  // linearly below zero; curve 2 overflows to infinity at x = 1e5.
  CurveFamily family(3);
  for (const double x : {0.0, 1.0, 2.0}) {
    const double ys[] = {1e13 * x * x, 100.0 - 50.0 * x, 1e300 * x * x};
    ASSERT_TRUE(family.insert(x, ys).ok());
  }
  const std::vector<double> inside = values_at(family, 1.5);
  EXPECT_DOUBLE_EQ(inside[0], 2.25e13);
  EXPECT_DOUBLE_EQ(inside[1], 25.0);
  const std::vector<double> far = values_at(family, 1e5);
  EXPECT_EQ(far[0], CurveFamily::kClampHi);
  EXPECT_EQ(far[1], CurveFamily::kClampLo);
  EXPECT_EQ(far[2], CurveFamily::kClampHi);  // non-finite Newton value
  // The upper clamp converts to nanoseconds without leaving int64.
  EXPECT_LT(CurveFamily::kClampHi * 1e3, 9223372036854775807.0);
}

TEST(CurveFamily, FallsBackToPiecewiseLinearAboveTheNewtonCap) {
  CurveFamily family(1);
  for (int i = 0; i < 10; ++i) {
    const double x = static_cast<double>((i * 7) % 10);  // out of x order
    const double ys[] = {x * 10.0};
    ASSERT_TRUE(family.insert(x, ys).ok());
    EXPECT_EQ(family.piecewise_linear(), family.size() > CurveFamily::kMaxNewtonPoints);
  }
  // Piecewise-linear on y = 10x is exact; constant beyond either end.
  EXPECT_NEAR(values_at(family, 4.5)[0], 45.0, 1e-9);
  EXPECT_EQ(values_at(family, -3.0)[0], 0.0);
  EXPECT_EQ(values_at(family, 12.0)[0], 90.0);
}

TEST(CurveFamily, UShapeMinimumLocatedApproximately) {
  // The Fig. 7 usage pattern: locate the minimum of a U-shaped response.
  auto f = [](double x) { return (x - 40.0) * (x - 40.0) + 7.0; };
  CurveFamily family(1);
  for (const double x : {10.0, 25.0, 50.0, 70.0, 90.0}) {
    const double ys[] = {f(x)};
    ASSERT_TRUE(family.insert(x, ys).ok());
  }
  double best_x = 0.0;
  double best = 1e300;
  for (int x = 10; x <= 90; ++x) {
    const double v = values_at(family, x)[0];
    if (v < best) {
      best = v;
      best_x = x;
    }
  }
  EXPECT_NEAR(best_x, 40.0, 2.0);
}

TEST(CurveFamily, RejectsDuplicateAbscissaAndWrongWidth) {
  CurveFamily family(2);
  const double ys[] = {1.0, 2.0};
  ASSERT_TRUE(family.insert(3.0, ys).ok());
  EXPECT_FALSE(family.insert(3.0, ys).ok());
  EXPECT_FALSE(family.insert(4.0, std::span<const double>(ys, 1)).ok());
  EXPECT_EQ(family.size(), 1u);
}

/// Every curve of the family equals its single-curve form bit for bit:
/// NewtonPolynomial fed in ascending x order up to the cap, PiecewiseLinear
/// above it, then clamped — over samples inserted in any order, at
/// abscissae inside, on and outside the sampled range.
TEST(CurveFamily, MatchesSingleCurveFormsBitForBit) {
  constexpr std::size_t kCurves = 5;
  // Curve 0 is constant; the others vary, each with its own shape.
  auto y = [](std::size_t curve, double x) {
    if (curve == 0) return 812.5;
    return 400.0 + std::fmod(x * 37.25 * static_cast<double>(curve), 900.0);
  };
  const std::vector<double> xs{40.0, 7.0, 128.0, 19.0, 77.0, 3.0, 55.0, 101.0, 64.0, 12.0, 1.0};
  CurveFamily family(kCurves);
  std::vector<double> sorted;
  for (const double x_new : xs) {
    std::vector<double> row(kCurves);
    for (std::size_t i = 0; i < kCurves; ++i) row[i] = y(i, x_new);
    ASSERT_TRUE(family.insert(x_new, row).ok());
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), x_new), x_new);
    for (std::size_t i = 0; i < kCurves; ++i) {
      NewtonPolynomial newton;
      std::vector<double> ys;
      for (const double x : sorted) {
        ASSERT_TRUE(newton.add_point(x, y(i, x)).ok());
        ys.push_back(y(i, x));
      }
      auto pl = PiecewiseLinear::fit(sorted, ys);
      ASSERT_TRUE(pl.ok());
      for (const double x : {-20.0, 1.0, 5.5, 40.0, 64.0, 66.25, 127.0, 128.0, 160.0}) {
        double expected = 0.0;
        if (sorted.size() <= CurveFamily::kMaxNewtonPoints) {
          expected = newton.evaluate(x);
          if (!std::isfinite(expected)) expected = CurveFamily::kClampHi;
        } else {
          expected = pl.value().evaluate(x);
        }
        expected = std::clamp(expected, CurveFamily::kClampLo, CurveFamily::kClampHi);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(values_at(family, x)[i]),
                  std::bit_cast<std::uint64_t>(expected))
            << "points " << sorted.size() << " curve " << i << " x " << x;
      }
    }
  }
}

}  // namespace
}  // namespace flexopt
