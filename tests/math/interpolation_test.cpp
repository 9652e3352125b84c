#include "flexopt/math/interpolation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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

/// clear() keeps capacity: refilling a cleared polynomial or curve to its
/// previous size allocates nothing and reproduces the same values.
TEST(NewtonPolynomial, WarmRefillDoesNotAllocate) {
  auto f = [](double x) { return 0.01 * x * x - 2.0 * x + 900.0; };
  NewtonPolynomial p;
  ResponseTimeCurve curve;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(p.add_point(i * 16.0, f(i * 16.0)).ok());
    ASSERT_TRUE(curve.add_point(i * 16.0, f(i * 16.0)).ok());
  }
  const double p_before = p.evaluate(37.0);
  const double curve_before = curve.evaluate(37.0);
  p.clear();
  curve.clear();
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(curve.size(), 0u);
  const std::uint64_t a0 = alloc_probe::thread_allocations();
  bool added = true;
  for (int i = 0; i < 8; ++i) {
    added = p.add_point(i * 16.0, f(i * 16.0)).ok() && added;
    added = curve.add_point(i * 16.0, f(i * 16.0)).ok() && added;
  }
  const std::uint64_t allocations = alloc_probe::thread_allocations() - a0;
  EXPECT_TRUE(added);
  EXPECT_EQ(p.evaluate(37.0), p_before);
  EXPECT_EQ(curve.evaluate(37.0), curve_before);
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

TEST(ResponseTimeCurve, ClampsToRange) {
  ResponseTimeCurve::Options opt;
  opt.clamp_lo = 0.0;
  opt.clamp_hi = 100.0;
  ResponseTimeCurve curve(opt);
  // Steep quadratic through these points overshoots 100 beyond x=2.
  ASSERT_TRUE(curve.add_point(0.0, 0.0).ok());
  ASSERT_TRUE(curve.add_point(1.0, 50.0).ok());
  ASSERT_TRUE(curve.add_point(2.0, 99.0).ok());
  EXPECT_LE(curve.evaluate(10.0), 100.0);
  EXPECT_GE(curve.evaluate(-10.0), 0.0);
}

TEST(ResponseTimeCurve, FallsBackToPiecewiseLinearAtHighDegree) {
  ResponseTimeCurve::Options opt;
  opt.max_newton_points = 3;
  ResponseTimeCurve curve(opt);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(curve.add_point(i, i * 10.0).ok());
  }
  // Piecewise-linear on y = 10x is exact.
  EXPECT_NEAR(curve.evaluate(4.5), 45.0, 1e-9);
}

TEST(ResponseTimeCurve, UShapeMinimumLocatedApproximately) {
  // The Fig. 7 usage pattern: locate the minimum of a U-shaped response.
  auto f = [](double x) { return (x - 40.0) * (x - 40.0) + 7.0; };
  ResponseTimeCurve curve;
  for (const double x : {10.0, 25.0, 50.0, 70.0, 90.0}) {
    ASSERT_TRUE(curve.add_point(x, f(x)).ok());
  }
  double best_x = 0.0;
  double best = 1e300;
  for (int x = 10; x <= 90; ++x) {
    const double v = curve.evaluate(x);
    if (v < best) {
      best = v;
      best_x = x;
    }
  }
  EXPECT_NEAR(best_x, 40.0, 2.0);
}

}  // namespace
}  // namespace flexopt
