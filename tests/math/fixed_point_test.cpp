#include "flexopt/math/fixed_point.hpp"

#include <gtest/gtest.h>

namespace flexopt {
namespace {

TEST(FixedPoint, ConvergesOnClassicRecurrence) {
  // w = 3 + 2 * ceil(w / 10): converges at w = 5... check: f(5)=3+2=5.
  const auto f = [](Time t) { return 3 + 2 * ceil_div(t, 10); };
  const auto r = iterate_to_fixed_point(f, 1000);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.value, 5);
}

TEST(FixedPoint, StartsFromZero) {
  const auto f = [](Time) { return Time{42}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.value, 42);
}

TEST(FixedPoint, DetectsDivergencePastHorizon) {
  const auto f = [](Time t) { return t + 10; };
  const auto r = iterate_to_fixed_point(f, 100);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.value, kTimeInfinity);
}

TEST(FixedPoint, ZeroFixedPoint) {
  const auto f = [](Time t) { return t; };  // f(0) == 0
  const auto r = iterate_to_fixed_point(f, 100);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.value, 0);
}

TEST(FixedPoint, IterationCapGuards) {
  // Slowly growing function that would converge only after the cap.
  const auto f = [](Time t) { return t + 1; };
  const auto r = iterate_to_fixed_point(f, kTimeInfinity - 10, /*max_iterations=*/50);
  EXPECT_FALSE(r.converged);
}

// `iterations` counts evaluations of f on every exit path — the profiling
// counters depend on it never reporting 0 for work that did happen.

TEST(FixedPoint, IterationsCountedOnConvergence) {
  const auto f = [](Time t) { return 3 + 2 * ceil_div(t, 10); };
  const auto r = iterate_to_fixed_point(f, 1000);
  ASSERT_TRUE(r.converged);
  // 0 -> 3 -> 5 -> 5: three evaluations (the last confirms the fixed point).
  EXPECT_EQ(r.iterations, 3);
}

TEST(FixedPoint, IterationsCountedOnImmediateWrapDivergence) {
  // Saturating f that wraps below its argument on the very first call
  // (next < t path).  This used to report iterations == 0.
  const auto f = [](Time) { return Time{-1}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.value, kTimeInfinity);
  EXPECT_EQ(r.iterations, 1);
}

TEST(FixedPoint, IterationsCountedOnImmediateHorizonOverrun) {
  const auto f = [](Time) { return Time{5000}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

TEST(FixedPoint, IterationsCountedOnLaterWrapDivergence) {
  // Grows for a few steps, then saturation makes it fall back.
  const auto f = [](Time t) { return t < 30 ? t + 10 : Time{0}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  EXPECT_FALSE(r.converged);
  // 0 -> 10 -> 20 -> 30 -> wrap: four evaluations.
  EXPECT_EQ(r.iterations, 4);
}

TEST(FixedPoint, IterationsEqualCapWhenCapped) {
  const auto f = [](Time t) { return t + 1; };
  const auto r = iterate_to_fixed_point(f, kTimeInfinity - 10, /*max_iterations=*/50);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 50);
}

// iterate_over_stretches: a body that reports where f(t) − t stays constant
// lets the driver skip those steps, counting each in `iterations`; every
// result must equal the step-by-step iteration's, and only `evaluations`
// may shrink.

/// f(t) = t + d below `knee`, then constant `top` (>= knee); the stretch is
/// exact below the knee: f(t + δ) = f(t) + δ while t + δ < knee.
struct KneeBody {
  Time d;
  Time knee;
  Time top;
  [[nodiscard]] Time value(Time t) const { return t < knee ? t + d : top; }
  StretchStep operator()(Time t) const {
    return {value(t), t < knee ? knee - 1 - t : 0};
  }
};

/// Runs `body` with and without its stretches and checks they agree.
FixedPointResult expect_same_as_plain(const KneeBody& body, Time horizon, int max_iterations,
                                      Time seed) {
  const FixedPointResult plain = iterate_to_fixed_point(
      [&](Time t) { return body.value(t); }, horizon, max_iterations, seed);
  const FixedPointResult jumped = iterate_over_stretches(body, horizon, max_iterations, seed);
  EXPECT_EQ(jumped.value, plain.value);
  EXPECT_EQ(jumped.converged, plain.converged);
  EXPECT_EQ(jumped.iterations, plain.iterations);
  EXPECT_EQ(plain.evaluations, plain.iterations);
  EXPECT_LE(jumped.evaluations, jumped.iterations);
  return jumped;
}

TEST(FixedPoint, StretchSkippingConvergesWithTheSameCount) {
  // 0 -> 1 -> ... -> 1000 -> 1000: 1001 steps, of which the first jump
  // skips 999.
  const FixedPointResult r = expect_same_as_plain({1, 1000, 1000}, 5000, 10'000, 0);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.value, 1000);
  EXPECT_EQ(r.iterations, 1001);
  EXPECT_EQ(r.evaluations, 2);
}

TEST(FixedPoint, OneNanosecondCrawlTakesBoundedEvaluations) {
  // A crawl of a million 1 ns steps converges in three evaluations: the
  // first, the one after the skipped stretch, and the confirmation.
  const FixedPointResult r =
      expect_same_as_plain({1, 1'000'000, 1'000'001}, kTimeInfinity - 10, 2'000'000, 0);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.value, 1'000'001);
  EXPECT_EQ(r.iterations, 1'000'002);
  EXPECT_LE(r.evaluations, 3);
}

TEST(FixedPoint, StretchSkippingStopsAtTheHorizonMidStretch) {
  // Steps of 3 from 0 pass a horizon inside the stretch: the iteration
  // stops at the first step whose value passes it, as the plain one does.
  for (const Time horizon : {Time{0}, Time{2}, Time{3}, Time{4}, Time{299}, Time{300},
                             Time{301}, Time{998}, Time{999}, Time{1000}}) {
    const FixedPointResult r = expect_same_as_plain({3, 1000, 5000}, horizon, 10'000, 0);
    EXPECT_FALSE(r.converged) << horizon;
    EXPECT_EQ(r.value, kTimeInfinity) << horizon;
  }
}

TEST(FixedPoint, StretchSkippingStopsAtTheCapMidStretch) {
  // The cap lands inside the stretch, on its last step, and just past it.
  for (const int cap : {1, 2, 50, 332, 333, 334, 335, 336}) {
    const FixedPointResult r = expect_same_as_plain({3, 1000, 1002}, 5000, cap, 0);
    EXPECT_LE(r.iterations, cap) << cap;
    if (!r.converged) {
      EXPECT_EQ(r.iterations, cap) << cap;
    }
  }
  // The cap lands exactly where the iteration would also confirm.
  const FixedPointResult at_cap = expect_same_as_plain({1, 100, 100}, 5000, 101, 0);
  EXPECT_TRUE(at_cap.converged);
  EXPECT_EQ(at_cap.iterations, 101);
}

TEST(FixedPoint, StretchSkippingFromAnySeed) {
  // Seeds below, inside and past the stretch, with horizons and caps that
  // cut it at every alignment of a step of 7.
  for (Time seed = 0; seed < 60; seed += 3) {
    for (const Time horizon : {Time{40}, Time{41}, Time{47}, Time{100}}) {
      for (const int cap : {3, 4, 5, 6, 7, 100}) {
        expect_same_as_plain({7, 50, 60}, horizon, cap, seed);
      }
    }
  }
}

}  // namespace
}  // namespace flexopt
