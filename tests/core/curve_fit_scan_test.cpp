// Bit-for-bit oracle of OBC-CF's interpolated candidate scan (Fig. 8,
// detail::CurveFitScan).  The reference is the per-activity path the scan
// replaced: activities whose completion bound is equal at every analysed
// point are short-circuited to that value; every other activity gets its
// own NewtonPolynomial (fed in ascending x, up to the family's cap) or
// PiecewiseLinear, clamped to the family's range; each bound is rounded
// with std::llround and the candidate costed with evaluate_cost.  Every
// candidate's cost must match that reference bit for bit over generated
// point sets, and a scan grown one point at a time (partial refreshes)
// must match one built from all points at once.

#include "flexopt/core/detail/curve_fit_scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flexopt/analysis/cost.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/math/interpolation.hpp"
#include "flexopt/util/alloc_probe.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

using detail::CurveFitScan;
using detail::round_nonnegative;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The cruise controller's effective deadlines, tasks then messages.
struct Activities {
  Application app = build_cruise_controller();
  std::vector<Time> deadlines;

  Activities() {
    for (std::size_t t = 0; t < app.task_count(); ++t) {
      deadlines.push_back(app.effective_deadline(ActivityRef::task(static_cast<TaskId>(t))));
    }
    for (std::size_t m = 0; m < app.message_count(); ++m) {
      deadlines.push_back(
          app.effective_deadline(ActivityRef::message(static_cast<MessageId>(m))));
    }
  }
};

const Activities& activities() {
  static const Activities instance;
  return instance;
}

/// One analysed DYN length and its completion bounds (µs) per activity.
struct Point {
  int x = 0;
  std::vector<double> us;
};

/// The per-activity path, fitted once per point set and evaluated per
/// candidate.
class Reference {
 public:
  explicit Reference(std::vector<Point> points) {
    std::sort(points.begin(), points.end(),
              [](const Point& a, const Point& b) { return a.x < b.x; });
    const std::size_t n = activities().deadlines.size();
    constant_.assign(n, true);
    newton_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> xs;
      std::vector<double> ys;
      for (const Point& p : points) {
        xs.push_back(p.x);
        ys.push_back(p.us[i]);
        if (p.us[i] != points.front().us[i]) constant_[i] = false;
      }
      value_.push_back(ys.front());
      if (points.size() <= CurveFamily::kMaxNewtonPoints) {
        for (std::size_t k = 0; k < xs.size(); ++k) (void)newton_[i].add_point(xs[k], ys[k]);
        linear_.emplace_back();
      } else {
        linear_.push_back(PiecewiseLinear::fit(xs, ys).value());
      }
    }
    newton_regime_ = points.size() <= CurveFamily::kMaxNewtonPoints;
  }

  [[nodiscard]] double cost(double x) const {
    const Application& app = activities().app;
    std::vector<Time> task_c(app.task_count());
    std::vector<Time> msg_c(app.message_count());
    for (std::size_t i = 0; i < constant_.size(); ++i) {
      double us = value_[i];
      if (!constant_[i]) {
        double v = 0.0;
        if (newton_regime_) {
          v = newton_[i].evaluate(x);
          if (!std::isfinite(v)) v = CurveFamily::kClampHi;
        } else {
          v = linear_[i]->evaluate(x);
        }
        us = std::clamp(v, CurveFamily::kClampLo, CurveFamily::kClampHi);
      }
      const auto ns = static_cast<Time>(std::llround(us * 1e3));
      if (i < task_c.size()) {
        task_c[i] = ns;
      } else {
        msg_c[i - task_c.size()] = ns;
      }
    }
    return evaluate_cost(app, task_c, msg_c).value;
  }

 private:
  std::vector<bool> constant_;
  std::vector<double> value_;
  bool newton_regime_ = true;
  std::vector<NewtonPolynomial> newton_;
  std::vector<std::optional<PiecewiseLinear>> linear_;
};

/// A generated OBC-CF run: the candidate grid and the analysed points in the
/// order the search would add them.
struct Case {
  std::vector<int> grid;
  std::vector<Point> points;
};

/// How an activity's completion bound behaves across the points.
enum class Kind { Constant, Varying, NewlyVarying };

Case generate_case(Rng& rng, std::size_t n_points) {
  Case out;
  const int dyn_min = static_cast<int>(rng.uniform_int(1, 40));
  const int stride = static_cast<int>(rng.uniform_int(1, 9));
  const int candidates = static_cast<int>(rng.uniform_int(24, 128));
  for (int c = 0; c < candidates; ++c) out.grid.push_back(dyn_min + c * stride);
  const int dyn_max = out.grid.back();

  // Points anywhere in the range, on the grid or between candidates; a
  // narrowed range leaves candidates outside the node range on either side
  // (an endpoint whose analysis was invalid).
  const int lo = rng.chance(0.5) ? dyn_min : dyn_min + (dyn_max - dyn_min) / 8;
  const int hi = rng.chance(0.5) ? dyn_max : dyn_max - (dyn_max - dyn_min) / 8;
  std::vector<int> xs;
  while (xs.size() < n_points) {
    const int x = rng.chance(0.5)
                      ? static_cast<int>(rng.uniform_int(lo, hi))
                      : out.grid[static_cast<std::size_t>(rng.uniform_int(0, candidates - 1))];
    if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
  }

  const std::vector<Time>& deadlines = activities().deadlines;
  std::vector<Kind> kinds;
  std::vector<std::size_t> varies_from;
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    const double roll = rng.uniform_real(0.0, 1.0);
    kinds.push_back(roll < 0.2 ? Kind::Constant : roll < 0.4 ? Kind::NewlyVarying : Kind::Varying);
    varies_from.push_back(static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(std::max<std::size_t>(1, n_points - 1)))));
  }
  // Completion bounds are whole nanoseconds converted to µs, from well
  // inside the deadline to past it, with the occasional unbounded
  // completion's 10x-deadline penalty.
  auto draw = [&](std::size_t i) {
    if (rng.chance(0.03)) return to_us(deadlines[i]) * kUnboundedPenaltyFactor;
    const double scale = rng.uniform_real(0.2, 1.6);
    return to_us(static_cast<Time>(static_cast<double>(deadlines[i]) * scale));
  };
  std::vector<double> first(deadlines.size());
  for (std::size_t i = 0; i < deadlines.size(); ++i) first[i] = draw(i);
  for (std::size_t p = 0; p < n_points; ++p) {
    Point point;
    point.x = xs[p];
    for (std::size_t i = 0; i < deadlines.size(); ++i) {
      const bool varies = kinds[i] == Kind::Varying ||
                          (kinds[i] == Kind::NewlyVarying && p >= varies_from[i]);
      point.us.push_back(varies && p > 0 ? draw(i) : first[i]);
    }
    out.points.push_back(std::move(point));
  }
  return out;
}

/// Compares every un-analysed candidate of `scan` with the reference, and
/// the scan's cost at every point and beyond both grid ends.
void expect_matches_reference(const CurveFitScan& scan, const std::vector<Point>& points,
                              const std::string& where) {
  const Reference reference(points);
  for (std::size_t c = 0; c < scan.grid().size(); ++c) {
    if (scan.analysed(c)) continue;
    const double x = scan.grid()[c];
    ASSERT_EQ(bits(scan.grid_cost(c)), bits(reference.cost(x)))
        << where << " candidate " << c << " x " << x;
  }
  std::vector<double> probes{scan.grid().front() - 7.0, scan.grid().back() + 7.0};
  for (const Point& p : points) probes.push_back(p.x);
  for (const double x : probes) {
    ASSERT_EQ(bits(scan.interpolated_cost(x)), bits(reference.cost(x))) << where << " x " << x;
  }
}

TEST(CurveFitScan, MatchesPerActivityReferenceBitForBit) {
  Rng rng(20240615);
  std::size_t piecewise_linear = 0;
  for (std::size_t n_points = 2; n_points <= 20; ++n_points) {
    for (int rep = 0; rep < 3; ++rep) {
      const Case c = generate_case(rng, n_points);
      CurveFitScan scan(c.grid, activities().deadlines);
      for (const Point& p : c.points) scan.add_point(p.x, p.us);
      scan.refresh();
      if (scan.family().piecewise_linear()) ++piecewise_linear;
      const std::string where =
          "points " + std::to_string(n_points) + " rep " + std::to_string(rep);
      expect_matches_reference(scan, c.points, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(piecewise_linear, 0u);
}

/// The search's access pattern: one point per refresh.  Each refresh (a
/// partial one in the piecewise-linear regime) must leave every candidate
/// equal to a scan rebuilt from all points and to the reference.
TEST(CurveFitScan, GrowByOneMatchesFullRebuildAndReference) {
  Rng rng(77);
  std::size_t partial = 0;
  std::size_t newly_varying = 0;
  for (int rep = 0; rep < 12; ++rep) {
    const Case c = generate_case(rng, 20);
    CurveFitScan grown(c.grid, activities().deadlines);
    std::vector<Point> so_far;
    // The search starts from a few initial points, then adds one at a time.
    const std::size_t initial = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t p = 0; p < c.points.size(); ++p) {
      grown.add_point(c.points[p].x, c.points[p].us);
      so_far.push_back(c.points[p]);
      if (so_far.size() < initial) continue;
      if (so_far.size() > CurveFamily::kMaxNewtonPoints + 1) ++partial;
      for (std::size_t i = 0; i < c.points[p].us.size(); ++i) {
        bool was_constant = true;
        for (std::size_t k = 0; k + 1 < so_far.size(); ++k) {
          was_constant = was_constant && so_far[k].us[i] == so_far.front().us[i];
        }
        if (so_far.size() > 2 && was_constant && c.points[p].us[i] != so_far.front().us[i]) {
          ++newly_varying;
        }
      }
      grown.refresh();
      CurveFitScan rebuilt(c.grid, activities().deadlines);
      for (const Point& q : so_far) rebuilt.add_point(q.x, q.us);
      rebuilt.refresh();
      const std::string where =
          "rep " + std::to_string(rep) + " points " + std::to_string(so_far.size());
      for (std::size_t k = 0; k < c.grid.size(); ++k) {
        ASSERT_EQ(grown.analysed(k), rebuilt.analysed(k));
        if (grown.analysed(k)) continue;
        ASSERT_EQ(bits(grown.grid_cost(k)), bits(rebuilt.grid_cost(k)))
            << where << " candidate " << k;
      }
      expect_matches_reference(grown, so_far, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(partial, 0u);
  EXPECT_GT(newly_varying, 0u);
}

TEST(CurveFitScan, InlineRoundingMatchesLlround) {
  std::vector<double> values{0.0, -0.0, 0.25, 0.5, 1.5, 2.5, 1e3 + 0.5, 123456789.5};
  for (const double base : {0.0, 1.0, 2.0, 1e9, 4503599627370494.0}) {
    const double half = base + 0.5;
    values.push_back(half);
    values.push_back(std::nextafter(half, 0.0));  // next below halfway
    values.push_back(std::nextafter(half, 1e300));
  }
  // At and above 2^52 every double is an integer.
  for (double v = 4503599627370496.0; v < 9.2e18; v *= 1.9) {
    values.push_back(v);
    values.push_back(std::nextafter(v, 1e300));
    values.push_back(std::nextafter(v, 0.0));
  }
  values.push_back(CurveFamily::kClampHi * 1e3);
  values.push_back(std::nextafter(9223372036854775808.0, 0.0));
  for (const double v : values) {
    EXPECT_EQ(round_nonnegative(v), std::llround(v)) << std::hexfloat << v;
  }
}

/// A fit extrapolated far past its nodes — a steep Newton polynomial, or
/// one whose value overflows to infinity — clamps to a bound whose
/// nanosecond value still fits a Time, so the slack sums cannot overflow.
TEST(CurveFitScan, SteepExtrapolationStaysInsideInt64) {
  const std::vector<Time> deadlines{timeunits::ms(1), timeunits::ms(2)};
  CurveFitScan scan({0, 1, 2, 3, 1000, 100000}, deadlines);
  for (const int x : {0, 1, 2}) {
    const double xd = x;
    const double us[] = {1e13 * xd * xd, 1e300 * xd * xd};
    scan.add_point(x, us);
  }
  scan.refresh();
  // The clamp, 9.2e15 µs, is 9.2e18 ns; every slack below stays in int64.
  const Time clamp_ns = 9'200'000'000'000'000'000;
  EXPECT_EQ(CurveFamily::kClampHi * 1e3, static_cast<double>(clamp_ns));
  double expected = 0.0;
  expected += to_us(clamp_ns - deadlines[0]);
  expected += to_us(clamp_ns - deadlines[1]);
  EXPECT_EQ(scan.grid_cost(4), expected);  // 1e19 µs and 1e306 µs
  EXPECT_EQ(scan.grid_cost(5), expected);  // 1e23 µs and +inf
  double at_3 = 0.0;
  at_3 += to_us(timeunits::us(90'000'000'000'000) - deadlines[0]);
  at_3 += to_us(clamp_ns - deadlines[1]);
  EXPECT_EQ(scan.grid_cost(3), at_3);
}

/// Refreshing a cleared scan refilled to its previous size allocates
/// nothing, in either regime.
TEST(CurveFitScan, WarmRefreshDoesNotAllocate) {
  Rng rng(5);
  const Case c = generate_case(rng, 16);
  CurveFitScan scan(c.grid, activities().deadlines);
  auto fill = [&] {
    for (const Point& p : c.points) {
      scan.add_point(p.x, p.us);
      scan.refresh();
    }
  };
  fill();
  const double before = scan.interpolated_cost(c.grid[1]);
  scan.clear();
  const std::uint64_t a0 = alloc_probe::thread_allocations();
  fill();
  const std::uint64_t allocations = alloc_probe::thread_allocations() - a0;
  EXPECT_EQ(bits(scan.interpolated_cost(c.grid[1])), bits(before));
  if (!alloc_probe::installed()) GTEST_SKIP() << "alloc probe displaced (sanitizer build)";
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace flexopt
