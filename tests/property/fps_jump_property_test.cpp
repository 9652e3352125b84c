// Property test: the FPS recurrence skips stretches where f(w) − w is
// constant, yet every response and every fixed-point iteration count
// equals a plain step-by-step iteration's (same load test, same body, same
// kFpsMaxIterations cap, no skipping), in the span view and the table
// view, unseeded and from any seed.  Checked on fps_table_property_test's
// random groups and on stretches built to crawl 1 ns per step, where the
// horizon, the cap, an interval end and an interferer's release step each
// fall inside or at the end of a stretch.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/util/rng.hpp"
#include "property/fps_random_case.hpp"

namespace flexopt {
namespace {

using testing::plain_fps_response;
using testing::PlainResponse;

/// Asserts that both views of fps_response_time match the plain iteration
/// for task `i` of `group` from `seed`; returns the plain iteration count.
int expect_views_match(std::span<const FpsTaskParams> group, std::size_t i,
                       const BusyProfile& scs, Time horizon, Time seed,
                       const std::string& where) {
  const PlainResponse plain = plain_fps_response(group[i], group, scs, horizon, seed);
  int span_iterations = 0;
  const Time span_r = fps_response_time(group[i], group, scs, horizon, &span_iterations, seed);
  EXPECT_EQ(span_r, plain.response) << where;
  EXPECT_EQ(span_iterations, plain.iterations) << where;
  FpsInterferenceTable table;
  table.assign(group);
  int table_iterations = 0;
  Time busy = kTimeNone;
  const Time table_r = fps_response_time(table, i, scs, horizon, &table_iterations, seed, &busy);
  EXPECT_EQ(table_r, plain.response) << where;
  EXPECT_EQ(table_iterations, plain.iterations) << where;
  if (!is_infinite(table_r)) {
    EXPECT_EQ(busy, scs.max_busy_in_window(table_r - group[i].jitter)) << where;
  }
  return plain.iterations;
}

TEST(FpsJumpProperty, RandomGroupsMatchThePlainIteration) {
  constexpr int kCases = 1500;
  long long iterations = 0;
  for (int k = 0; k < kCases; ++k) {
    const testing::RandomCase c = testing::make_case(0xf95u + static_cast<std::uint64_t>(k));
    const BusyProfile base(c.subset, c.period);
    const BusyProfile profile(c.intervals, c.period);
    Rng rng(static_cast<std::uint64_t>(k) ^ 0x5eedu);
    for (std::size_t i = 0; i < c.group.size(); ++i) {
      const std::string where = "case " + std::to_string(k) + " task " + std::to_string(i);
      for (const BusyProfile* scs : {&base, &profile}) {
        iterations += expect_views_match(c.group, i, *scs, c.horizon, 0, where);
      }
      // Seeded at the subset's fixed point, and at an arbitrary point: the
      // jumps must follow the plain iteration from wherever it starts.
      const PlainResponse seed = plain_fps_response(c.group[i], c.group, base, c.horizon);
      if (!is_infinite(seed.response)) {
        expect_views_match(c.group, i, profile, c.horizon, seed.response - c.group[i].jitter,
                           where + " seeded");
      }
      expect_views_match(c.group, i, profile, c.horizon, rng.uniform_int(0, c.horizon),
                         where + " from anywhere");
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(iterations, 0);
}

// Two 40 us blocks 5 us apart in a 1 ms period: S(w) = w − 5 us for w in
// [45, 85] us, so a task of C = 5 us + 1 ns steps 1 ns per iteration there
// (FpsAnalysis.SeedCanConvergeWhereTheUnseededIterationHitsTheCap).
const BusyProfile& crawl_profile() {
  static const BusyProfile profile(
      {Interval{0, timeunits::us(40)}, Interval{timeunits::us(45), timeunits::us(85)}},
      timeunits::ms(1));
  return profile;
}
constexpr Time kCrawlHorizon = timeunits::ms(4);

TEST(FpsJumpProperty, CrawlHitsTheCapMidStretch) {
  const std::array<FpsTaskParams, 1> task{
      FpsTaskParams{TaskId{0}, timeunits::us(5) + 1, timeunits::ms(1), 0, 0}};
  // Unseeded, the crawl's 40,000 steps pass the cap: it lands inside the
  // stretch, at exactly kFpsMaxIterations.
  EXPECT_EQ(expect_views_match(task, 0, crawl_profile(), kCrawlHorizon, 0, "unseeded"),
            kFpsMaxIterations);
  // From seeds inside the crawl, the cap lands mid-stretch, on the
  // stretch's last point or past it; or the crawl converges.
  for (const Time end_offset : {-3, -1, 0, 1, 2, 50}) {
    const Time seed = timeunits::us(85) - (kFpsMaxIterations - 2) + end_offset;
    expect_views_match(task, 0, crawl_profile(), kCrawlHorizon, seed,
                       "seed " + std::to_string(seed));
  }
  const int converging =
      expect_views_match(task, 0, crawl_profile(), kCrawlHorizon, timeunits::us(80), "converging");
  EXPECT_EQ(converging, 5002);  // 5,000 crawl steps, the step off it, the check
}

TEST(FpsJumpProperty, CrawlCrossesTheHorizonMidStretch) {
  const std::array<FpsTaskParams, 1> task{
      FpsTaskParams{TaskId{0}, timeunits::us(5) + 1, timeunits::ms(1), 0, 0}};
  // Horizons inside the crawl, around a stretch's last point and right
  // after the jump's first evaluated step.
  for (const Time horizon : {timeunits::us(50), timeunits::us(60) + 1, timeunits::us(85) - 1,
                             timeunits::us(85), timeunits::us(85) + 1}) {
    for (const Time seed : {Time{0}, timeunits::us(45), timeunits::us(49) + 999}) {
      expect_views_match(task, 0, crawl_profile(), horizon, seed,
                         "horizon " + std::to_string(horizon) + " seed " + std::to_string(seed));
    }
  }
}

TEST(FpsJumpProperty, StretchEndsAtAnIntervalEnd) {
  // The busiest window of length 85 us ends where the second block ends:
  // no busy time is left after it, so nothing is skipped from there.
  const BusyProfile& scs = crawl_profile();
  EXPECT_EQ(scs.busiest_window(timeunits::us(85)).stretch, 0);
  EXPECT_EQ(scs.busiest_window(timeunits::us(85) - 1).stretch, 1);
  EXPECT_EQ(scs.busiest_window(timeunits::us(50)).stretch, timeunits::us(35));
  const std::array<FpsTaskParams, 1> task{
      FpsTaskParams{TaskId{0}, timeunits::us(5) + 1, timeunits::ms(1), 0, 0}};
  for (Time back = 0; back <= 3; ++back) {
    expect_views_match(task, 0, scs, kCrawlHorizon, timeunits::us(85) - back,
                       "back " + std::to_string(back));
  }
}

TEST(FpsJumpProperty, InterfererStepsAtTheStretchsLastPoint) {
  // A 1 us interferer whose second release counts from w = 60 us + 1 ns
  // (jitter T − 60 us): the crawl's stretch ends at 60 us, where the
  // interferer's ceiling term steps, then the crawl resumes 1 us + 1 ns
  // per step.
  const Time period = timeunits::ms(1);
  for (const Time step_at : {timeunits::us(60), timeunits::us(45), timeunits::us(84) + 999}) {
    const std::array<FpsTaskParams, 2> group{
        FpsTaskParams{TaskId{0}, timeunits::us(4) + 1, period, 0, 1},
        FpsTaskParams{TaskId{1}, timeunits::us(1), period, period - step_at, 0}};
    for (const Time seed : {Time{0}, timeunits::us(45), step_at - 7}) {
      expect_views_match(group, 0, crawl_profile(), kCrawlHorizon, seed,
                         "step at " + std::to_string(step_at) + " seed " + std::to_string(seed));
    }
  }
}

TEST(FpsJumpProperty, ReleaseStepsNearTheLargestTime) {
  // The longest hyper-period whose response horizon, 4 H, still fits Time
  // (SystemAnalysis.LongestFittingHorizonIsAnalysed), with a same-node
  // interferer of period H whose jitter puts w + J at or past the
  // horizon: w + J + T − 1 passes the largest Time from the first step,
  // and the release count times T does once w + J passes 4 T.  The
  // sanitize job runs this under UBSan.
  const Time period = 2'000'000'000'000'000'000;
  const Time horizon = 4 * period;
  const BusyProfile scs({Interval{0, timeunits::sec(1)}}, period);
  for (const Time jitter : {horizon - 1, horizon, horizon + 1, horizon + timeunits::sec(1),
                            kTimeInfinity - timeunits::sec(10)}) {
    const std::array<FpsTaskParams, 2> group{
        FpsTaskParams{TaskId{0}, timeunits::sec(2), period, 0, 1},
        FpsTaskParams{TaskId{1}, timeunits::sec(1), period, jitter, 0}};
    for (const Time seed : {Time{0}, timeunits::sec(3), timeunits::sec(8) - 1}) {
      const std::string where = "jitter " + std::to_string(jitter) + " seed " +
                                std::to_string(seed);
      expect_views_match(group, 0, scs, horizon, seed, where);
      EXPECT_FALSE(is_infinite(testing::plain_fps_response(group[0], group, scs, horizon, seed)
                                   .response))
          << where;
    }
  }
}

TEST(FpsJumpProperty, ShiftedCrawlsMatchThePlainIteration) {
  // Crawls of 1-3 ns per step through gaps of random size and position,
  // with random interferers, horizons and seeds: the skipping must track
  // the plain iteration across every alignment of stretch ends, release
  // steps, the horizon and the cap.
  Rng rng(0xc4a71u);
  for (int k = 0; k < 400; ++k) {
    const Time period = timeunits::us(rng.uniform_int(200, 2000));
    const Time block = timeunits::us(rng.uniform_int(10, 60));
    const Time gap = rng.uniform_int(1, 20'000);
    const Time shift = rng.uniform_int(0, period - 2 * block - gap - 1);
    const BusyProfile scs({Interval{shift, shift + block},
                           Interval{shift + block + gap, shift + 2 * block + gap}},
                          period);
    const Time crawl = rng.uniform_int(1, 3);
    std::vector<FpsTaskParams> group{
        FpsTaskParams{TaskId{0}, gap + crawl, period, rng.uniform_int(0, 500), 2}};
    const int interferers = static_cast<int>(rng.uniform_int(0, 2));
    for (int j = 0; j < interferers; ++j) {
      group.push_back(FpsTaskParams{static_cast<TaskId>(j + 1), rng.uniform_int(1, 2000),
                                    period / rng.uniform_int(1, 4), rng.uniform_int(0, period), j});
    }
    const Time horizon = rng.uniform_int(block, 4 * period);
    const Time seed = rng.uniform_int(0, 2) == 0 ? 0 : rng.uniform_int(0, 2 * block + gap);
    expect_views_match(group, 0, scs, horizon, seed, "crawl " + std::to_string(k));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace flexopt
