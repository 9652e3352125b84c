// FPS response-time analysis under SCS interference: classic RTA cases
// plus the availability-window extension.

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"

namespace flexopt {
namespace {

constexpr Time kHorizon = timeunits::ms(10);

TEST(FpsAnalysis, SingleTaskNoInterference) {
  const BusyProfile idle({}, timeunits::us(100));
  const FpsTaskParams t{TaskId{0}, timeunits::us(10), timeunits::us(100), 0, 1};
  EXPECT_EQ(fps_response_time(t, {}, idle, kHorizon), timeunits::us(10));
}

TEST(FpsAnalysis, ClassicTwoTaskPreemption) {
  // hp task: C=2, T=10; own: C=5 -> w = 5 + 2*ceil(w/10): w=7 -> check 5+2=7.
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<FpsTaskParams, 2> tasks{
      FpsTaskParams{TaskId{0}, timeunits::us(2), timeunits::us(10), 0, 0},
      FpsTaskParams{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  EXPECT_EQ(fps_response_time(tasks[1], tasks, idle, kHorizon), timeunits::us(7));
  // The high-priority task is unaffected by the lower one.
  EXPECT_EQ(fps_response_time(tasks[0], tasks, idle, kHorizon), timeunits::us(2));
}

TEST(FpsAnalysis, JitterIncreasesInterferenceAndResponse) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<FpsTaskParams, 2> tasks{
      FpsTaskParams{TaskId{0}, timeunits::us(2), timeunits::us(10), timeunits::us(9), 0},
      FpsTaskParams{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  // w = 5 + 2*ceil((w+9)/10): w=0->5? iterate: 5->2*ceil(14/10)=4 ->9; 9->2*ceil(18/10)=4 ->9.
  EXPECT_EQ(fps_response_time(tasks[1], tasks, idle, kHorizon), timeunits::us(9));
  // Own jitter shifts the response additively.
  const FpsTaskParams jittered{TaskId{1}, timeunits::us(5), timeunits::us(100),
                               timeunits::us(3), 1};
  EXPECT_EQ(fps_response_time(jittered, tasks, idle, kHorizon), timeunits::us(12));
}

TEST(FpsAnalysis, ScsBusyWindowsDelayFpsTasks) {
  // SCS busy [0, 40) per 100us period; FPS task C=30 can only run in the
  // 60us of slack: w = 30 + S(w); S(70) = 40 -> w = 70.
  const BusyProfile scs({{0, timeunits::us(40)}}, timeunits::us(100));
  const FpsTaskParams t{TaskId{0}, timeunits::us(30), timeunits::us(100), 0, 1};
  EXPECT_EQ(fps_response_time(t, {}, scs, kHorizon), timeunits::us(70));
}

TEST(FpsAnalysis, UnschedulableDivergesToInfinity) {
  const BusyProfile idle({}, timeunits::us(100));
  // 100% utilisation by the hp task leaves nothing: diverges.
  const std::array<FpsTaskParams, 2> tasks{
      FpsTaskParams{TaskId{0}, timeunits::us(10), timeunits::us(10), 0, 0},
      FpsTaskParams{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  EXPECT_EQ(fps_response_time(tasks[1], tasks, idle, kHorizon), kTimeInfinity);
}

TEST(FpsAnalysis, InfiniteJitterPropagates) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<FpsTaskParams, 2> tasks{
      FpsTaskParams{TaskId{0}, timeunits::us(2), timeunits::us(10), kTimeInfinity, 0},
      FpsTaskParams{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  EXPECT_EQ(fps_response_time(tasks[1], tasks, idle, kHorizon), kTimeInfinity);
  const FpsTaskParams own_inf{TaskId{2}, timeunits::us(5), timeunits::us(100),
                              kTimeInfinity, 2};
  EXPECT_EQ(fps_response_time(own_inf, {}, idle, kHorizon), kTimeInfinity);
}

TEST(FpsAnalysis, EqualPrioritiesMutuallyInterfere) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<FpsTaskParams, 2> tasks{
      FpsTaskParams{TaskId{0}, timeunits::us(3), timeunits::us(50), 0, 1},
      FpsTaskParams{TaskId{1}, timeunits::us(4), timeunits::us(50), 0, 1},
  };
  EXPECT_EQ(fps_response_time(tasks[0], tasks, idle, kHorizon), timeunits::us(7));
  EXPECT_EQ(fps_response_time(tasks[1], tasks, idle, kHorizon), timeunits::us(7));
}

TEST(FpsAnalysis, SumTreatsInfiniteAsHorizon) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<FpsTaskParams, 2> tasks{
      FpsTaskParams{TaskId{0}, timeunits::us(10), timeunits::us(10), 0, 0},
      FpsTaskParams{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  FpsInterferenceTable table;
  table.assign(tasks);
  const Time sum = fps_response_time_sum(table, idle, kHorizon);
  EXPECT_EQ(sum, timeunits::us(10) + kHorizon);
}

/// The list scheduler's pruned ranking: with base-profile seeds (a subset
/// of the candidate's interference) and an incumbent cutoff, the sum equals
/// the full sum whenever that is below the cutoff and is >= the cutoff
/// otherwise; infinite seeds count their full horizon charge.
TEST(FpsAnalysis, CutoffSumIsExactBelowTheCutoff) {
  const Time period = timeunits::us(100);
  const Interval early{timeunits::us(10), timeunits::us(30)};
  const Interval late{timeunits::us(60), timeunits::us(75)};
  const BusyProfile base({early}, period);
  const BusyProfile candidate({early, late}, period);
  const std::array<FpsTaskParams, 4> tasks{
      FpsTaskParams{TaskId{0}, timeunits::us(5), timeunits::us(50), 0, 0},
      FpsTaskParams{TaskId{1}, timeunits::us(12), timeunits::us(100), 0, 1},
      // Diverges against the base profile already: an infinite seed.
      FpsTaskParams{TaskId{2}, timeunits::us(75), timeunits::us(100), 0, 2},
      FpsTaskParams{TaskId{3}, timeunits::us(3), timeunits::us(200), 0, 0},
  };
  std::array<Time, 4> seeds{};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    seeds[i] = fps_response_time(tasks[i], tasks, base, kHorizon);
  }
  ASSERT_EQ(seeds[2], kTimeInfinity);
  ASSERT_NE(seeds[0], kTimeInfinity);

  FpsInterferenceTable table;
  table.assign(tasks);
  const Time full = fps_response_time_sum(table, candidate, kHorizon);
  std::array<Time, 4> responses{};
  int iterations = 0;
  const Time seeded_full = fps_response_time_sum(table, candidate, kHorizon, seeds,
                                                 kTimeInfinity, responses, &iterations);
  EXPECT_EQ(seeded_full, full);
  int task_iterations = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(responses[i], fps_response_time(tasks[i], tasks, candidate, kHorizon)) << i;
    if (seeds[i] != kTimeInfinity) {
      (void)fps_response_time(tasks[i], tasks, candidate, kHorizon, &task_iterations, seeds[i]);
    }
  }
  EXPECT_EQ(iterations, task_iterations);  // the infinite seed is not analysed

  std::vector<Time> cutoffs{0, 1, full / 2, full - 1, full, full + 1, kTimeInfinity};
  Time partial = 0;
  for (const Time r : responses) {
    partial += r == kTimeInfinity ? kHorizon : r;
    cutoffs.insert(cutoffs.end(), {partial - 1, partial, partial + 1, kHorizon + partial});
  }
  for (const Time cutoff : cutoffs) {
    for (const bool seeded : {true, false}) {
      const std::span<const Time> used = seeded ? seeds : std::span<const Time>{};
      const Time sum = fps_response_time_sum(table, candidate, kHorizon, used, cutoff);
      if (full < cutoff) {
        EXPECT_EQ(sum, full) << "cutoff " << cutoff << " seeded " << seeded;
      } else {
        EXPECT_GE(sum, cutoff) << "cutoff " << cutoff << " seeded " << seeded;
      }
    }
  }
}

/// The seed contract's exception: a window that crawls through a gap
/// one nanosecond per evaluation makes the unseeded iteration give up at
/// kFpsMaxIterations, while a seed past the crawl converges to the least
/// fixed point.  The list scheduler bounds its reused seeds against this.
TEST(FpsAnalysis, SeedCanConvergeWhereTheUnseededIterationHitsTheCap) {
  // Two 40 us blocks 5 us apart: S(w) = w - 5 us for w in [45, 85] us, so
  // w = C + S(w) steps by C - 5 us = 1 ns there, 40,000 steps to w = 85 us.
  const BusyProfile scs({Interval{0, timeunits::us(40)},
                         Interval{timeunits::us(45), timeunits::us(85)}},
                        timeunits::ms(1));
  const FpsTaskParams task{TaskId{0}, timeunits::us(5) + 1, timeunits::ms(1), 0, 0};
  const Time lfp = timeunits::us(85) + 1;
  int unseeded_iterations = 0;
  EXPECT_EQ(fps_response_time(task, {}, scs, kHorizon, &unseeded_iterations), kTimeInfinity);
  EXPECT_EQ(unseeded_iterations, kFpsMaxIterations);
  EXPECT_EQ(fps_response_time(task, {}, scs, kHorizon, nullptr, timeunits::us(85)), lfp);
}

}  // namespace
}  // namespace flexopt
