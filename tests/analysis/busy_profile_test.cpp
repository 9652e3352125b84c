#include "flexopt/analysis/busy_profile.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace flexopt {
namespace {

TEST(NormalizeIntervals, MergesAndSorts) {
  std::vector<Interval> merged{{5, 8}, {1, 3}, {2, 4}, {8, 9}};
  clamp_and_normalize(merged, 10);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (Interval{1, 4}));
  EXPECT_EQ(merged[1], (Interval{5, 9}));
}

TEST(NormalizeIntervals, DropsEmpty) {
  std::vector<Interval> merged{{3, 3}, {5, 4}};
  clamp_and_normalize(merged, 10);
  EXPECT_TRUE(merged.empty());
}

TEST(BusyProfile, BusyBetweenWithinPeriod) {
  const BusyProfile p({{2, 4}, {6, 9}}, 10);
  EXPECT_EQ(p.busy_per_period(), 5);
  EXPECT_EQ(p.busy_between(0, 10), 5);
  EXPECT_EQ(p.busy_between(0, 3), 1);
  EXPECT_EQ(p.busy_between(3, 7), 2);
  EXPECT_EQ(p.busy_between(4, 6), 0);
}

TEST(BusyProfile, BusyBetweenAcrossPeriods) {
  const BusyProfile p({{2, 4}}, 10);
  EXPECT_EQ(p.busy_between(0, 20), 4);
  EXPECT_EQ(p.busy_between(3, 13), 1 + 1);   // tail of first + head of second
  EXPECT_EQ(p.busy_between(5, 35), 6);
}

TEST(BusyProfile, MaxBusyInWindow) {
  const BusyProfile p({{0, 3}, {5, 6}}, 10);
  EXPECT_EQ(p.max_busy_in_window(3), 3);
  EXPECT_EQ(p.max_busy_in_window(6), 4);   // [0,6): 3 + 1
  EXPECT_EQ(p.max_busy_in_window(10), 4);
  EXPECT_EQ(p.max_busy_in_window(20), 8);
  EXPECT_EQ(p.max_busy_in_window(0), 0);
}

TEST(BusyProfile, MaxBusyWindowStraddlesPeriodBoundary) {
  // Busy at the end and the start of the period: a straddling window sees
  // both.
  const BusyProfile p({{8, 10}, {0, 2}}, 10);
  EXPECT_EQ(p.max_busy_in_window(4), 4);
}

TEST(BusyProfile, EmptyProfile) {
  const BusyProfile p({}, 10);
  EXPECT_EQ(p.max_busy_in_window(100), 0);
  EXPECT_EQ(p.busy_between(3, 33), 0);
  EXPECT_EQ(p.earliest_gap(7, 10), 7);
}

TEST(BusyProfile, EarliestGapBasics) {
  const BusyProfile p({{2, 4}, {6, 9}}, 10);
  EXPECT_EQ(p.earliest_gap(0, 2), 0);   // [0,2) free
  EXPECT_EQ(p.earliest_gap(1, 2), 4);   // [1,3) blocked; [4,6) free
  EXPECT_EQ(p.earliest_gap(3, 1), 4);
  EXPECT_EQ(p.earliest_gap(7, 2), 9);   // wraps into [9,10)+[10,11)
}

TEST(BusyProfile, EarliestGapTooLong) {
  const BusyProfile p({{0, 9}}, 10);
  EXPECT_EQ(p.earliest_gap(0, 2), kTimeInfinity);  // largest gap is 1
  EXPECT_EQ(p.earliest_gap(0, 1), 9);
}

TEST(BusyProfile, EarliestGapSpansPeriods) {
  // Free [5,10) then [10,13): a 8-long window at 5 fits ([5,13)).
  const BusyProfile p({{0, 5}}, 10);
  EXPECT_EQ(p.earliest_gap(4, 8), kTimeInfinity);  // gap is only 5 per period
  EXPECT_EQ(p.earliest_gap(4, 5), 5);
}

TEST(BusyProfile, ClampsOutOfRangeIntervals) {
  const BusyProfile p({{-5, 3}, {8, 15}}, 10);
  EXPECT_EQ(p.busy_per_period(), 3 + 2);
}

}  // namespace
}  // namespace flexopt
