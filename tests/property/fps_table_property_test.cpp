// Property test: the list scheduler's ranking kernel — FPS recurrences run
// on a prepared FpsInterferenceTable — agrees with the span view of the FPS
// analysis on every response and every fixed-point evaluation count, over
// random node groups (1-8 tasks, equal and distinct priorities, zero,
// non-zero and unbounded jitters), random profiles whose busy windows wrap
// the period, seeds from a subset profile, and varying cutoffs.  The table's
// candidate sums, with their responses and evaluation counts, are checked
// against an independent reference assembled from span fps_response_time
// calls under the documented cutoff contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

struct RandomCase {
  std::vector<FpsTaskParams> group;
  Time period = 0;                 ///< the profiles' period (hyper-period)
  std::vector<Interval> subset;    ///< base profile: a subset of `intervals`
  std::vector<Interval> intervals;
  Time horizon = 0;
};

RandomCase make_case(std::uint64_t seed) {
  Rng rng(seed);
  RandomCase c;
  c.period = rng.uniform_int(200, 5000);
  c.horizon = 4 * c.period;
  const int n = static_cast<int>(rng.uniform_int(1, 8));
  const bool distinct = rng.uniform_int(0, 1) == 1;
  const bool jittered = rng.uniform_int(0, 1) == 1;
  for (int i = 0; i < n; ++i) {
    FpsTaskParams t;
    t.id = static_cast<TaskId>(i);
    t.wcet = rng.uniform_int(1, std::max<Time>(1, c.period / (3 * n)));
    t.period = c.period / rng.uniform_int(1, 4);
    t.jitter = jittered ? rng.uniform_int(0, c.period / 4) : 0;
    if (jittered && rng.uniform_int(0, 15) == 0) t.jitter = kTimeInfinity;
    t.priority = distinct ? i : static_cast<int>(rng.uniform_int(0, 2));
    c.group.push_back(t);
  }
  rng.shuffle(c.group);  // group order is not priority order
  // Busy intervals anywhere in [0, period], some touching either end so the
  // merged profile wraps from the period's end into its start.
  const int m = static_cast<int>(rng.uniform_int(0, 8));
  for (int i = 0; i < m; ++i) {
    Time start = rng.uniform_int(0, c.period - 1);
    if (rng.uniform_int(0, 5) == 0) start = 0;
    Time end = std::min(c.period, start + rng.uniform_int(1, c.period / 6));
    if (rng.uniform_int(0, 5) == 0) end = c.period;
    const Interval iv{start, end};
    c.intervals.push_back(iv);
    if (rng.uniform_int(0, 1) == 1) c.subset.push_back(iv);
  }
  return c;
}

/// fps_response_time_sum's contract, assembled from span-view recurrences:
/// tasks are analysed in group order; before task i the partial sum plus
/// the remaining tasks' seed floors is compared with `cutoff`.
Time reference_sum(std::span<const FpsTaskParams> group, const BusyProfile& scs, Time horizon,
                   std::span<const Time> seeds, Time cutoff, std::vector<Time>& responses,
                   int& iterations) {
  const auto floor_of = [&](std::size_t i) -> Time {
    if (is_infinite(seeds[i])) return horizon;
    return std::min(horizon, sat_add(group[i].jitter, seeds[i]));
  };
  Time sum = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    Time remaining = 0;
    for (std::size_t k = i; k < group.size(); ++k) remaining = sat_add(remaining, floor_of(k));
    if (sat_add(sum, remaining) >= cutoff) return sat_add(sum, remaining);
    const Time r = is_infinite(seeds[i])
                       ? kTimeInfinity
                       : fps_response_time(group[i], group, scs, horizon, &iterations, seeds[i]);
    responses[i] = r;
    sum = sat_add(sum, is_infinite(r) ? horizon : r);
  }
  return sum;
}

TEST(FpsTableProperty, TableViewMatchesSpanView) {
  constexpr int kCases = 3000;
  int pruned = 0;
  int unbounded = 0;
  for (int k = 0; k < kCases; ++k) {
    const RandomCase c = make_case(0xf95u + static_cast<std::uint64_t>(k));
    const BusyProfile base(c.subset, c.period);
    const BusyProfile profile(c.intervals, c.period);
    FpsInterferenceTable table;
    table.assign(c.group);
    ASSERT_EQ(table.size(), c.group.size());

    // Seeds: pre-jitter busy values against the subset profile.
    std::vector<Time> seeds(c.group.size());
    for (std::size_t i = 0; i < c.group.size(); ++i) {
      int span_iterations = 0;
      int table_iterations = 0;
      const Time span_r =
          fps_response_time(c.group[i], c.group, base, c.horizon, &span_iterations);
      const Time table_r = fps_response_time(table, i, base, c.horizon, &table_iterations);
      ASSERT_EQ(table_r, span_r) << "case " << k << " task " << i;
      ASSERT_EQ(table_iterations, span_iterations) << "case " << k << " task " << i;
      seeds[i] = is_infinite(span_r) ? kTimeInfinity : span_r - c.group[i].jitter;
      unbounded += is_infinite(span_r) ? 1 : 0;
    }

    // Seeded responses against the full profile.
    for (std::size_t i = 0; i < c.group.size(); ++i) {
      if (is_infinite(seeds[i])) continue;
      int span_iterations = 0;
      int table_iterations = 0;
      const Time span_r = fps_response_time(c.group[i], c.group, profile, c.horizon,
                                            &span_iterations, seeds[i]);
      const Time table_r =
          fps_response_time(table, i, profile, c.horizon, &table_iterations, seeds[i]);
      ASSERT_EQ(table_r, span_r) << "case " << k << " task " << i;
      ASSERT_EQ(table_iterations, span_iterations) << "case " << k << " task " << i;
    }

    // Sums: unpruned, then cutoffs below, at and above the full sum.
    std::vector<Time> reference_responses(c.group.size(), kTimeNone);
    int reference_iterations = 0;
    const Time full = reference_sum(c.group, profile, c.horizon, seeds, kTimeInfinity,
                                    reference_responses, reference_iterations);
    Rng cut_rng(static_cast<std::uint64_t>(k));
    for (const Time cutoff : {kTimeInfinity, full, full + 1, cut_rng.uniform_int(0, full)}) {
      std::vector<Time> expected(c.group.size(), kTimeNone);
      int expected_iterations = 0;
      const Time expected_sum = reference_sum(c.group, profile, c.horizon, seeds, cutoff,
                                              expected, expected_iterations);
      std::vector<Time> table_responses(c.group.size(), kTimeNone);
      int table_iterations = 0;
      const Time table_sum = fps_response_time_sum(table, profile, c.horizon, seeds, cutoff,
                                                   table_responses, &table_iterations);
      ASSERT_EQ(table_sum, expected_sum) << "case " << k << " cutoff " << cutoff;
      ASSERT_EQ(table_responses, expected) << "case " << k << " cutoff " << cutoff;
      ASSERT_EQ(table_iterations, expected_iterations) << "case " << k << " cutoff " << cutoff;
      if (expected_sum < cutoff) {
        ASSERT_EQ(expected_sum, full) << "case " << k;
      } else {
        ++pruned;
      }
    }
  }
  // The population exercises pruning and unbounded responses.
  EXPECT_GT(pruned, kCases / 2);
  EXPECT_GT(unbounded, 0);
}

}  // namespace
}  // namespace flexopt
