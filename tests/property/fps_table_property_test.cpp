// Property test: the list scheduler's ranking kernel — FPS recurrences run
// on a prepared FpsInterferenceTable — agrees with the span view of the FPS
// analysis on every response and every fixed-point iteration count, over
// random node groups (1-8 tasks, equal and distinct priorities, zero,
// non-zero and unbounded jitters), random profiles whose busy windows wrap
// the period, seeds from a subset profile, and varying cutoffs.  The table's
// candidate sums, with their responses and iteration counts, are checked
// against an independent reference assembled from span fps_response_time
// calls under the documented cutoff contract.  The ranking's candidate view
// (a base profile plus one interval, never merged, with each first step
// taken from the base's busiest window at the seed) is checked against
// plain step-by-step iterations on the merged profile.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/util/rng.hpp"
#include "property/fps_random_case.hpp"

namespace flexopt {
namespace {

using testing::make_case;
using testing::RandomCase;

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

/// A ranking candidate read as the base profile plus one interval: each
/// seeded first step equals the full body on the merged profile, and every
/// response, iteration count, pruned sum and recorded busy time equals a
/// plain iteration's on the merged profile.
TEST(FpsTableProperty, CandidateViewMatchesTheMergedProfile) {
  constexpr int kCases = 3000;
  int first_steps = 0;
  int confirmed_at_once = 0;
  for (int k = 0; k < kCases; ++k) {
    const RandomCase c = make_case(0xca9du + static_cast<std::uint64_t>(k));
    const BusyProfile base(c.intervals, c.period);
    FpsInterferenceTable table;
    table.assign(c.group);
    // Base seeds: each task's busy-window fixed point and the base's
    // busiest window there.
    std::vector<Time> seeds(c.group.size());
    std::vector<Time> seed_busy(c.group.size(), kTimeNone);
    for (std::size_t i = 0; i < c.group.size(); ++i) {
      const Time r = fps_response_time(table, i, base, c.horizon, nullptr, 0, &seed_busy[i]);
      seeds[i] = is_infinite(r) ? kTimeInfinity : r - c.group[i].jitter;
      if (!is_infinite(r)) {
        ASSERT_EQ(seed_busy[i], base.max_busy_in_window(seeds[i])) << k;
      }
    }
    Rng rng(static_cast<std::uint64_t>(k) ^ 0xe7u);
    const auto kind = static_cast<testing::ExtraKind>(k % testing::kExtraKinds);
    const Interval extra = testing::random_extra(rng, base.intervals(), c.period, kind);
    const ProfileWithExtra candidate(base, extra);
    const BusyProfile merged = testing::merged_profile(base.intervals(), extra, c.period);
    ASSERT_EQ(candidate.busy_per_period(), merged.busy_per_period()) << k;

    std::vector<Time> plain(c.group.size(), kTimeNone);
    int plain_iterations = 0;
    Time full = 0;
    for (std::size_t i = 0; i < c.group.size(); ++i) {
      if (is_infinite(seeds[i])) {
        plain[i] = kTimeInfinity;
      } else {
        // The first step from the base fixed point.
        const Time w = seeds[i];
        const Time step = w + candidate.max_busy_given_base(w, seed_busy[i]) - seed_busy[i];
        ASSERT_EQ(step, testing::plain_fps_body(c.group[i], c.group, merged, w))
            << "case " << k << " task " << i;
        ++first_steps;
        confirmed_at_once += step == w ? 1 : 0;
        const testing::PlainResponse p =
            testing::plain_fps_response(c.group[i], c.group, merged, c.horizon, w);
        plain[i] = p.response;
        plain_iterations += p.iterations;
      }
      full = sat_add(full, is_infinite(plain[i]) ? c.horizon : plain[i]);
    }
    for (const Time cutoff : {kTimeInfinity, full, full + 1}) {
      std::vector<Time> responses(c.group.size(), kTimeNone);
      std::vector<Time> busy(c.group.size(), kTimeNone);
      int iterations = 0;
      const Time sum = fps_response_time_sum(table, candidate, c.horizon, seeds, cutoff,
                                             responses, &iterations, seed_busy, busy);
      if (full >= cutoff) {
        ASSERT_GE(sum, cutoff) << "case " << k;
        continue;
      }
      ASSERT_EQ(sum, full) << "case " << k;
      ASSERT_EQ(responses, plain) << "case " << k;
      ASSERT_EQ(iterations, plain_iterations) << "case " << k;
      for (std::size_t i = 0; i < c.group.size(); ++i) {
        if (is_infinite(responses[i])) continue;
        ASSERT_EQ(busy[i], merged.max_busy_in_window(responses[i] - c.group[i].jitter))
            << "case " << k << " task " << i;
      }
    }
  }
  // Both first-step outcomes occur: the base response confirmed at once,
  // and a step onwards.
  EXPECT_GT(confirmed_at_once, 0);
  EXPECT_LT(confirmed_at_once, first_steps);
}

}  // namespace
}  // namespace flexopt
