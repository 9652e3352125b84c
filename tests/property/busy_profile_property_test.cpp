// Property tests: BusyProfile's analytic queries must agree with a
// brute-force per-tick reference over randomly generated periodic profiles
// of up to 64 intervals, for windows of up to 4.5 periods.  The window
// scan's stretch must be one S really has, and a profile plus one extra
// interval, queried as a ProfileWithExtra, must answer exactly what the
// merged profile does.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flexopt/analysis/busy_profile.hpp"
#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/util/rng.hpp"
#include "property/fps_random_case.hpp"

namespace flexopt {
namespace {

struct RandomProfile {
  std::vector<Interval> intervals;
  Time period;
};

/// 0-64 random (possibly overlapping) intervals in a period long enough to
/// keep most of them apart — enough that max_busy_in_window's cursor walks
/// dozens of intervals and wraps the period.
RandomProfile make_profile(std::uint64_t seed) {
  Rng rng(seed);
  RandomProfile p;
  const int n = static_cast<int>(rng.uniform_int(0, 64));
  p.period = 2 * n + 50 + rng.uniform_int(0, 400);  // small period => cheap brute force
  for (int i = 0; i < n; ++i) {
    const Time start = rng.uniform_int(0, p.period - 2);
    const Time longest = std::max<Time>(1, std::min((p.period - start) / 2, p.period / (n + 1)));
    p.intervals.push_back({start, std::min(start + rng.uniform_int(1, longest), p.period)});
  }
  return p;
}

/// Reference: per-tick busy flags of one period, straight from the raw
/// (unmerged) intervals, and their prefix sums over `periods` periods.
struct BruteProfile {
  Time period;
  std::vector<Time> prefix;  // busy ticks in [0, t)

  BruteProfile(const RandomProfile& p, Time periods) : period(p.period) {
    std::vector<bool> busy(static_cast<std::size_t>(p.period), false);
    for (const Interval& iv : p.intervals) {
      for (Time t = iv.start; t < iv.end; ++t) busy[static_cast<std::size_t>(t)] = true;
    }
    prefix.assign(static_cast<std::size_t>(periods * p.period) + 1, 0);
    for (std::size_t t = 1; t < prefix.size(); ++t) {
      prefix[t] = prefix[t - 1] + (busy[(t - 1) % busy.size()] ? 1 : 0);
    }
  }

  /// Busy time of [from, to); both within the prefix range.
  [[nodiscard]] Time busy(Time from, Time to) const {
    return prefix[static_cast<std::size_t>(to)] - prefix[static_cast<std::size_t>(from)];
  }

  /// Maximum busy time over every window placement [x, x + w).
  [[nodiscard]] Time max_window(Time w) const {
    Time best = 0;
    for (Time x = 0; x < period; ++x) best = std::max(best, busy(x, x + w));
    return best;
  }
};

class BusyProfileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusyProfileProperty, BusyBetweenMatchesBruteForce) {
  const RandomProfile p = make_profile(GetParam());
  const BusyProfile profile(p.intervals, p.period);
  const BruteProfile brute(p, 8);
  Rng rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 20; ++trial) {
    const Time from = rng.uniform_int(0, 3 * p.period);
    const Time to = from + rng.uniform_int(0, 9 * p.period / 2);
    EXPECT_EQ(profile.busy_between(from, to), brute.busy(from, to))
        << "window [" << from << ", " << to << ") period " << p.period;
  }
}

TEST_P(BusyProfileProperty, MaxBusyWindowDominatesAllPlacements) {
  const RandomProfile p = make_profile(GetParam());
  const BusyProfile profile(p.intervals, p.period);
  const BruteProfile brute(p, 6);
  const Time max_w = 9 * p.period / 2;  // the FPS horizon is 4 periods
  Rng rng(GetParam() ^ 0x5678);
  std::vector<Time> windows;
  for (int trial = 0; trial < 8; ++trial) windows.push_back(rng.uniform_int(1, max_w));
  // Windows whose end, for a window starting at an interval start, falls
  // exactly on another interval's start or end or on a period multiple:
  // the cursor's boundary and wrap cases.
  const auto& ivs = profile.intervals();
  const auto pick = [&]() -> const Interval& {
    const auto last = static_cast<std::int64_t>(ivs.size()) - 1;
    return ivs[static_cast<std::size_t>(rng.uniform_int(0, last))];
  };
  for (int trial = 0; trial < 24 && !ivs.empty(); ++trial) {
    const Interval& from = pick();
    const Interval& to = pick();
    const Time periods = rng.uniform_int(0, 4) * p.period;
    for (const Time end : {to.start + periods, to.end + periods, periods + p.period}) {
      const Time w = end - from.start;
      if (w > 0 && w <= max_w) windows.push_back(w);
    }
  }
  for (const Time w : windows) {
    EXPECT_EQ(profile.max_busy_in_window(w), brute.max_window(w))
        << "w=" << w << " period " << p.period << " intervals " << ivs.size();
  }
}

TEST_P(BusyProfileProperty, EarliestGapIsIdleAndEarliest) {
  const RandomProfile p = make_profile(GetParam());
  const BusyProfile profile(p.intervals, p.period);
  const BruteProfile brute(p, 6);
  Rng rng(GetParam() ^ 0x9abc);
  for (int trial = 0; trial < 10; ++trial) {
    const Time from = rng.uniform_int(0, 2 * p.period);
    const Time len = rng.uniform_int(1, p.period);
    const Time found = profile.earliest_gap(from, len);
    if (found == kTimeInfinity) {
      // Then no window of this length may exist anywhere in two periods.
      for (Time x = from; x < from + 2 * p.period; ++x) {
        EXPECT_NE(brute.busy(x, x + len), 0)
            << "claimed impossible but [" << x << ", " << x + len << ") is idle";
      }
      continue;
    }
    EXPECT_GE(found, from);
    EXPECT_EQ(brute.busy(found, found + len), 0) << "found window not idle";
    // No earlier idle window of the same length.
    for (Time x = from; x < found; ++x) {
      EXPECT_NE(brute.busy(x, x + len), 0)
          << "earlier idle window at " << x << " missed (found " << found << ")";
    }
  }
}

/// S has slope 1 over a reported stretch: S(w + Δ) = S(w) + Δ (S is
/// non-decreasing and 1-Lipschitz, so the ends decide it).
void expect_true_stretch(const BusyProfile& profile, Time w, WindowBusy window) {
  EXPECT_EQ(profile.max_busy_in_window(w + window.stretch), window.busy + window.stretch)
      << "w=" << w << " stretch " << window.stretch;
}

TEST_P(BusyProfileProperty, BusiestWindowStretchIsTrue) {
  const RandomProfile p = make_profile(GetParam());
  const BusyProfile profile(p.intervals, p.period);
  if (profile.busy_per_period() == p.period) return;  // busy throughout: S(w) = w
  Rng rng(GetParam() ^ 0x7e7u);
  for (int trial = 0; trial < 40; ++trial) {
    const Time w = trial == 0 ? 0 : rng.uniform_int(1, 9 * p.period / 2);
    const WindowBusy window = profile.busiest_window(w);
    EXPECT_EQ(window.busy, profile.max_busy_in_window(w));
    expect_true_stretch(profile, w, window);
  }
}

TEST_P(BusyProfileProperty, CandidateViewMatchesTheMergedProfile) {
  const RandomProfile p = make_profile(GetParam());
  const BusyProfile base(p.intervals, p.period);
  Rng rng(GetParam() ^ 0xca9du);
  for (int kind = 0; kind < testing::kExtraKinds; ++kind) {
    const Interval extra = testing::random_extra(rng, base.intervals(), p.period,
                                                 static_cast<testing::ExtraKind>(kind));
    const ProfileWithExtra view(base, extra);
    const BusyProfile merged = testing::merged_profile(base.intervals(), extra, p.period);
    ASSERT_EQ(view.busy_per_period(), merged.busy_per_period()) << "kind " << kind;
    // Window lengths: 0, 1, random, at and past the period, and the base
    // fixed point R_b of a random FPS task (a candidate's first step).
    std::vector<Time> windows{0, 1, rng.uniform_int(1, p.period), p.period,
                              p.period + rng.uniform_int(0, 3 * p.period)};
    const FpsTaskParams task{TaskId{0}, rng.uniform_int(1, std::max<Time>(1, p.period / 4)),
                             p.period, 0, 0};
    const Time r_b = fps_response_time(task, {}, base, 4 * p.period);
    if (r_b != kTimeInfinity) windows.push_back(r_b);
    for (const Time w : windows) {
      const WindowBusy window = view.busiest_window(w);
      ASSERT_EQ(window.busy, merged.max_busy_in_window(w)) << "kind " << kind << " w=" << w;
      ASSERT_EQ(view.max_busy_given_base(w, base.max_busy_in_window(w)), window.busy)
          << "kind " << kind << " w=" << w;
      if (merged.busy_per_period() < p.period) expect_true_stretch(merged, w, window);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyProfileProperty, ::testing::Range<std::uint64_t>(1, 201));

}  // namespace
}  // namespace flexopt
