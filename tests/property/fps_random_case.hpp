#pragma once

// Shared by the FPS property tests: random node groups with random busy
// profiles, and a plain step-by-step FPS iteration to check the analysis
// against.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/busy_profile.hpp"
#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt::testing {

/// One node's FPS group (1-8 tasks, equal or distinct priorities, zero,
/// non-zero and unbounded jitters, in shuffled order) and a random busy
/// profile whose windows wrap the period, with a random subset of it.
struct RandomCase {
  std::vector<FpsTaskParams> group;
  Time period = 0;               ///< the profiles' period (hyper-period)
  std::vector<Interval> subset;  ///< base profile: a subset of `intervals`
  std::vector<Interval> intervals;
  Time horizon = 0;
};

inline RandomCase make_case(std::uint64_t seed) {
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

/// Kinds of extra interval a ranking candidate adds to a base profile.
enum class ExtraKind {
  InAGap,
  Adjacent,
  OverlapsOne,
  OverlapsSeveral,
  StraddlesThePeriod,
  AfterThePeriod,
  Anywhere,
};
inline constexpr int kExtraKinds = 7;

/// A random extra interval of `kind` against `base` (merged, within
/// [0, period]); falls back to Anywhere when the base has no room for it.
inline Interval random_extra(Rng& rng, const std::vector<Interval>& base, Time period,
                             ExtraKind kind) {
  const auto n = static_cast<std::int64_t>(base.size());
  const auto pick = [&]() -> const Interval& {
    return base[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
  };
  const Time longest = std::max<Time>(1, period / 4);
  switch (kind) {
    case ExtraKind::InAGap:
      for (std::int64_t i = 0; i + 1 < n; ++i) {
        const Time gap_start = base[static_cast<std::size_t>(i)].end;
        const Time gap_end = base[static_cast<std::size_t>(i + 1)].start;
        if (gap_end - gap_start < 3) continue;
        const Time start = rng.uniform_int(gap_start + 1, gap_end - 2);
        return {start, rng.uniform_int(start + 1, gap_end - 1)};
      }
      break;
    case ExtraKind::Adjacent:
      if (n > 0) {
        const Interval& iv = pick();
        const Time length = rng.uniform_int(1, longest);
        if (rng.uniform_int(0, 1) == 0) return {iv.end, iv.end + length};
        return {iv.start - length, iv.start};
      }
      break;
    case ExtraKind::OverlapsOne:
      if (n > 0) {
        const Interval& iv = pick();
        const Time start = rng.uniform_int(iv.start, iv.end - 1);
        return {start, start + rng.uniform_int(1, longest)};
      }
      break;
    case ExtraKind::OverlapsSeveral:
      if (n > 1) {
        const std::int64_t i = rng.uniform_int(0, n - 2);
        const std::int64_t j = rng.uniform_int(i + 1, n - 1);
        const Interval& first = base[static_cast<std::size_t>(i)];
        const Interval& last = base[static_cast<std::size_t>(j)];
        return {rng.uniform_int(first.start - 2, first.end - 1),
                rng.uniform_int(last.start + 1, last.end + 2)};
      }
      break;
    case ExtraKind::StraddlesThePeriod: {
      const Time start = period - rng.uniform_int(1, longest);
      return {start, period + rng.uniform_int(1, longest)};
    }
    case ExtraKind::AfterThePeriod: {
      const Time start = period + rng.uniform_int(0, longest);
      return {start, start + rng.uniform_int(1, longest)};
    }
    case ExtraKind::Anywhere:
      break;
  }
  const Time start = rng.uniform_int(-2, period + 2);
  return {start, start + rng.uniform_int(1, longest)};
}

/// The profile the list scheduler used to build for a candidate: the base
/// intervals plus `extra`, clamped, sorted and merged, then assigned.
inline BusyProfile merged_profile(const std::vector<Interval>& base, Interval extra,
                                  Time period) {
  std::vector<Interval> all = base;
  all.push_back(extra);
  clamp_and_normalize(all, period);
  BusyProfile merged;
  merged.assign_normalized(all, period);
  return merged;
}

/// True when `j` interferes with `task` (fps_response_time's rule).
inline bool interferes(const FpsTaskParams& j, const FpsTaskParams& task) {
  return j.id != task.id && j.priority <= task.priority;
}

/// The FPS body f(w) = C + S(w) + sum ceil((w + J) / T) * C, with S read
/// from the profile's window scan.  The ceiling is taken as quotient plus
/// remainder test, which holds for w + J up to the largest Time.
inline Time plain_fps_body(const FpsTaskParams& task, std::span<const FpsTaskParams> group,
                           const BusyProfile& scs, Time w) {
  Time total = sat_add(task.wcet, scs.max_busy_in_window(w));
  for (const FpsTaskParams& j : group) {
    if (!interferes(j, task)) continue;
    const Time released_by = w + j.jitter;
    const Time releases = released_by / j.period + (released_by % j.period == 0 ? 0 : 1);
    total = sat_add(total, sat_mul(j.wcet, releases));
  }
  return total;
}

struct PlainResponse {
  Time response = kTimeInfinity;
  int iterations = 0;
};

/// fps_response_time's recurrence evaluated one step at a time from `seed`:
/// the same load test (the same doubles, added in the same order), the
/// same body and the same kFpsMaxIterations cap, with no stretch skipped.
inline PlainResponse plain_fps_response(const FpsTaskParams& task,
                                        std::span<const FpsTaskParams> group,
                                        const BusyProfile& scs, Time horizon, Time seed = 0) {
  if (is_infinite(task.jitter)) return {};
  double load = static_cast<double>(task.wcet) / static_cast<double>(task.period) +
                static_cast<double>(scs.busy_per_period()) / static_cast<double>(scs.period());
  bool unbounded_jitter = false;
  for (const FpsTaskParams& j : group) {
    if (!interferes(j, task)) continue;
    unbounded_jitter |= is_infinite(j.jitter);
    load += static_cast<double>(j.wcet) / static_cast<double>(j.period);
  }
  if (unbounded_jitter || load > 1.0 + 1e-12) return {};
  PlainResponse out;
  Time w = seed;
  for (;;) {
    ++out.iterations;
    const Time next = plain_fps_body(task, group, scs, w);
    if (next == w) {
      out.response = sat_add(task.jitter, w);
      return out;
    }
    if (next > horizon || next < w) return out;
    w = next;
    if (out.iterations >= kFpsMaxIterations) return out;
  }
}

}  // namespace flexopt::testing
