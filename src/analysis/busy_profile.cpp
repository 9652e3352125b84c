#include "flexopt/analysis/busy_profile.hpp"

#include <algorithm>
#include <cassert>

namespace flexopt {

void clamp_and_normalize(std::vector<Interval>& intervals, Time period) {
  for (Interval& iv : intervals) {
    iv.start = std::clamp<Time>(iv.start, 0, period);
    iv.end = std::clamp<Time>(iv.end, 0, period);
  }
  std::erase_if(intervals, [](const Interval& iv) { return iv.length() <= 0; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  // Merge in place: `kept` intervals form the merged prefix.
  std::size_t kept = 0;
  for (const Interval& iv : intervals) {
    if (kept > 0 && iv.start <= intervals[kept - 1].end) {
      intervals[kept - 1].end = std::max(intervals[kept - 1].end, iv.end);
    } else {
      intervals[kept++] = iv;
    }
  }
  intervals.resize(kept);
}

BusyProfile::BusyProfile(std::vector<Interval> intervals, Time period) : period_(period) {
  assert(period > 0);
  clamp_and_normalize(intervals, period);
  intervals_ = std::move(intervals);
  rebuild_derived();
}

void BusyProfile::assign_normalized(std::span<const Interval> merged, Time period) {
  assert(period > 0);
#ifndef NDEBUG
  for (std::size_t i = 0; i < merged.size(); ++i) {
    assert(merged[i].start >= 0 && merged[i].end <= period && merged[i].length() > 0);
    // Strictly separated: clamp_and_normalize merges adjacency too.
    assert(i == 0 || merged[i].start > merged[i - 1].end);
  }
#endif
  period_ = period;
  intervals_.assign(merged.begin(), merged.end());
  rebuild_derived();
}

void BusyProfile::rebuild_derived() {
  prefix_at_start_.clear();
  prefix_at_start_.reserve(intervals_.size());
  Time acc = 0;
  for (const Interval& iv : intervals_) {
    prefix_at_start_.push_back(acc);
    acc += iv.length();
  }
  total_busy_ = acc;

  // Largest idle gap, accounting for the wrap from the last interval to the
  // first interval of the next period.
  if (intervals_.empty()) {
    largest_gap_ = period_;
  } else {
    largest_gap_ = 0;
    for (std::size_t i = 0; i + 1 < intervals_.size(); ++i) {
      largest_gap_ = std::max(largest_gap_, intervals_[i + 1].start - intervals_[i].end);
    }
    largest_gap_ = std::max(largest_gap_,
                            period_ - intervals_.back().end + intervals_.front().start);
  }
  longest_interval_ = 0;
  for (const Interval& iv : intervals_) {
    longest_interval_ = std::max(longest_interval_, iv.length());
  }
}

Time BusyProfile::prefix(Time t) const {
  assert(t >= 0 && t <= period_);
  // Find last interval starting before t.
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](Time value, const Interval& iv) { return value < iv.start; });
  if (it == intervals_.begin()) return 0;
  const std::size_t i = static_cast<std::size_t>(it - intervals_.begin()) - 1;
  return prefix_at_start_[i] + std::min(t, intervals_[i].end) - intervals_[i].start;
}

Time BusyProfile::busy_between(Time from, Time to) const {
  assert(from >= 0 && to >= from);
  const std::int64_t from_period = from / period_;
  const std::int64_t to_period = to / period_;
  const Time from_local = from % period_;
  const Time to_local = to % period_;
  if (from_period == to_period) return prefix(to_local) - prefix(from_local);
  const std::int64_t full_periods = to_period - from_period - 1;
  return (total_busy_ - prefix(from_local)) + full_periods * total_busy_ + prefix(to_local);
}

WindowBusy BusyProfile::busiest_window(Time w) const {
  if (w <= 0 || intervals_.empty()) return {0, longest_interval_};
  // Window i is [start_i, start_i + w): its busy time is U(start_i + w) -
  // prefix_at_start_[i], with U(t) the busy time of the unrolled profile in
  // [0, t).  Window ends grow with i and span less than one period, so one
  // forward cursor over the unrolled interval sequence finds every end —
  // one division for the first window, then O(n) cursor steps in total (at
  // most one period wrap).  This is the innermost loop of the FPS fixed
  // point.
  const std::size_t n = intervals_.size();
  const Time first_end = intervals_.front().start + w;
  Time base = first_end / period_ * period_;  // start of the cursor's period
  Time base_busy = first_end / period_ * total_busy_;
  std::size_t next = 0;  // intervals of the cursor's period starting at or before the end
  Time best = 0;
  // The first busiest window's end, in its period, and its cursor: its
  // busy run gives the stretch (ties are not searched further).
  Time best_local = 0;
  std::size_t best_next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Time local = intervals_[i].start + w - base;
    if (local >= period_) {
      base += period_;
      base_busy += total_busy_;
      local -= period_;
      next = 0;
    }
    while (next < n && intervals_[next].start <= local) ++next;
    Time busy = base_busy - prefix_at_start_[i];
    if (next > 0) {
      const Interval& last = intervals_[next - 1];
      busy += prefix_at_start_[next - 1] + std::min(local, last.end) - last.start;
    }
    const bool above = busy > best;
    best_local = above ? local : best_local;
    best_next = above ? next : best_next;
    best = std::max(best, busy);
  }
  Time left = 0;
  if (best_next > 0) {
    left = std::max<Time>(0, intervals_[best_next - 1].end - best_local);
  }
  return {best, left};
}

ProfileWithExtra::ProfileWithExtra(const BusyProfile& base, Interval extra)
    : base_(&base), busy_per_period_(base.busy_per_period()) {
  const Time period = base.period();
  const Time e_start = std::clamp<Time>(extra.start, 0, period);
  const Time e_end = std::clamp<Time>(extra.end, 0, period);
  if (e_end <= e_start) return;
  // The base intervals that overlap or touch E merge with it into K (base
  // intervals never touch each other, so no others join).  Ends ascend
  // with starts.
  const std::vector<Interval>& ivs = base.intervals_;
  const auto first = std::partition_point(
      ivs.begin(), ivs.end(), [e_start](const Interval& iv) { return iv.end < e_start; });
  auto last = first;
  while (last != ivs.end() && last->start <= e_end) ++last;
  first_absorbed_ = first - ivs.begin();
  end_absorbed_ = last - ivs.begin();
  k_start_ = first == last ? e_start : std::min(e_start, first->start);
  k_end_ = first == last ? e_end : std::max(e_end, (last - 1)->end);
  const auto prefix_at = [&](std::ptrdiff_t i) {
    return i < static_cast<std::ptrdiff_t>(ivs.size()) ? base.prefix_at_start_[i]
                                                       : base.total_busy_;
  };
  extra_busy_ = (k_end_ - k_start_) - (prefix_at(end_absorbed_) - prefix_at(first_absorbed_));
  busy_per_period_ += extra_busy_;
}

WindowBusy ProfileWithExtra::extra_window(Time r) const {
  const Time k_len = k_end_ - k_start_;
  if (r <= k_len) return {r, k_len - r};  // inside K: busy throughout
  const BusyProfile& b = *base_;
  const auto n = static_cast<std::ptrdiff_t>(b.intervals_.size());
  // Without base intervals K is alone in its period, and r < period.
  if (n == 0) return {k_len, 0};
  // Base interval u of the unrolled sequence (u may be negative or >= n),
  // with U(start), where U(t) is the base's busy time in [0, t).  The
  // windows below reach at most one period either side of K.
  struct Unrolled {
    Time start;
    Time end;
    Time busy_before;
  };
  const Time period = b.period_;
  const auto at = [&](std::ptrdiff_t u) {
    Time shift = 0;
    Time busy_shift = 0;
    for (; u < 0; u += n) shift -= period, busy_shift -= b.total_busy_;
    for (; u >= n; u -= n) shift += period, busy_shift += b.total_busy_;
    const Interval& iv = b.intervals_[static_cast<std::size_t>(u)];
    return Unrolled{iv.start + shift, iv.end + shift,
                    b.prefix_at_start_[static_cast<std::size_t>(u)] + busy_shift};
  };
  // The merged profile's windows of length r that meet K and start at one
  // of its interval starts: at K's start, or at a base interval start less
  // than r before it.  Visited by descending start, their ends descend
  // too, so one cursor tracks the base interval at each end past K.
  const Time busy_to_k = at(first_absorbed_).busy_before;  // U(K's start)
  const Time first_end = k_start_ + r;
  std::ptrdiff_t v = end_absorbed_ - 1;  // starts at or before K's end
  while (at(v + 1).start <= first_end) ++v;
  Unrolled cell = at(v);
  WindowBusy best;
  const auto visit = [&](Time start_busy, Time end) {
    Time busy;
    Time left;
    if (end < k_end_) {  // ends inside K, busy from K's start on
      busy = busy_to_k - start_busy + (end - k_start_);
      left = k_end_ - end;
    } else {  // contains K
      while (cell.start > end) cell = at(--v);
      busy = cell.busy_before + std::min(end, cell.end) - cell.start - start_busy + extra_busy_;
      left = std::max<Time>(0, cell.end - end);
    }
    if (busy > best.busy) {
      best = WindowBusy{busy, left};
    } else if (busy == best.busy) {
      best.stretch = std::max(best.stretch, left);
    }
  };
  visit(busy_to_k, first_end);
  const Time lowest = k_start_ - r;  // windows starting after this meet K
  for (std::ptrdiff_t u = first_absorbed_ - 1;; --u) {
    const Unrolled start = at(u);
    if (start.start <= lowest) break;
    visit(start.busy_before, start.start + r);
  }
  return best;
}

Time BusyProfile::earliest_gap(Time from, Time len) const {
  assert(from >= 0 && len >= 0);
  if (len == 0) return from;
  if (len > largest_gap_) return kTimeInfinity;
  if (intervals_.empty()) return from;

  Time t = from;
  // At most two periods of scanning are needed: a gap of length <= largest
  // gap exists in every period, so the first fit lies within [from, from +
  // 2 * period].
  const Time limit = from + 2 * period_ + len;
  while (t <= limit) {
    const Time local = t % period_;
    const std::int64_t base = (t / period_) * period_;
    // First interval that ends after `local`: the interval that could block
    // a window starting at `local`.
    const auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), local,
        [](Time value, const Interval& iv) { return value < iv.end; });
    if (it == intervals_.end()) {
      // Idle until the end of this period; the window may spill into the
      // next period only if the next period starts idle long enough.
      const Time tail = period_ - local;
      if (tail >= len) return t;
      const Time head_needed = len - tail;
      const Time next_start = intervals_.front().start;
      if (next_start >= head_needed) return t;
      t = base + period_;  // retry at next period boundary
      continue;
    }
    if (local + len <= it->start) return t;  // fits before the blocking interval
    if (local < it->end && local >= it->start) {
      t = base + it->end;  // inside a busy interval: jump to its end
    } else {
      t = base + it->end;  // gap too small: jump past the blocking interval
    }
  }
  return kTimeInfinity;
}

}  // namespace flexopt
