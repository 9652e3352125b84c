#pragma once

/// \file busy_profile.hpp
/// Periodic CPU-busy profile induced by the static schedule table on one
/// node.  FPS tasks execute only in the slack of this profile (Section 2),
/// so their response-time analysis needs "the maximum SCS busy time inside
/// any window of length w" — `max_busy_in_window`, or `busiest_window`,
/// which also reports how long that maximum keeps growing at slope 1 (the
/// stretch the FPS fixed point skips across).
///
/// The list scheduler's ranking (Fig. 2, line 11) scores each candidate
/// placement on the base profile plus one interval.  ProfileWithExtra
/// answers the same window query for that union from the base profile and
/// the interval alone, without merging or rebuilding a profile.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "flexopt/util/time.hpp"

namespace flexopt {

/// Half-open busy interval [start, end).
struct Interval {
  Time start = 0;
  Time end = 0;
  [[nodiscard]] Time length() const { return end - start; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

/// The busiest window of length w in a profile: its busy time S(w), and a
/// stretch Δ >= 0 with S(w + δ) = S(w) + δ for every 0 <= δ <= Δ (the end of
/// a busiest window lies inside a busy interval that runs on for Δ more).
struct WindowBusy {
  Time busy = 0;
  Time stretch = 0;
};

/// Clamps `intervals` to [0, period], drops empty ones, sorts them by start
/// and merges overlapping or adjacent ones, in place within the vector's own
/// buffer: the list BusyProfile's normalizing constructor would hold, in the
/// shape BusyProfile::assign_normalized takes.
void clamp_and_normalize(std::vector<Interval>& intervals, Time period);

/// A set of busy intervals within [0, period), repeating forever with
/// `period`.  Value-semantic: construct once, or re-`assign_normalized`
/// into the same object to reuse its buffers in hot loops.
class BusyProfile {
 public:
  /// Empty profile with period 1; meaningful only as the target of a later
  /// assign_normalized (the list scheduler's per-candidate scratch).
  BusyProfile() = default;

  /// `intervals` may be unsorted/overlapping (they are normalized) but must
  /// lie within [0, period).  Intervals that spill past the period are
  /// clamped (the list scheduler never produces them for feasible systems;
  /// clamping keeps the profile sound for infeasible candidates too).
  BusyProfile(std::vector<Interval> intervals, Time period);

  /// Rebuilds this profile from intervals that are ALREADY clamped to
  /// [0, period], sorted by start, positive-length, and merged (no overlap
  /// or adjacency) — i.e. exactly the output shape of clamp_and_normalize.
  /// Produces the same profile as the normalizing constructor would for an
  /// equivalent interval set, reusing this object's buffers (no allocation
  /// once capacity is warm).
  void assign_normalized(std::span<const Interval> merged, Time period);

  /// Total busy time within one period.
  [[nodiscard]] Time busy_per_period() const { return total_busy_; }
  [[nodiscard]] Time period() const { return period_; }
  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }

  /// Busy time inside [from, to) for arbitrary 0 <= from <= to (window may
  /// span many periods).
  [[nodiscard]] Time busy_between(Time from, Time to) const;

  /// Maximum busy time over all windows [x, x+w), x >= 0.  This is the SCS
  /// interference term S(w) in the FPS response-time recurrence.  The
  /// maximum is attained with the window starting at some interval start
  /// (standard sliding-window argument), so only |intervals| candidates are
  /// evaluated.
  [[nodiscard]] Time max_busy_in_window(Time w) const { return busiest_window(w).busy; }

  /// max_busy_in_window(w) with its stretch: the busy time still left in
  /// the interval holding the end of the busiest window with the lowest
  /// start, 0 if that end is idle; and at w = 0, the longest interval.
  /// (An interval ending at the period may run on into the next period's
  /// first one; the stretch stops at the period, which is still a true
  /// one.  The stretch of one busiest window is one S(w) has, so ties are
  /// not searched for a longer one.)
  [[nodiscard]] WindowBusy busiest_window(Time w) const;

  /// Earliest instant t >= from such that [t, t + len) is completely idle
  /// within the periodic profile.  Returns kTimeInfinity if len exceeds the
  /// largest gap (then no such window ever exists).
  [[nodiscard]] Time earliest_gap(Time from, Time len) const;

 private:
  friend class ProfileWithExtra;

  /// Busy time in [0, t) for t in [0, period].
  [[nodiscard]] Time prefix(Time t) const;

  /// Rebuilds prefix_at_start_/total_busy_/largest_gap_ from intervals_.
  void rebuild_derived();

  std::vector<Interval> intervals_;
  std::vector<Time> prefix_at_start_;  // busy in [0, intervals_[i].start)
  Time period_ = 1;
  Time total_busy_ = 0;
  Time largest_gap_ = 0;
  Time longest_interval_ = 0;  ///< the stretch of S at w = 0
};

/// A BusyProfile plus one extra busy interval E, read as the profile that
/// merging them would build (`clamp_and_normalize` of the base intervals and
/// E clamped to [0, period]) without building it.  E may lie in a gap, touch
/// base intervals, overlap any number of them, or straddle the period's end.
///
/// Let K be the merged interval that contains E, E' = E minus the base, and
/// q = floor(w / H), r = w mod H for the period H.  A window that misses
/// every copy of E' keeps its base busy time, and adding E lowers no
/// window's busy time, so
///
///   S(w) = max(S_base(w) + q·|E'|,  q·(B_base + |E'|) + H_K(r)),
///
/// where H_K(r) is the busiest window of length r that meets K.  Windows
/// starting at the merged profile's interval starts dominate all others,
/// in busy time and in stretch (the sliding-window argument), so H_K takes
/// those that meet K: the one starting at K's start (busy throughout when
/// r <= |K|), and those starting at a base interval start less than r
/// before it.  One containing K has the base's busy time plus |E'|; one
/// ending inside K is busy from K's start on.  H_K therefore reads only the
/// base intervals within r of K — a local query — while S_base(w) is the
/// base's own window scan.  Constructing the view is local too: it finds K
/// among the base intervals by binary search.  The view holds a reference
/// to `base`, which must outlive it.
class ProfileWithExtra {
 public:
  /// `base` alone (no extra interval): every query is the base's.
  ProfileWithExtra(const BusyProfile& base)  // NOLINT: implicit by design
      : base_(&base), busy_per_period_(base.busy_per_period()) {}

  /// `base` plus `extra`, clamped to [0, base.period()].
  ProfileWithExtra(const BusyProfile& base, Interval extra);

  [[nodiscard]] const BusyProfile& base() const { return *base_; }
  [[nodiscard]] Time period() const { return base_->period(); }
  /// Busy time per period of the merged profile: the base's plus |E'|.
  [[nodiscard]] Time busy_per_period() const { return busy_per_period_; }

  /// The merged profile's busiest_window(w): one base window scan plus the
  /// local query H_K.  Where the base term wins, the base window's stretch
  /// is a true one of the merged S too: as that window grows it keeps its
  /// q copies of E' and gains the base busy time.
  [[nodiscard]] WindowBusy busiest_window(Time w) const {
    if (extra_busy_ == 0) return base_->busiest_window(w);
    return combine(w, base_->busiest_window(w));
  }

  /// max_busy_in_window(w) of the merged profile for a w whose base value
  /// `base_busy` = base().max_busy_in_window(w) is already known: the local
  /// query only, no base scan.
  [[nodiscard]] Time max_busy_given_base(Time w, Time base_busy) const {
    if (extra_busy_ == 0) return base_busy;
    return combine(w, WindowBusy{base_busy, 0}).busy;
  }

 private:
  /// H_K(r) for 0 <= r < period, with the stretch of its busiest window,
  /// over the base intervals within r of K.
  [[nodiscard]] WindowBusy extra_window(Time r) const;
  /// Splits w into q·period + r and combines the base term with H_K(r):
  /// q periods add q·|E'| to every base window, and a window meeting K
  /// gains q·busy_per_period_ over H_K(r).
  [[nodiscard]] WindowBusy combine(Time w, WindowBusy base) const {
    const Time period = base_->period();
    Time q = 0;
    Time r = w;
    if (w >= period) {
      q = w / period;
      r = w - q * period;
    }
    base.busy += q * extra_busy_;
    WindowBusy extra = extra_window(r);
    extra.busy += q * busy_per_period_;
    if (extra.busy > base.busy) return extra;
    if (extra.busy == base.busy) base.stretch = std::max(base.stretch, extra.stretch);
    return base;
  }

  const BusyProfile* base_;
  Time busy_per_period_ = 0;
  Time extra_busy_ = 0;  ///< |E'|: 0 when E adds nothing to the base
  Time k_start_ = 0;     ///< K = [k_start_, k_end_)
  Time k_end_ = 0;
  std::ptrdiff_t first_absorbed_ = 0;  ///< base intervals inside K: [first, end)
  std::ptrdiff_t end_absorbed_ = 0;
};

}  // namespace flexopt
