#pragma once

/// \file busy_profile.hpp
/// Periodic CPU-busy profile induced by the static schedule table on one
/// node.  FPS tasks execute only in the slack of this profile (Section 2),
/// so their response-time analysis needs "the maximum SCS busy time inside
/// any window of length w" — `max_busy_in_window`.

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
  [[nodiscard]] Time max_busy_in_window(Time w) const;

  /// Earliest instant t >= from such that [t, t + len) is completely idle
  /// within the periodic profile.  Returns kTimeInfinity if len exceeds the
  /// largest gap (then no such window ever exists).
  [[nodiscard]] Time earliest_gap(Time from, Time len) const;

 private:
  /// Busy time in [0, t) for t in [0, period].
  [[nodiscard]] Time prefix(Time t) const;

  /// Rebuilds prefix_at_start_/total_busy_/largest_gap_ from intervals_.
  void rebuild_derived();

  std::vector<Interval> intervals_;
  std::vector<Time> prefix_at_start_;  // busy in [0, intervals_[i].start)
  Time period_ = 1;
  Time total_busy_ = 0;
  Time largest_gap_ = 0;
};

}  // namespace flexopt
