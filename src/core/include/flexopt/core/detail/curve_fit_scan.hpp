#pragma once

/// \file curve_fit_scan.hpp
/// The interpolated candidate scan of CurveFitDynSearch (Fig. 8 lines 6-11
/// and 18-19): one CurveFamily of every activity's completion bound over
/// the analysed DYN lengths, and the Eq. 5 cost that family interpolates at
/// every un-analysed grid candidate.  Internal to src/core; a header of its
/// own so its oracle test can drive it directly.
///
/// Activities whose bound is equal at every point are not short-circuited:
/// a fit through equal values evaluates to exactly that value in both
/// regimes, and on the fig9 population 61.0 of 64.8 activities vary per
/// refresh, so a separate constant path would save little.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "flexopt/math/interpolation.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt::detail {

/// std::llround(v) for 0 <= v < 2^63, inlined.  Truncation is exact on that
/// range; below 2^52 so is the fraction v - trunc(v), and from 2^52 up
/// every double is an integer, so the fraction is 0.
inline std::int64_t round_nonnegative(double v) {
  const auto truncated = static_cast<std::int64_t>(v);
  return v - static_cast<double>(truncated) >= 0.5 ? truncated + 1 : truncated;
}

/// One scan per search.  interpolated_cost() writes a member buffer, so
/// not even const calls may run concurrently on one scan.
class CurveFitScan {
 public:
  /// `grid`: the candidate DYN lengths (minislots), ascending.
  /// `deadlines`: the effective deadline of every activity, tasks then
  /// messages — the order of CostAccumulator::add, and of the completion
  /// bounds given to add_point.
  CurveFitScan(std::vector<int> grid, std::vector<Time> deadlines)
      : grid_(std::move(grid)),
        deadlines_(std::move(deadlines)),
        family_(deadlines_.size()),
        values_us_(deadlines_.size()),
        grid_cost_(grid_.size(), 0.0),
        analysed_(grid_.size(), 0) {}

  /// Records a fully analysed DYN length with one completion bound per
  /// activity, in microseconds.  x must not have been added before.
  void add_point(int x, std::span<const double> completions_us) {
    (void)family_.insert(static_cast<double>(x), completions_us);
    const auto at = std::lower_bound(grid_.begin(), grid_.end(), x);
    if (at != grid_.end() && *at == x) analysed_[static_cast<std::size_t>(at - grid_.begin())] = 1;
    last_added_ = x;
  }

  /// Removes every point, keeping the grid, the deadlines and the buffers'
  /// capacity.
  void clear() {
    family_.clear();
    std::fill(analysed_.begin(), analysed_.end(), 0);
    refreshed_size_ = 0;
  }

  /// Brings grid_cost() up to date with the points added since the last
  /// refresh.  Requires at least one point.
  ///
  /// In the piecewise-linear regime a single new point only changes the
  /// candidates strictly between its neighbours: every other candidate
  /// keeps its segment, and an activity the new point makes vary for the
  /// first time interpolates between two equal values elsewhere.  A
  /// refresh that added one point there recomputes only those candidates.
  void refresh() {
    const std::size_t n = family_.size();
    if (n == refreshed_size_) return;
    std::size_t first = 0;
    std::size_t last = grid_.size();
    if (n == refreshed_size_ + 1 && refreshed_size_ > CurveFamily::kMaxNewtonPoints) {
      const std::span<const double> xs = family_.xs();
      const auto j = static_cast<std::size_t>(
          std::lower_bound(xs.begin(), xs.end(), static_cast<double>(last_added_)) - xs.begin());
      if (j > 0) {
        first = static_cast<std::size_t>(
            std::upper_bound(grid_.begin(), grid_.end(), xs[j - 1]) - grid_.begin());
      }
      if (j + 1 < n) {
        last = static_cast<std::size_t>(
            std::lower_bound(grid_.begin(), grid_.end(), xs[j + 1]) - grid_.begin());
      }
    }
    for (std::size_t c = first; c < last; ++c) {
      if (analysed_[c] == 0) grid_cost_[c] = interpolated_cost(static_cast<double>(grid_[c]));
    }
    refreshed_size_ = n;
  }

  /// The Eq. 5 cost (Cost::value) of the interpolated completion bounds at
  /// x: each bound is rounded to nanoseconds as std::llround does, and the
  /// slack sums run in CostAccumulator::add's order.  Clamping keeps every
  /// bound finite, so no activity counts as unbounded.
  [[nodiscard]] double interpolated_cost(double x) const {
    family_.evaluate(x, values_us_);
    double overshoot_us = 0.0;
    double laxity_us = 0.0;
    for (std::size_t i = 0; i < deadlines_.size(); ++i) {
      const Time slack = round_nonnegative(values_us_[i] * 1e3) - deadlines_[i];
      if (slack > 0) overshoot_us += to_us(slack);
      laxity_us += to_us(slack);
    }
    return overshoot_us > 0.0 ? overshoot_us : laxity_us;
  }

  [[nodiscard]] const std::vector<int>& grid() const { return grid_; }
  /// True when grid candidate c is an analysed point.
  [[nodiscard]] bool analysed(std::size_t c) const { return analysed_[c] != 0; }
  /// Interpolated cost of grid candidate c as of the last refresh; only
  /// meaningful for candidates that are not analysed points.
  [[nodiscard]] double grid_cost(std::size_t c) const { return grid_cost_[c]; }
  [[nodiscard]] const CurveFamily& family() const { return family_; }

 private:
  std::vector<int> grid_;
  std::vector<Time> deadlines_;
  CurveFamily family_;
  /// interpolated_cost's buffer for the family's values.
  mutable std::vector<double> values_us_;
  std::vector<double> grid_cost_;
  std::vector<char> analysed_;
  /// family_.size() at the last refresh.
  std::size_t refreshed_size_ = 0;
  /// The most recently added point.
  int last_added_ = 0;
};

}  // namespace flexopt::detail
