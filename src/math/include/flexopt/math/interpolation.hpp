#pragma once

/// \file interpolation.hpp
/// Curve fitting used by the OBC-CF heuristic (Fig. 8 of the paper).
///
/// The paper fits a Newton polynomial through the worst-case response times
/// sampled at a few DYN-segment lengths and evaluates it everywhere else.
/// Newton's divided-difference form is chosen because adding one sample
/// point extends the fit in O(n) without refitting (footnote 1 of the
/// paper).  High-degree polynomial interpolation oscillates (Runge), so the
/// implementation degrades to piecewise-linear above a degree cap and clamps
/// evaluations to a caller-provided range.

#include <cstddef>
#include <optional>
#include <vector>

#include "flexopt/util/expected.hpp"

namespace flexopt {

/// Newton divided-difference interpolating polynomial over distinct x values.
///
/// Incremental: `add_point` appends one (x, y) sample and extends the
/// divided-difference table in O(n), in place (no allocation once warm).
class NewtonPolynomial {
 public:
  NewtonPolynomial() = default;

  /// Append a sample.  x must differ from all previously added xs
  /// (duplicate x would divide by zero); returns an error in that case.
  Expected<bool> add_point(double x, double y);

  /// Number of samples.
  [[nodiscard]] std::size_t size() const { return xs_.size(); }

  /// Removes every sample, keeping the buffers' capacity.
  void clear();

  /// Evaluate the interpolant at x (Horner on the Newton form).
  /// Requires at least one point.
  [[nodiscard]] double evaluate(double x) const;

 private:
  std::vector<double> xs_;
  /// coef_[i] is the leading divided difference f[x0..xi].
  std::vector<double> coef_;
  /// Last column of the divided-difference table, kept so the next
  /// add_point runs in O(n).
  std::vector<double> diag_;
};

/// Piecewise-linear interpolation over sorted samples with constant
/// extrapolation at the ends.  Used as the robust fallback when the Newton
/// fit would have excessive degree.
class PiecewiseLinear {
 public:
  /// Build from unsorted samples; xs must be distinct.
  static Expected<PiecewiseLinear> fit(std::vector<double> xs, std::vector<double> ys);

  [[nodiscard]] double evaluate(double x) const;
  [[nodiscard]] std::size_t size() const { return xs_.size(); }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// The fitter the OBC-CF search actually uses: Newton up to `max_degree`
/// samples, piecewise-linear beyond, with evaluations clamped to
/// [clamp_lo, clamp_hi].
class ResponseTimeCurve {
 public:
  struct Options {
    std::size_t max_newton_points = 8;
    double clamp_lo = 0.0;
    double clamp_hi = 1e18;
  };

  ResponseTimeCurve() : ResponseTimeCurve(Options{}) {}
  explicit ResponseTimeCurve(Options options) : options_(options) {}

  Expected<bool> add_point(double x, double y);
  [[nodiscard]] double evaluate(double x) const;
  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  /// Removes every sample, keeping the options and the buffers' capacity.
  void clear();

 private:
  Options options_;
  NewtonPolynomial newton_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  /// Cached piecewise-linear fallback, rebuilt lazily after add_point once
  /// the sample count exceeds the Newton degree cap (evaluate() is hot in
  /// the OBC-CF candidate scan).
  mutable std::optional<PiecewiseLinear> fallback_;
};

}  // namespace flexopt
