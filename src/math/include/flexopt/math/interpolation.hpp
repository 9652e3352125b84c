#pragma once

/// \file interpolation.hpp
/// Curve fitting used by the OBC-CF heuristic (Fig. 8 of the paper).
///
/// The paper fits a Newton polynomial through the worst-case response times
/// sampled at a few DYN-segment lengths and evaluates it everywhere else.
/// Newton's divided-difference form is chosen because adding one sample
/// point extends the fit in O(n) without refitting (footnote 1 of the
/// paper).  High-degree polynomial interpolation oscillates (Runge), so the
/// fitter the search uses, `CurveFamily`, degrades to piecewise-linear
/// above a degree cap and clamps evaluations to a fixed range.  It fits
/// every activity's curve over the DYN lengths they were all analysed at,
/// so one evaluation shares the per-abscissa work across the curves.
/// `NewtonPolynomial` and `PiecewiseLinear` are the single-curve forms the
/// family reproduces bit for bit; the tests use them as its reference.

#include <cstddef>
#include <span>
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
/// extrapolation at the ends: CurveFamily's form above its Newton cap.
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

/// Interpolants of several curves sampled at one shared set of abscissae:
/// OBC-CF fits one curve per activity through its completion bounds at the
/// analysed DYN lengths.  Up to kMaxNewtonPoints samples, each curve is the
/// Newton polynomial through its samples added in ascending x order; above
/// that, it is the piecewise-linear interpolant.  Either way a curve's
/// value is bit-identical to NewtonPolynomial / PiecewiseLinear over the
/// same samples, clamped to [kClampLo, kClampHi], with a non-finite Newton
/// value mapped to kClampHi.
///
/// Samples are kept in ascending x order, one row of curve values per
/// abscissa.  Inserting one refits the Newton coefficients of every curve
/// (O(n^2) each, at most kMaxNewtonPoints^2 / 2 divisions); nothing
/// allocates once the buffers have capacity.
class CurveFamily {
 public:
  /// Samples up to which the curves are Newton polynomials.
  static constexpr std::size_t kMaxNewtonPoints = 8;
  /// Evaluations are clamped to [kClampLo, kClampHi].  The fitted values
  /// are microseconds and callers convert them to integral nanoseconds:
  /// kClampHi * 1e3 = 9.2e18 ns stays below 2^63, so every clamped value
  /// converts to a `Time` without overflow.
  static constexpr double kClampLo = 0.0;
  static constexpr double kClampHi = 9.2e15;

  explicit CurveFamily(std::size_t curves) : curves_(curves) {}

  /// Inserts the abscissa x with `ys[i]` the value of curve i there
  /// (`ys.size()` must equal `curves()`).  x must differ from every
  /// sample; returns an error otherwise.
  Expected<bool> insert(double x, std::span<const double> ys);

  /// Removes every sample, keeping the curve count and the buffers'
  /// capacity.
  void clear();

  /// Number of samples (abscissae).
  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  [[nodiscard]] std::size_t curves() const { return curves_; }
  [[nodiscard]] bool piecewise_linear() const { return size() > kMaxNewtonPoints; }
  /// The abscissae, ascending.
  [[nodiscard]] std::span<const double> xs() const { return xs_; }

  /// Writes the clamped value of every curve at x to `values` (one per
  /// curve).  The Newton basis differences x - x_k, or the linear segment
  /// holding x and its t, are computed once for all curves.  Requires at
  /// least one sample.
  void evaluate(double x, std::span<double> values) const;

 private:
  /// Recomputes coef_ from the samples, replaying NewtonPolynomial::add_point
  /// in ascending x order for every curve at once.
  void fit_newton();

  std::size_t curves_ = 0;
  std::vector<double> xs_;
  /// ys_[p * curves_ + i]: curve i at xs_[p].
  std::vector<double> ys_;
  /// coef_[k * curves_ + i]: the divided difference f_i[x_0..x_k] (Newton
  /// regime only).
  std::vector<double> coef_;
  /// fit_newton's divided-difference columns, laid out like ys_.
  std::vector<double> diag_;
};

}  // namespace flexopt
