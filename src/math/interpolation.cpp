#include "flexopt/math/interpolation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace flexopt {

Expected<bool> NewtonPolynomial::add_point(double x, double y) {
  for (const double existing : xs_) {
    if (existing == x) return make_error("NewtonPolynomial: duplicate abscissa");
  }
  xs_.push_back(x);
  // Extend the divided-difference diagonal in place: before this call
  // diag_[i] = f[x_i..x_{n-1}] over the previous n points; appending y =
  // f[x_n] and updating bottom-up turns each entry into f[x_i..x_n], since
  // entry i + 1 is already new when entry i reads it.  O(n), and no
  // allocation once the vectors have capacity.
  diag_.push_back(y);
  for (std::size_t i = xs_.size() - 1; i-- > 0;) {
    diag_[i] = (diag_[i + 1] - diag_[i]) / (xs_.back() - xs_[i]);
  }
  coef_.push_back(diag_[0]);
  return true;
}

void NewtonPolynomial::clear() {
  xs_.clear();
  coef_.clear();
  diag_.clear();
}

double NewtonPolynomial::evaluate(double x) const {
  double acc = 0.0;
  for (std::size_t i = coef_.size(); i-- > 0;) {
    acc = acc * (x - xs_[i]) + coef_[i];
  }
  return acc;
}

Expected<PiecewiseLinear> PiecewiseLinear::fit(std::vector<double> xs, std::vector<double> ys) {
  if (xs.size() != ys.size()) return make_error("PiecewiseLinear: size mismatch");
  if (xs.empty()) return make_error("PiecewiseLinear: no samples");
  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  PiecewiseLinear out;
  out.xs_.reserve(xs.size());
  out.ys_.reserve(xs.size());
  for (const std::size_t i : order) {
    if (!out.xs_.empty() && out.xs_.back() == xs[i]) {
      return make_error("PiecewiseLinear: duplicate abscissa");
    }
    out.xs_.push_back(xs[i]);
    out.ys_.push_back(ys[i]);
  }
  return out;
}

double PiecewiseLinear::evaluate(double x) const {
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs_.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

Expected<bool> ResponseTimeCurve::add_point(double x, double y) {
  for (const double existing : xs_) {
    if (existing == x) return make_error("ResponseTimeCurve: duplicate abscissa");
  }
  if (xs_.size() < options_.max_newton_points) {
    auto r = newton_.add_point(x, y);
    if (!r.ok()) return r;
  }
  xs_.push_back(x);
  ys_.push_back(y);
  fallback_.reset();
  return true;
}

void ResponseTimeCurve::clear() {
  newton_.clear();
  xs_.clear();
  ys_.clear();
  fallback_.reset();
}

double ResponseTimeCurve::evaluate(double x) const {
  double v = 0.0;
  if (xs_.size() <= options_.max_newton_points && newton_.size() == xs_.size()) {
    v = newton_.evaluate(x);
    if (!std::isfinite(v)) v = options_.clamp_hi;
  } else {
    if (!fallback_.has_value()) {
      auto pl = PiecewiseLinear::fit(xs_, ys_);
      if (!pl.ok()) return options_.clamp_hi;
      fallback_.emplace(std::move(pl).value());
    }
    v = fallback_->evaluate(x);
  }
  return std::clamp(v, options_.clamp_lo, options_.clamp_hi);
}

}  // namespace flexopt
