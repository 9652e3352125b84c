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

Expected<bool> CurveFamily::insert(double x, std::span<const double> ys) {
  if (ys.size() != curves_) return make_error("CurveFamily: one value per curve expected");
  const auto at = std::lower_bound(xs_.begin(), xs_.end(), x);
  if (at != xs_.end() && *at == x) return make_error("CurveFamily: duplicate abscissa");
  const auto p = static_cast<std::ptrdiff_t>(at - xs_.begin());
  xs_.insert(at, x);
  ys_.insert(ys_.begin() + p * static_cast<std::ptrdiff_t>(curves_), ys.begin(), ys.end());
  if (!piecewise_linear()) fit_newton();
  return true;
}

void CurveFamily::clear() {
  xs_.clear();
  ys_.clear();
  coef_.clear();
}

void CurveFamily::evaluate(double x, std::span<double> values) const {
  const std::size_t n = xs_.size();
  const std::size_t m = curves_;
  auto clamp = [](double v) { return std::clamp(v, kClampLo, kClampHi); };
  if (!piecewise_linear()) {
    // NewtonPolynomial::evaluate's Horner loop, one step for every curve at
    // a time.
    std::fill_n(values.data(), m, 0.0);
    for (std::size_t k = n; k-- > 0;) {
      const double basis = x - xs_[k];
      const double* coef = coef_.data() + k * m;
      for (std::size_t i = 0; i < m; ++i) values[i] = values[i] * basis + coef[i];
    }
    for (std::size_t i = 0; i < m; ++i) {
      values[i] = std::isfinite(values[i]) ? clamp(values[i]) : kClampHi;
    }
    return;
  }
  // PiecewiseLinear::evaluate: constant extrapolation at either end.
  const double* end_row = nullptr;
  if (x <= xs_.front()) {
    end_row = ys_.data();
  } else if (x >= xs_.back()) {
    end_row = ys_.data() + (n - 1) * m;
  }
  if (end_row != nullptr) {
    for (std::size_t i = 0; i < m; ++i) values[i] = clamp(end_row[i]);
    return;
  }
  const std::size_t hi = static_cast<std::size_t>(
      std::upper_bound(xs_.begin(), xs_.end(), x) - xs_.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  const double* lo_row = ys_.data() + lo * m;
  const double* hi_row = ys_.data() + hi * m;
  for (std::size_t i = 0; i < m; ++i) values[i] = clamp(lo_row[i] + t * (hi_row[i] - lo_row[i]));
}

void CurveFamily::fit_newton() {
  const std::size_t n = xs_.size();
  const std::size_t m = curves_;
  coef_.resize(n * m);
  diag_.resize(n * m);
  // Row k of diag_ plays NewtonPolynomial::diag_[k] for every curve: adding
  // sample p appends its values as row p and updates rows p-1..0 bottom-up,
  // after which row 0 holds f[x_0..x_p], the next coefficient.
  for (std::size_t p = 0; p < n; ++p) {
    std::copy_n(ys_.data() + p * m, m, diag_.data() + p * m);
    for (std::size_t k = p; k-- > 0;) {
      const double span = xs_[p] - xs_[k];
      double* row = diag_.data() + k * m;
      const double* next = row + m;
      for (std::size_t i = 0; i < m; ++i) row[i] = (next[i] - row[i]) / span;
    }
    std::copy_n(diag_.data(), m, coef_.data() + p * m);
  }
}

}  // namespace flexopt
