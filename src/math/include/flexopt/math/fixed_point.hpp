#pragma once

/// \file fixed_point.hpp
/// Fixed-point iteration driver for response-time recurrences.
///
/// Both the FPS task analysis and the DYN message analysis (Eq. 3) have the
/// classic shape t_{k+1} = f(t_k), f monotone non-decreasing, starting from
/// t = 0, converging when f(t) == t or diverging past a deadline-derived
/// horizon (then the activity is unschedulable and the caller reports
/// +infinity).

#include <cstdint>

#include "flexopt/util/time.hpp"

namespace flexopt {

struct FixedPointResult {
  /// Converged value, or kTimeInfinity when the horizon was exceeded.
  Time value = kTimeInfinity;
  bool converged = false;
  /// Number of evaluations of f performed, on every exit path (convergence,
  /// horizon overrun, saturation wrap, iteration cap alike).
  int iterations = 0;
};

/// Iterate t <- f(t) from t = `seed` (default 0) until convergence or
/// t > horizon.  `f` must be monotone non-decreasing for the result to be
/// the least fixed point (standard RTA argument).
///
/// `seed` accelerates convergence without changing the result: for any
/// seed with seed <= lfp(f) and seed <= f(seed), the iteration converges
/// to the same least fixed point as from 0, and escapes the horizon iff
/// the from-0 iteration does (f monotone makes the seeded iterates
/// dominate the unseeded ones pointwise) — provided the from-0 iteration
/// ends within `max_iterations`; where it hits the cap, the seeded one may
/// still converge.  The canonical safe seed is the
/// converged value of the same recurrence against a subset of the
/// interference — e.g. the base-profile response in the list scheduler's
/// candidate ranking.  Only `iterations` differs between seeded and
/// unseeded runs.
template <typename F>
FixedPointResult iterate_to_fixed_point(F&& f, Time horizon, int max_iterations = 10'000,
                                        Time seed = 0) {
  FixedPointResult result;
  Time t = seed;
  for (;;) {
    ++result.iterations;
    const Time next = f(t);
    if (next == t) {
      result.value = t;
      result.converged = true;
      return result;
    }
    if (next > horizon || next < t) {
      // Past the horizon (or f not monotone due to saturation): report
      // divergence; response time treated as unbounded.
      return result;
    }
    t = next;
    if (result.iterations >= max_iterations) return result;
  }
}

}  // namespace flexopt
