#pragma once

/// \file fixed_point.hpp
/// Fixed-point iteration driver for response-time recurrences.
///
/// Both the FPS task analysis and the DYN message analysis (Eq. 3) have the
/// classic shape t_{k+1} = f(t_k), f monotone non-decreasing, starting from
/// t = 0, converging when f(t) == t or diverging past a deadline-derived
/// horizon (then the activity is unschedulable and the caller reports
/// +infinity).
///
/// The FPS recurrence can crawl: where f(t) − t is a constant d, each step
/// adds only d, which may be 1 ns.  Its body therefore reports, next to
/// f(t), a stretch Δ >= 0 over which f(t + δ) = f(t) + δ for every
/// 0 <= δ <= Δ.  Inside such a stretch the next steps of the iteration are
/// known before they run — from t they visit t + d, t + 2d, ... — so the
/// driver takes all of them at once.  `iterations` still counts every
/// logical step t <- f(t), skipped or evaluated, and the horizon exit and
/// the iteration cap fire at exactly the step where a step-by-step
/// iteration would fire them.  Skipping a stretch is therefore exact: the
/// result, `converged` and `iterations` equal the step-by-step iteration's
/// on every exit path; only `evaluations` shrinks.  A body that reports a
/// stretch shorter than the true one (0 always qualifies) just skips less.

#include <algorithm>
#include <cstdint>

#include "flexopt/util/time.hpp"

namespace flexopt {

struct FixedPointResult {
  /// Converged value, or kTimeInfinity when the horizon was exceeded.
  Time value = kTimeInfinity;
  bool converged = false;
  /// Logical steps t <- f(t) taken, on every exit path (convergence,
  /// horizon overrun, saturation wrap, iteration cap alike); a step skipped
  /// inside a stretch counts as taken.
  int iterations = 0;
  /// Evaluations of the body actually performed (<= iterations).
  int evaluations = 0;
};

/// One evaluation of a stretch-aware body: f(t), and a length Δ >= 0 such
/// that f(t + δ) = f(t) + δ for every 0 <= δ <= Δ.
struct StretchStep {
  Time value = 0;
  Time stretch = 0;
};

/// Iterate t <- f(t) from t = `seed` until convergence, t > horizon, or
/// `max_iterations` steps, where f(t) returns a StretchStep.  `f` must be
/// monotone non-decreasing for the result to be the least fixed point
/// (standard RTA argument).
///
/// When a step from t yields f(t) = t + d with d > 0 and stretch Δ >= d,
/// the next floor(Δ / d) steps are known: the one from t + (i − 1)·d
/// yields t + (i + 1)·d.  They are taken without evaluating f, each counted
/// in `iterations`, and stop early exactly where the step-by-step iteration
/// would: at the first step whose value passes the horizon, or at the step
/// that reaches `max_iterations`.
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
/// candidate ranking.  Only `iterations` and `evaluations` differ between
/// seeded and unseeded runs.
template <typename F>
FixedPointResult iterate_over_stretches(F&& f, Time horizon, int max_iterations, Time seed = 0) {
  FixedPointResult result;
  Time t = seed;
  for (;;) {
    ++result.iterations;
    ++result.evaluations;
    const StretchStep step = f(t);
    if (step.value == t) {
      result.value = t;
      result.converged = true;
      return result;
    }
    if (step.value > horizon || step.value < t) {
      // Past the horizon (or f not monotone due to saturation): report
      // divergence; response time treated as unbounded.
      return result;
    }
    const Time d = step.value - t;
    t = step.value;
    if (result.iterations >= max_iterations) return result;
    if (step.stretch < d) continue;
    // The next `known` steps, from t, t + d, ..., all start inside the
    // stretch, so step i yields t + i·d (and known·d <= stretch).
    const Time known = step.stretch / d;
    const int left = max_iterations - result.iterations;  // step `left` reaches the cap
    if (known < left && known * d <= horizon - t) {
      result.iterations += static_cast<int>(known);
      t += known * d;
      continue;
    }
    // A known step stops the iteration: step `room` + 1 is the first to
    // pass the horizon, unless the cap comes first.
    const Time room = (horizon - t) / d;
    result.iterations += static_cast<int>(std::min<Time>(room, left - 1) + 1);
    return result;
  }
}

/// iterate_over_stretches for a body f(t) -> Time that reports no stretch:
/// every step is evaluated.
template <typename F>
FixedPointResult iterate_to_fixed_point(F&& f, Time horizon, int max_iterations = 10'000,
                                        Time seed = 0) {
  return iterate_over_stretches([&f](Time t) { return StretchStep{f(t), 0}; }, horizon,
                                max_iterations, seed);
}

}  // namespace flexopt
