#include "flexopt/analysis/fps_analysis.hpp"

#include <algorithm>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/math/fixed_point.hpp"

namespace flexopt {

Time fps_response_time(const FpsTaskParams& task, std::span<const FpsTaskParams> same_node,
                       const BusyProfile& scs, Time horizon, int* fp_iterations, Time seed) {
  if (is_infinite(task.jitter)) return kTimeInfinity;
  // Level-i load including the SCS share: if it exceeds 1, the level-i busy
  // period never ends and the least fixed point below (which only bounds
  // the *first* job) is not a sound WCRT — report unbounded instead.
  double load = static_cast<double>(task.wcet) / static_cast<double>(task.period) +
                static_cast<double>(scs.busy_per_period()) / static_cast<double>(scs.period());
  for (const FpsTaskParams& j : same_node) {
    if (j.id == task.id || j.priority > task.priority) continue;
    if (is_infinite(j.jitter)) {
      // An interfering task with unbounded jitter makes the bound unbounded.
      return kTimeInfinity;
    }
    load += static_cast<double>(j.wcet) / static_cast<double>(j.period);
  }
  if (load > 1.0 + 1e-12) return kTimeInfinity;

  const auto body = [&](Time w) -> Time {
    Time total = task.wcet;
    total = sat_add(total, scs.max_busy_in_window(w));
    for (const FpsTaskParams& j : same_node) {
      if (j.id == task.id || j.priority > task.priority) continue;
      const std::int64_t releases = ceil_div(w + j.jitter, j.period);
      total = sat_add(total, sat_mul(j.wcet, releases));
    }
    return total;
  };

  const FixedPointResult fp = iterate_to_fixed_point(body, horizon, kFpsMaxIterations, seed);
  if (fp_iterations != nullptr) *fp_iterations += fp.iterations;
  if (!fp.converged) return kTimeInfinity;
  return sat_add(task.jitter, fp.value);
}

Time fps_response_time_sum(std::span<const FpsTaskParams> same_node, const BusyProfile& scs,
                           Time horizon, std::span<const Time> seeds, Time cutoff,
                           std::span<Time> responses, int* fp_iterations) {
  // Lower bound of task i's summand: the candidate profile only adds
  // interference, so its response is at least jitter + seed, or the
  // horizon it is charged when unbounded.
  const auto floor_of = [&](std::size_t i) -> Time {
    if (seeds.empty()) return 0;
    if (is_infinite(seeds[i])) return horizon;
    return std::min(horizon, sat_add(same_node[i].jitter, seeds[i]));
  };
  Time remaining = 0;  // summed floors of the tasks not yet analysed
  for (std::size_t i = 0; i < same_node.size(); ++i) remaining = sat_add(remaining, floor_of(i));
  Time sum = 0;
  for (std::size_t i = 0; i < same_node.size(); ++i) {
    const Time bound = sat_add(sum, remaining);
    if (bound >= cutoff) return bound;
    remaining -= floor_of(i);
    Time r;
    if (!seeds.empty() && is_infinite(seeds[i])) {
      // The seed diverged against a *subset* of this profile's
      // interference, so this task's recurrence diverges here too.
      r = kTimeInfinity;
    } else {
      r = fps_response_time(same_node[i], same_node, scs, horizon, fp_iterations,
                            seeds.empty() ? 0 : seeds[i]);
    }
    if (!responses.empty()) responses[i] = r;
    sum = sat_add(sum, is_infinite(r) ? horizon : r);
  }
  return sum;
}

}  // namespace flexopt
