#include "flexopt/analysis/fps_analysis.hpp"

#include <algorithm>
#include <type_traits>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/math/fixed_point.hpp"

namespace flexopt {
namespace {

double load_of(const FpsTaskParams& j) {
  return static_cast<double>(j.wcet) / static_cast<double>(j.period);
}
double load_of(const FpsInterferenceTable::Interferer& j) { return j.load; }

/// The FPS recurrence (load test, body, iteration), the one definition
/// behind both views: `for_each_interferer(f)` calls f(j) for every
/// interferer j of the task in group order, where j is an FpsTaskParams
/// (span view) or a prepared table entry.  `scs` is a BusyProfile or a
/// ProfileWithExtra.
///
/// Each evaluation reports its stretch (see iterate_over_stretches): S(w)
/// keeps slope 1 for the window scan's stretch, and interferer j's release
/// count ceil((w + J_j) / T_j) stays put until w reaches its next multiple
/// minus J_j, so f(w + δ) = f(w) + δ up to the smaller of the two.
///
/// `seed_busy` (ProfileWithExtra only; kTimeNone when unknown) is
/// scs.base().max_busy_in_window(seed) for a seed that is a fixed point of
/// this recurrence against scs.base().  The first evaluation then needs no
/// base scan and no interferer loop: the interferer terms at the seed are
/// the base's, so f(seed) = seed + S(seed) − seed_busy.  `response_busy`
/// (optional) receives S at the fixed point when the recurrence converges.
template <typename ForEachInterferer, typename Profile>
Time fps_recurrence(Time wcet, Time jitter, double own_load,
                    const ForEachInterferer& for_each_interferer, const Profile& scs,
                    Time horizon, int* fp_iterations, Time seed,
                    [[maybe_unused]] Time seed_busy, Time* response_busy) {
  if (is_infinite(jitter)) return kTimeInfinity;
  // Level-i load including the SCS share: if it exceeds 1, the level-i busy
  // period never ends and the least fixed point below (which only bounds
  // the *first* job) is not a sound WCRT — report unbounded instead.  An
  // interfering task with unbounded jitter makes the bound unbounded.
  double load = own_load +
                static_cast<double>(scs.busy_per_period()) / static_cast<double>(scs.period());
  bool unbounded_jitter = false;
  for_each_interferer([&](const auto& j) {
    unbounded_jitter |= is_infinite(j.jitter);
    load += load_of(j);
  });
  if (unbounded_jitter || load > 1.0 + 1e-12) return kTimeInfinity;

  Time busy = 0;  // S at the last evaluated w
  const auto body = [&](Time w) -> StretchStep {
    if constexpr (std::is_same_v<Profile, ProfileWithExtra>) {
      if (seed_busy != kTimeNone) {
        busy = scs.max_busy_given_base(w, seed_busy);
        const Time value = w + (busy - seed_busy);
        seed_busy = kTimeNone;  // later evaluations run the full body
        return {value, 0};
      }
    }
    const WindowBusy window = scs.busiest_window(w);
    busy = window.busy;
    Time total = sat_add(wcet, window.busy);
    Time stretch = window.stretch;
    for_each_interferer([&](const auto& j) {
      // ceil((w + J) / T) and the distance to its next step, from one
      // division: unlike (w + J + T − 1) / T and releases · T, neither
      // overflows when w + J is within T of the largest Time.
      const Time released_by = w + j.jitter;
      const std::int64_t whole = released_by / j.period;
      const Time past_step = released_by - whole * j.period;
      const std::int64_t releases = whole + (past_step != 0 ? 1 : 0);
      total = sat_add(total, sat_mul(j.wcet, releases));
      stretch = std::min(stretch, past_step != 0 ? j.period - past_step : 0);
    });
    return {total, is_infinite(total) ? 0 : stretch};
  };

  const FixedPointResult fp = iterate_over_stretches(body, horizon, kFpsMaxIterations, seed);
  if (fp_iterations != nullptr) *fp_iterations += fp.iterations;
  if (!fp.converged) return kTimeInfinity;
  if (response_busy != nullptr) *response_busy = busy;
  return sat_add(jitter, fp.value);
}

/// fps_response_time of task `i` of the table's group against `scs`.
template <typename Profile>
Time table_response_time(const FpsInterferenceTable& table, std::size_t i, const Profile& scs,
                         Time horizon, int* fp_iterations, Time seed, Time seed_busy,
                         Time* response_busy) {
  const FpsInterferenceTable::Task& task = table.task(i);
  const auto for_each_interferer = [&](const auto& f) {
    for (const FpsInterferenceTable::Interferer& j : table.interferers(i)) f(j);
  };
  return fps_recurrence(task.wcet, task.jitter, task.load, for_each_interferer, scs, horizon,
                        fp_iterations, seed, seed_busy, response_busy);
}

}  // namespace

void FpsInterferenceTable::assign(std::span<const FpsTaskParams> group) {
  tasks_.clear();
  interferers_.clear();
  for (const FpsTaskParams& t : group) {
    Task entry{t.wcet, t.jitter, load_of(t), static_cast<std::uint32_t>(interferers_.size()), 0};
    for (const FpsTaskParams& j : group) {
      if (j.id == t.id || j.priority > t.priority) continue;
      interferers_.push_back(Interferer{j.wcet, j.period, j.jitter, load_of(j)});
    }
    entry.end = static_cast<std::uint32_t>(interferers_.size());
    tasks_.push_back(entry);
  }
}

Time fps_response_time(const FpsTaskParams& task, std::span<const FpsTaskParams> same_node,
                       const BusyProfile& scs, Time horizon, int* fp_iterations, Time seed) {
  const auto for_each_interferer = [&](const auto& f) {
    for (const FpsTaskParams& j : same_node) {
      if (j.id == task.id || j.priority > task.priority) continue;
      f(j);
    }
  };
  return fps_recurrence(task.wcet, task.jitter, load_of(task), for_each_interferer, scs, horizon,
                        fp_iterations, seed, kTimeNone, nullptr);
}

Time fps_response_time(const FpsInterferenceTable& table, std::size_t i,
                       const BusyProfile& scs, Time horizon, int* fp_iterations, Time seed,
                       Time* response_busy) {
  return table_response_time(table, i, scs, horizon, fp_iterations, seed, kTimeNone,
                             response_busy);
}

Time fps_response_time_sum(const FpsInterferenceTable& table, const ProfileWithExtra& scs,
                           Time horizon, std::span<const Time> seeds, Time cutoff,
                           std::span<Time> responses, int* fp_iterations,
                           std::span<const Time> seed_busy, std::span<Time> response_busy) {
  // Lower bound of task i's summand: the candidate profile only adds
  // interference, so its response is at least jitter + seed, or the
  // horizon it is charged when unbounded.
  const auto floor_of = [&](std::size_t i) -> Time {
    if (seeds.empty()) return 0;
    if (is_infinite(seeds[i])) return horizon;
    return std::min(horizon, sat_add(table.task(i).jitter, seeds[i]));
  };
  Time remaining = 0;  // summed floors of the tasks not yet analysed
  for (std::size_t i = 0; i < table.size(); ++i) remaining = sat_add(remaining, floor_of(i));
  Time sum = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Time bound = sat_add(sum, remaining);
    if (bound >= cutoff) return bound;
    remaining -= floor_of(i);
    Time r;
    if (!seeds.empty() && is_infinite(seeds[i])) {
      // The seed diverged against a *subset* of this profile's
      // interference, so this task's recurrence diverges here too.
      r = kTimeInfinity;
    } else {
      r = table_response_time(table, i, scs, horizon, fp_iterations,
                              seeds.empty() ? 0 : seeds[i],
                              seed_busy.empty() ? kTimeNone : seed_busy[i],
                              response_busy.empty() ? nullptr : &response_busy[i]);
    }
    if (!responses.empty()) responses[i] = r;
    sum = sat_add(sum, is_infinite(r) ? horizon : r);
  }
  return sum;
}

}  // namespace flexopt
