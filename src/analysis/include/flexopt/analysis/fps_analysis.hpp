#pragma once

/// \file fps_analysis.hpp
/// Worst-case response times of FPS tasks executing in the slack of the
/// static schedule (Section 5, item 1: "take into consideration the
/// interference from the SCS activities").
///
/// Model: on each node, SCS jobs occupy the CPU at table-fixed times
/// (non-preemptable, effectively highest priority); FPS tasks are
/// priority-preemptive among themselves in the remaining slack.  The
/// response-time recurrence is the classic jitter-aware one extended with a
/// term S(w) = maximum SCS busy time in any window of length w:
///
///   w = C_i + S(w) + sum_{j in hp(i)} ceil((w + J_j) / T_j) * C_j
///   R_i = J_i + w
///
/// S(w) upper-bounds the table interference for every possible critical
/// instant, which makes the analysis sustainable (release-time independent)
/// at the cost of some pessimism; the simulator-based property tests bound
/// that pessimism.
///
/// The recurrence reads a node's group in one of two views: a span of
/// FpsTaskParams, filtered per call (the holistic engine, whose jitters
/// change every sweep), or an FpsInterferenceTable prepared once for many
/// calls (the list scheduler's candidate ranking).
///
/// Every view iterates with iterate_over_stretches: where S(w) has slope 1
/// and no interferer's release count steps, f(w) − w is constant and the
/// iteration skips the whole stretch at once, counting each skipped step,
/// so every response and fixed-point iteration count equals the
/// step-by-step iteration's.
///
/// The ranking scores each candidate on the node's base profile plus one
/// interval (a ProfileWithExtra), never on a merged candidate profile.  Its
/// recurrences start at the base responses, and the first step from a base
/// response R_b reads only the window busy time the base analysis recorded
/// there, S_base(R_b): f_cand(R_b) = R_b + S_cand(R_b) − S_base(R_b), a
/// local query without interferer loop.

#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/busy_profile.hpp"
#include "flexopt/model/ids.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

/// Per-task inputs of the FPS analysis.
struct FpsTaskParams {
  TaskId id{};
  Time wcet = 0;
  Time period = 0;
  /// Release jitter inherited from predecessors (holistic iteration).
  Time jitter = 0;
  /// Smaller = higher priority.
  int priority = 0;
};

/// Fixed-point iterations after which fps_response_time gives up on a
/// recurrence that is still growing and reports it unbounded.
inline constexpr int kFpsMaxIterations = 10'000;

/// Response time (including the task's own jitter) of `task` when competing
/// with `same_node` FPS tasks (which may include `task` itself; it is
/// skipped) in the slack of `scs`.  Tasks with priority <= task.priority
/// interfere (equal priorities are mutually interfering — conservative
/// FIFO-agnostic treatment).  Returns kTimeInfinity if the recurrence
/// exceeds `horizon`, is still growing after kFpsMaxIterations iterations,
/// or any contributing jitter is infinite.
/// `fp_iterations` (optional) accumulates the fixed-point iteration count
/// (the profiling counters' work axis): logical steps, stretches skipped
/// included, so it is the step-by-step iteration's count.  `seed` is a
/// pre-jitter seed for the busy-window iteration (see
/// iterate_over_stretches): it must be a least-fixed-point lower bound,
/// e.g. the converged busy value of the same task against a subset of the
/// SCS interference.  The returned response is identical to the unseeded
/// call whenever the unseeded iteration ends within kFpsMaxIterations
/// iterations; only the iteration count shrinks.  (Where the unseeded
/// iteration hits that cap, a seeded one may still converge: the seed can
/// skip the slow climb.)
Time fps_response_time(const FpsTaskParams& task, std::span<const FpsTaskParams> same_node,
                       const BusyProfile& scs, Time horizon, int* fp_iterations = nullptr,
                       Time seed = 0);

/// One node's FPS group prepared for repeated analysis against changing
/// SCS profiles: for each task, its interferers — the other members whose
/// priority is at or above its own, in group order — with C, T, J and C/T
/// precomputed, so a recurrence neither filters the group nor divides for
/// its load.  The list scheduler prepares one table per node per build and
/// ranks every candidate placement of Fig. 2's line 11 on it.  Both views
/// run the same recurrence (one definition, in fps_analysis.cpp, adding the
/// same doubles in the same order), so every response and fixed-point
/// iteration count of the table equals the span form's.
class FpsInterferenceTable {
 public:
  /// One interferer as the recurrence reads it.
  struct Interferer {
    Time wcet = 0;
    Time period = 0;
    Time jitter = 0;
    double load = 0.0;  ///< wcet / period, as the span form computes it
  };
  /// One task of the group and its slice of the interferer list.
  struct Task {
    Time wcet = 0;
    Time jitter = 0;
    double load = 0.0;  ///< wcet / period
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Rebuilds the table for `group` (one node's FPS tasks), reusing this
  /// object's buffers.
  void assign(std::span<const FpsTaskParams> group);

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] const Task& task(std::size_t i) const { return tasks_[i]; }
  [[nodiscard]] std::span<const Interferer> interferers(std::size_t i) const {
    return {interferers_.data() + tasks_[i].begin, tasks_[i].end - tasks_[i].begin};
  }

 private:
  std::vector<Task> tasks_;
  std::vector<Interferer> interferers_;
};

/// fps_response_time of task `i` of the table's group.  `response_busy`
/// (optional) receives scs.max_busy_in_window at the busy-window fixed point
/// when the response is finite.
Time fps_response_time(const FpsInterferenceTable& table, std::size_t i,
                       const BusyProfile& scs, Time horizon, int* fp_iterations = nullptr,
                       Time seed = 0, Time* response_busy = nullptr);

/// Sum of response times of all tasks in the table's group (infinite
/// responses are added as `horizon` each, keeping the sum finite and
/// comparable).  Used by the list scheduler to rank candidate SCS placements
/// (Fig. 2, line 11).  `seeds` (optional, parallel to the table's tasks) carries
/// per-task busy-value seeds computed against an interference *subset* —
/// the base placement profile; an infinite seed short-circuits that task
/// to an infinite response (exact: more interference can only grow a
/// diverged recurrence).  The sum is bit-identical with and without seeds
/// under the iteration-cap condition of fps_response_time.
///
/// `cutoff` prunes the ranking: each seed also bounds its task's summand
/// from below, so the summation stops as soon as the partial sum plus the
/// remaining tasks' seed bounds reaches `cutoff`, and returns that bound.
/// The result therefore equals the full sum whenever the full sum is below
/// `cutoff`, and is >= `cutoff` otherwise.  `responses` (optional, parallel
/// to the table's tasks) receives each analysed task's response time
/// (kTimeInfinity when unbounded); it is complete when the result is below
/// `cutoff`.  `fp_iterations` (optional) accumulates the fixed-point
/// iterations of the analysed tasks.
///
/// `scs` is a BusyProfile, or a base profile plus one candidate interval.
/// `seed_busy` (optional, parallel to `seeds`) makes each first step local:
/// for every finite seed it holds scs.base().max_busy_in_window(seeds[i]),
/// and then seeds[i] must be a fixed point of task i's busy-window
/// recurrence against scs.base() — a base response, as the list scheduler
/// passes them (its table's jitters are zero).  `response_busy` (optional,
/// parallel to the table's tasks) receives scs's window busy time at each
/// finite analysed response: the seed_busy of a later ranking whose base is
/// this candidate's merged profile.
Time fps_response_time_sum(const FpsInterferenceTable& table, const ProfileWithExtra& scs,
                           Time horizon, std::span<const Time> seeds = {},
                           Time cutoff = kTimeInfinity, std::span<Time> responses = {},
                           int* fp_iterations = nullptr, std::span<const Time> seed_busy = {},
                           std::span<Time> response_busy = {});

}  // namespace flexopt
