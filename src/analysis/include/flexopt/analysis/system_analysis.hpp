#pragma once

/// \file system_analysis.hpp
/// Holistic scheduling + schedulability analysis of a complete FlexRay
/// system (Section 5): builds the static schedule table, then iterates
/// response-time analysis for FPS tasks and DYN messages with jitter
/// propagation along the task graphs until a global fixed point.  The
/// fixed point itself is an engine private to the analysis module, on the
/// component cache of flexopt/analysis/incremental.hpp; analyze_system
/// and analyze_multicluster (flexopt/analysis/multicluster.hpp) run it.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flexopt/analysis/analysis_mode.hpp"
#include "flexopt/analysis/cost.hpp"
#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/list_scheduler.hpp"
#include "flexopt/analysis/static_schedule.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

class BusLayout;  // flexopt/flexray/bus_layout.hpp (kept out of cluster-generic includes)

/// Response-time horizon as a multiple of max(hyper-period, max deadline);
/// any recurrence exceeding it is reported unbounded.
inline constexpr Time kHorizonFactor = 4;

struct AnalysisOptions {
  SchedulerOptions scheduler;
  /// BusCycles_m bound for DYN messages; the multiplicity-capped refinement
  /// is tighter and only marginally slower (binary search per fixed-point
  /// step).
  DynCyclesBound dyn_bound = DynCyclesBound::MultiplicityCapped;
  /// Holistic sweeps before declaring divergence (every ET completion is
  /// then pinned to infinity).
  int max_holistic_iterations = 32;
  /// Which backend produces the ET bounds.  Exact routes through the DYN
  /// schedule-space exploration (flexopt/analysis/exact/); only
  /// analyze_multicluster runs it.
  AnalysisMode mode = AnalysisMode::Holistic;
  /// Exploration knobs, used only when mode == AnalysisMode::Exact.
  ExactOptions exact;
};

/// Recompute accounting of the evaluation pipeline.  One "analysis
/// component" is one unit of real work: a static-schedule table build, one
/// FPS response-time recurrence, or one DYN message WCRT recurrence.  The
/// Fig. 9 runtime argument is about how many of these a search performs.
struct AnalysisWorkCounters {
  std::uint64_t schedule_builds = 0;  ///< static-segment tables built
  std::uint64_t schedule_reuses = 0;  ///< tables served from the component cache
  std::uint64_t fps_analyses = 0;     ///< fps_response_time calls (per task per pass)
  std::uint64_t fps_skipped = 0;      ///< FPS recomputations skipped (inputs unchanged)
  std::uint64_t dyn_analyses = 0;     ///< dyn_response_time calls (per message per pass)
  std::uint64_t dyn_skipped = 0;      ///< DYN recomputations skipped (inputs unchanged)
  std::uint64_t holistic_iterations = 0;
  /// Inner fixed-point iterations summed over every FPS/DYN recurrence —
  /// the "how hard did each recomputed component work" axis the coarse
  /// per-component counters cannot see.
  std::uint64_t fixed_point_iterations = 0;
  /// Exact schedule-space engine (AnalysisMode::Exact only): states
  /// expanded, states merged away (identical-key dedup + dominance), and
  /// per-cluster explorations served verbatim from the exact-space cache
  /// instead of re-explored.
  std::uint64_t exact_states_explored = 0;
  std::uint64_t exact_states_deduped = 0;
  std::uint64_t exact_frontier_reused = 0;

  /// Total recomputed components.
  [[nodiscard]] std::uint64_t components() const {
    return schedule_builds + fps_analyses + dyn_analyses;
  }
  AnalysisWorkCounters& operator+=(const AnalysisWorkCounters& o) {
    schedule_builds += o.schedule_builds;
    schedule_reuses += o.schedule_reuses;
    fps_analyses += o.fps_analyses;
    fps_skipped += o.fps_skipped;
    dyn_analyses += o.dyn_analyses;
    dyn_skipped += o.dyn_skipped;
    holistic_iterations += o.holistic_iterations;
    fixed_point_iterations += o.fixed_point_iterations;
    exact_states_explored += o.exact_states_explored;
    exact_states_deduped += o.exact_states_deduped;
    exact_frontier_reused += o.exact_frontier_reused;
    return *this;
  }
  /// Field-wise delta against an earlier snapshot of the same counters.
  [[nodiscard]] AnalysisWorkCounters since(const AnalysisWorkCounters& before) const {
    AnalysisWorkCounters d;
    d.schedule_builds = schedule_builds - before.schedule_builds;
    d.schedule_reuses = schedule_reuses - before.schedule_reuses;
    d.fps_analyses = fps_analyses - before.fps_analyses;
    d.fps_skipped = fps_skipped - before.fps_skipped;
    d.dyn_analyses = dyn_analyses - before.dyn_analyses;
    d.dyn_skipped = dyn_skipped - before.dyn_skipped;
    d.holistic_iterations = holistic_iterations - before.holistic_iterations;
    d.fixed_point_iterations = fixed_point_iterations - before.fixed_point_iterations;
    d.exact_states_explored = exact_states_explored - before.exact_states_explored;
    d.exact_states_deduped = exact_states_deduped - before.exact_states_deduped;
    d.exact_frontier_reused = exact_frontier_reused - before.exact_frontier_reused;
    return d;
  }
};

/// Full analysis outcome for one (application, bus configuration) pair.
struct AnalysisResult {
  /// Graph-relative worst-case completion bound per task / message
  /// (kTimeInfinity when unbounded).  For TT activities this is the table
  /// finish relative to the graph release; for ET activities it is the
  /// holistic response time including inherited jitter.
  std::vector<Time> task_completion;
  std::vector<Time> message_completion;
  /// Release jitter used in the final iteration (diagnostics / tests).
  std::vector<Time> task_jitter;
  std::vector<Time> message_jitter;
  /// The static-segment schedule table, shared with (not copied from) the
  /// component cache: every analysis whose configuration maps to the same
  /// table geometry holds a reference to one immutable instance, so
  /// evaluation never deep-copies slot tables in its hot path.
  std::shared_ptr<const StaticSchedule> schedule_ptr;
  Cost cost;
  /// False when the holistic iteration hit max_holistic_iterations and the
  /// ET completions were pinned to infinity.
  bool converged = true;
  /// Set only by the exact backend (AnalysisMode::Exact): refinement
  /// statistics plus the holistic reference bounds.  Shared, immutable,
  /// cheap to copy along with the result; null for holistic analyses.
  std::shared_ptr<const ExactClusterInfo> exact;
  [[nodiscard]] bool schedulable() const { return cost.schedulable; }
  /// The schedule table (an empty table when analysis never built one).
  [[nodiscard]] const StaticSchedule& schedule() const {
    static const StaticSchedule empty{0, 0, 0, 0};
    return schedule_ptr ? *schedule_ptr : empty;
  }
};

/// Response-time horizon: max(hyper-period, max effective deadline) *
/// kHorizonFactor.  Fails when the hyper-period overflows, and with a
/// diagnostic naming the hyper-period when the product does.
Expected<Time> analysis_horizon(const Application& app);

/// Runs GlobalSchedulingAlgorithm (Fig. 2) + holistic response-time
/// analysis.  Fails only on structural errors (e.g. no ST slot placement
/// possible); an unschedulable system is a *successful* analysis with a
/// positive cost.
///
/// Reentrancy guarantee: the analysis reads `layout` and `options` only and
/// keeps its fixed-point state on the stack — concurrent calls are safe as
/// long as each call gets its own BusLayout.
/// `counters` (optional) accumulates the work performed.
/// `external_task_jitter` (optional, indexed by TaskId; empty = none) adds
/// a release-jitter floor per task on top of precedence-induced jitter —
/// the engine hook through which the cross-cluster fixed point
/// (flexopt/analysis/multicluster.hpp) feeds gateway forwarding relays the
/// completion bounds of their upstream hops.  An empty span leaves the
/// analysis bit-identical to the pre-cluster behaviour.
/// `dyn_message_caps` (optional, indexed by MessageId; empty = none) clamps
/// each DYN message's response-time recurrence to min(recurrence, cap)
/// inside the fixed point — the hook the exact backend uses to fold its
/// explored worst-case finish times back into the holistic iteration.  The
/// minimum of two sound monotone bounds is sound and monotone, so the
/// capped fixed point converges and every completion (tasks included,
/// through the tightened jitters) is <= its uncapped counterpart.
/// The analysis is holistic only: options.mode == AnalysisMode::Exact is
/// rejected with a diagnostic naming analyze_multicluster, the exact
/// backend's entry point at every cluster count (a single bus is the
/// one-cluster SystemModel::single).
Expected<AnalysisResult> analyze_system(const BusLayout& layout,
                                        const AnalysisOptions& options = {},
                                        AnalysisWorkCounters* counters = nullptr,
                                        std::span<const Time> external_task_jitter = {},
                                        std::span<const Time> dyn_message_caps = {});

}  // namespace flexopt
