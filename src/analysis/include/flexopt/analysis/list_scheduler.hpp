#pragma once

/// \file list_scheduler.hpp
/// The global static scheduling algorithm of Fig. 2: list scheduling of SCS
/// tasks and ST messages over one hyper-period, driven by a modified
/// critical-path priority, with SCS placement chosen to minimise the impact
/// on FPS schedulability (line 11).
///
/// Line 11 ranks each SCS job's candidate gaps by the sum of the node's FPS
/// response times, on a per-node FpsInterferenceTable prepared once per
/// build (flexopt/analysis/fps_analysis.hpp).  A ranking builds one profile,
/// the node's base timeline, and reads each candidate as that profile plus
/// the job's interval (a ProfileWithExtra): no candidate profile is merged
/// or built.  Per node, the workspace keeps the ranking's seeds: each FPS
/// task's busy-window fixed point against the base profile, and the
/// profile's busiest window there, from which a candidate recurrence takes
/// its first step without a window scan or interferer loop.  After a
/// ranking the winner's fixed points and window busy times, with its merged
/// interval list, become the next ranking's seeds when the node's timeline
/// merges to exactly that list.  A build keeps every working buffer — job
/// states, ready heap, timelines, ST-slot occupancy, ranking scratch, FPS
/// tables, seeds — in a ScheduleWorkspace; reusing one across builds leaves
/// only the returned StaticSchedule to allocate.

#include <cstdint>
#include <memory>

#include "flexopt/analysis/static_schedule.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

class BusLayout;  // flexopt/flexray/bus_layout.hpp (kept out of cluster-generic includes)

/// How `schedule_TT_task` (Fig. 2, line 11) picks among feasible gaps.
enum class Placement {
  /// First idle gap after ASAP — fast, used inside hot optimisation loops.
  Asap,
  /// Evaluate a few candidate gaps and keep the one giving the smallest sum
  /// of FPS response times on that node (the paper's intent; the exact
  /// method of [13] re-analyses the whole system per candidate).
  MinimizeFpsImpact,
};

struct SchedulerOptions {
  Placement placement = Placement::MinimizeFpsImpact;
  /// Give up locating an ST slot for a message beyond this many bus cycles
  /// after its ready time (guards against unbounded searches when slots are
  /// hopelessly oversubscribed); the schedule is then reported infeasible.
  std::int64_t max_slot_search_cycles = 4096;
};

/// Reusable working buffers of build_static_schedule.  A build resets
/// everything it reads, so a workspace may serve any sequence of layouts
/// and applications, and every table equals a fresh build's.  Not
/// thread-safe: one workspace per thread (AnalysisArena owns one per
/// evaluator worker slot).
class ScheduleWorkspace {
 public:
  // Defined where Buffers is complete.
  ScheduleWorkspace();
  ~ScheduleWorkspace();
  ScheduleWorkspace(ScheduleWorkspace&&) noexcept;
  ScheduleWorkspace& operator=(ScheduleWorkspace&&) noexcept;

 private:
  friend Expected<StaticSchedule> build_static_schedule(const BusLayout& layout,
                                                        const SchedulerOptions& options,
                                                        ScheduleWorkspace& workspace);
  struct Buffers;
  std::unique_ptr<Buffers> buffers_;  ///< created by the first build
};

/// Builds the static schedule table for all SCS tasks and ST messages.
/// Fails when precedence cannot be satisfied (should not happen for a
/// finalized application), when an ST message cannot be placed within the
/// search bound, or when four hyper-periods (the FPS ranking's response
/// horizon) overflow Time.  Runs on a call-local workspace.
Expected<StaticSchedule> build_static_schedule(const BusLayout& layout,
                                               const SchedulerOptions& options = {});

/// The same build on `workspace`'s buffers; bit-identical to the form above.
Expected<StaticSchedule> build_static_schedule(const BusLayout& layout,
                                               const SchedulerOptions& options,
                                               ScheduleWorkspace& workspace);

}  // namespace flexopt
