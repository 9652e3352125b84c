#pragma once

/// \file list_scheduler.hpp
/// The global static scheduling algorithm of Fig. 2: list scheduling of SCS
/// tasks and ST messages over one hyper-period, driven by a modified
/// critical-path priority, with SCS placement chosen to minimise the impact
/// on FPS schedulability (line 11).

#include <cstdint>

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

/// Builds the static schedule table for all SCS tasks and ST messages.
/// Fails when precedence cannot be satisfied (should not happen for a
/// finalized application) or when an ST message cannot be placed within the
/// search bound.
Expected<StaticSchedule> build_static_schedule(const BusLayout& layout,
                                               const SchedulerOptions& options = {});

}  // namespace flexopt
