#pragma once

/// \file obc.hpp
/// The Optimised Bus Configuration heuristic of Fig. 6: nested exploration
/// of ST slot count and length (with quota round-robin slot ownership),
/// delegating the DYN segment length to a pluggable strategy
/// (exhaustive = OBC-EE, curve fitting = OBC-CF).  Terminates as soon as a
/// schedulable configuration is confirmed.

#include "flexopt/core/dyn_search.hpp"
#include "flexopt/core/evaluator.hpp"

namespace flexopt {

class SolveControl;

struct ObcOptions {
  /// Extra ST slots explored beyond the per-sender minimum.  The paper
  /// loops to the protocol limit (1023) but stops at the first feasible
  /// configuration; the cap bounds worst-case runtime on hopeless systems.
  int max_extra_slots = 4;
  /// Assign FrameIDs by criticality (Eq. 4); false = declaration order
  /// (ablation A3).
  bool criticality_frame_ids = true;
};

/// Runs the OBC heuristic with the given DYN-length strategy.  `control`
/// (optional) enforces SolveRequest budgets at the ST-exploration loop and
/// inside the DYN search.  Front-ends drive this through the
/// OptimizerRegistry ("obc-ee" / "obc-cf").
OptimizationOutcome optimize_obc(CostEvaluator& evaluator, DynSegmentStrategy& dyn_strategy,
                                 const ObcOptions& options = {},
                                 SolveControl* control = nullptr);

}  // namespace flexopt
