#pragma once

/// \file bbc.hpp
/// The Basic Bus Configuration algorithm of Fig. 5: minimal ST segment
/// (one slot per ST-sending node, slot length = largest ST frame), unique
/// criticality-ordered FrameIDs, and a sweep over the DYN segment length
/// keeping the best cost.

#include "flexopt/core/evaluator.hpp"

namespace flexopt {

class SolveControl;

struct BbcOptions {
  /// Sweep stride in minislots; 0 = auto (cover the range with at most
  /// `max_sweep_points` full analyses).  The paper steps by one minislot;
  /// the auto stride trades negligible cost resolution for tractable
  /// runtime and is reported by the benches.
  int dyn_stride_minislots = 0;
  int max_sweep_points = 128;
};

/// Runs BBC.  The outcome carries the best configuration found over the
/// sweep (feasible == cost.schedulable; BBC frequently ends infeasible on
/// larger systems, which is exactly the Fig. 9 result).  Candidate DYN
/// lengths are evaluated in batches of CostEvaluator::evaluate_many;
/// `control` (optional) enforces the SolveRequest budgets between
/// batches.  Front-ends drive this through the OptimizerRegistry ("bbc").
OptimizationOutcome optimize_bbc(CostEvaluator& evaluator, const BbcOptions& options = {},
                                 SolveControl* control = nullptr);

}  // namespace flexopt
