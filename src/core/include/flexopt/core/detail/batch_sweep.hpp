#pragma once

/// \file batch_sweep.hpp
/// Shared core of the two parallel DYN-length sweeps (BBC's Fig. 5 sweep
/// and OBC-EE's exhaustive search): evaluate `base` at every candidate
/// minislot count in batches of CostEvaluator::evaluate_many, honouring the
/// SolveControl budgets between batches.  Internal to src/core — front-ends
/// drive sweeps through the Optimizer interface.

#include <algorithm>
#include <functional>
#include <vector>

#include "flexopt/core/evaluator.hpp"
#include "flexopt/core/solve_types.hpp"

namespace flexopt::detail {

/// Calls `on_result(minislots, evaluation)` for every *valid* evaluation,
/// in input order — so a strictly-better selection in the callback yields
/// results identical to the serial sweep.  Stops early when `control`
/// requests it; batches never claim more than the remaining evaluation
/// budget (cache hits make this conservative, never over), so the batch
/// size changes how often the sweep polls `control`, never which
/// candidates an evaluation budget admits.  Eight candidates per worker
/// amortise the helper threads each evaluate_many call starts.
inline void batched_minislot_sweep(
    CostEvaluator& evaluator, const BusConfig& base, const std::vector<int>& lengths,
    SolveControl* control,
    const std::function<void(int, const CostEvaluator::Evaluation&)>& on_result) {
  const std::size_t batch_size = 8 * static_cast<std::size_t>(evaluator.worker_threads());
  std::vector<BusConfig> batch;
  for (std::size_t pos = 0; pos < lengths.size();) {
    if (control != nullptr && control->should_stop(evaluator)) break;
    std::size_t n = std::min(batch_size, lengths.size() - pos);
    if (control != nullptr) {
      n = std::min<std::size_t>(
          n, static_cast<std::size_t>(std::max(1L, control->remaining_evaluations(evaluator))));
    }
    batch.clear();
    for (std::size_t i = pos; i < pos + n; ++i) {
      batch.push_back(base);
      batch.back().minislot_count = lengths[i];
    }
    const auto evals = evaluator.evaluate_many(batch);
    for (std::size_t i = 0; i < evals.size(); ++i) {
      if (evals[i].valid) on_result(lengths[pos + i], evals[i]);
    }
    pos += n;
  }
}

/// Range overload: sweeps [dyn_min, dyn_max] with the given stride.
inline void batched_minislot_sweep(
    CostEvaluator& evaluator, const BusConfig& base, int dyn_min, int dyn_max, int stride,
    SolveControl* control,
    const std::function<void(int, const CostEvaluator::Evaluation&)>& on_result) {
  std::vector<int> lengths;
  for (int minislots = dyn_min; minislots <= dyn_max; minislots += stride) {
    lengths.push_back(minislots);
  }
  batched_minislot_sweep(evaluator, base, lengths, control, on_result);
}

}  // namespace flexopt::detail
