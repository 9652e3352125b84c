#pragma once

/// \file tsn_search.hpp
/// Local search over one TSN cluster's decision variables (gate offsets,
/// gate lengths, ET priorities) — the TSN counterpart of the single-bus
/// algorithms that Optimizer's block-coordinate descent runs on FlexRay
/// clusters.  TSN clusters cannot go through CostEvaluator::set_focus (the
/// single-bus algorithms mutate BusConfigs), so the descent scores every
/// neighbour through CostEvaluator::evaluate_system instead: each candidate
/// is the incumbent with one cluster's TsnConfig substituted, and the full
/// cross-cluster fixed point prices it.
///
/// The search is a deterministic first-improvement coordinate descent: the
/// neighbourhood is enumerated in a fixed order (gate offset slides, gate
/// length shrink/grow, adjacent ET priority swaps), the first strictly
/// improving neighbour is accepted and the sweep restarts, and the descent
/// ends when a full sweep brings no improvement or a budget fires.  Like
/// every optimiser here, the winning configuration is a deterministic
/// function of (system, base config) — worker threads never change it.

#include "flexopt/core/evaluator.hpp"
#include "flexopt/core/solve_types.hpp"

namespace flexopt {

struct TsnSearchResult {
  /// Best TsnConfig found; the base cluster's own config when !improved.
  TsnConfig config;
  /// System cost of the best candidate (the base system's cost when no
  /// neighbour improved; kInvalidConfigCost when even the base fails).
  Cost cost{kInvalidConfigCost, false, 0};
  /// True iff at least one neighbour strictly improved the system cost.
  bool improved = false;
  /// Full analyses spent by this descent (evaluator counter delta).
  long evaluations = 0;
  /// Why the descent returned.
  SolveStatus status = SolveStatus::Complete;
};

/// Runs the descent on cluster `cluster` of `base`.  The cluster must be a
/// TSN cluster (base.clusters[cluster].kind == Tsn); anything else returns
/// an unimproved result with the base's cost.  Honours
/// request.max_evaluations / max_wall_seconds / cancel; seed is ignored
/// (the descent is deterministic).
TsnSearchResult tsn_coordinate_descent(CostEvaluator& evaluator, const SystemConfig& base,
                                       int cluster, const SolveRequest& request = {});

}  // namespace flexopt
