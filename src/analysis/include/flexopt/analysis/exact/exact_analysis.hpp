#pragma once

/// \file exact_analysis.hpp
/// The exact analysis backend behind AnalysisMode::Exact, reached through
/// analyze_multicluster at every cluster count (a single bus is the
/// one-cluster SystemModel::single): runs the holistic analysis, explores
/// the DYN schedule space per FlexRay cluster (schedule_space.hpp), and
/// re-runs the holistic fixed point with the explored worst-case finishes
/// as per-message caps.  Folding the caps through the fixed point tightens
/// the jitters of downstream FPS tasks and messages too, so the refinement
/// propagates along the task graphs — and the final bounds are clamped
/// activity-wise to the holistic ones, so exact <= holistic holds by
/// construction.
///
/// Any cluster the exploration cannot refine keeps its holistic bounds and
/// records why (ExactFallback) in the ExactClusterInfo attached to its
/// AnalysisResult — recorded, never silent.  This header holds the
/// holistic-vs-exact report built from those records.

#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/analysis/system_analysis.hpp"

namespace flexopt {

/// One ET activity's holistic-vs-exact bound pair.
struct PessimismActivity {
  std::size_t cluster = 0;
  bool is_task = false;
  std::uint32_t index = 0;  ///< TaskId / MessageId value within the cluster
  Time holistic = 0;        ///< graph-relative bound; kTimeInfinity = unbounded
  Time exact = 0;
};

/// Holistic-vs-exact gap statistics over every ET activity of an exact
/// analysis run (derived from the ExactClusterInfo records alone — no
/// re-analysis).  Relative gaps are (holistic - exact) / holistic, so 0
/// means "no refinement" and 0.25 means "the holistic bound was 25% above
/// the exact one"; activities with an unbounded or zero holistic bound are
/// excluded from the mean/max.
struct PessimismReport {
  std::size_t activities = 0;  ///< ET activities compared
  std::size_t refined = 0;     ///< exact strictly below holistic
  std::size_t unbounded = 0;   ///< holistic bound infinite
  double mean_gap = 0.0;
  double max_gap = 0.0;
  std::uint64_t explored_states = 0;
  std::uint64_t merged_states = 0;
  std::uint64_t walked_cycles = 0;  ///< bus cycles walked state by state
  /// True when any cluster fell back to its holistic bounds.
  bool any_fallback = false;
  std::vector<ExactFallback> cluster_fallbacks;
  std::vector<PessimismActivity> entries;
};

/// Builds the report from per-cluster exact results (`clusters[c]` must
/// carry the ExactClusterInfo the exact backend attached; clusters without
/// one contribute zero-gap entries).  `apps[c]` is cluster c's application
/// projection.
[[nodiscard]] PessimismReport make_pessimism_report(std::span<const Application* const> apps,
                                                    std::span<const AnalysisResult> clusters);

}  // namespace flexopt
