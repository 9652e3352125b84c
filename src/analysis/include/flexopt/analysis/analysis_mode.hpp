#pragma once

/// \file analysis_mode.hpp
/// The analysis-backend vocabulary shared by analyze_multicluster,
/// CostEvaluator, and the campaign runner: which of the two backends
/// (holistic, exact) computes the ET (DYN-segment) worst-case response
/// times, the exact exploration's one knob (the state budget), and the
/// per-cluster record of what the exact backend actually did (refinement
/// statistics plus the holistic reference bounds the pessimism report is
/// computed against).

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "flexopt/util/expected.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

/// Which backend produces the ET response-time bounds of an analysis run.
///
///  * Holistic — the paper's fixed-point bound (safe, pessimistic).
///  * Exact — schedule-space exploration of the DYN arbitration refines the
///    holistic bound per FlexRay cluster; the result is clamped to the
///    holistic bound, so exact <= holistic activity-wise by construction.
///
/// Replaying winners on the network simulator is orthogonal to the mode
/// (`flexopt_cli solve --simulate`, campaign `sim_check on`).
enum class AnalysisMode { Holistic, Exact };

[[nodiscard]] const char* to_string(AnalysisMode mode);
[[nodiscard]] Expected<AnalysisMode> parse_analysis_mode(std::string_view text);

/// Knobs of the exact DYN schedule-space exploration.  The pruning policy
/// (identical-state merging plus dominance sweeps), the branch cap and the
/// one-hyper-period release window are fixed by the engine
/// (schedule_space.hpp).
struct ExactOptions {
  /// Exploration budget: total states expanded per cluster before the
  /// backend gives up and falls back to the holistic bound
  /// (ExactFallback::BudgetExceeded — recorded, never silent).
  std::uint64_t max_states = 1u << 16;

  friend bool operator==(const ExactOptions&, const ExactOptions&) = default;
};

/// Why a cluster kept its holistic bounds instead of exact refinements.
enum class ExactFallback {
  None,                ///< exploration ran and refined the cluster
  UnsupportedBackend,  ///< non-FlexRay cluster (TSN has no exact backend yet)
  NoDynMessages,       ///< nothing to refine: no DYN traffic on the bus
  NotConverged,        ///< holistic prerequisite diverged; no jitter bounds
  UnboundedJitter,     ///< some DYN release jitter is infinite
  BudgetExceeded,      ///< max_states or the per-cycle branch cap hit
  InvalidOptions,      ///< zero max_states budget
};

[[nodiscard]] const char* to_string(ExactFallback fallback);

/// What the exact backend did for one cluster, attached to that cluster's
/// AnalysisResult (AnalysisResult::exact).  Also carries the holistic
/// completion bounds the exploration refined, so a pessimism report can be
/// derived from the exact result alone without re-running analysis.
struct ExactClusterInfo {
  ExactFallback fallback = ExactFallback::None;
  /// States expanded (frontier sizes summed over cycles).
  std::uint64_t explored_states = 0;
  /// States merged away (identical-key dedup + dominance pruning).
  std::uint64_t merged_states = 0;
  /// Cycle-step successors generated (incl. readiness/tie branches).
  std::uint64_t transitions = 0;
  /// Bus cycles walked state by state (a stationary stretch's cycles taken
  /// in one step are not counted; see schedule_space.hpp).
  std::uint64_t walked_cycles = 0;
  /// DYN messages whose exact bound is strictly below the holistic one.
  std::size_t refined_messages = 0;
  /// Holistic reference bounds (graph-relative, kTimeInfinity = unbounded),
  /// indexed like the owning AnalysisResult's completion vectors.
  std::vector<Time> holistic_task_completion;
  std::vector<Time> holistic_message_completion;
};

}  // namespace flexopt
