#pragma once

/// \file incremental.hpp
/// The component cache of the holistic analysis (Section 5).  The analysis
/// splits into separately cacheable components keyed by sub-hashes of the
/// BusConfig decision variables, so neighbouring configurations share
/// whatever their decision variables leave intact:
///
///  * the static-segment schedule table (+ the TT completions it fixes),
///    keyed by the schedule's inputs: ST slot count / length / ownership
///    and the DYN segment length (the cycle length shifts every later bus
///    cycle of the table);
///  * the exact backend's DYN schedule-space explorations, keyed by the
///    DYN recurrences' non-jitter inputs — segment geometry (ST length,
///    cycle length, pLatestTx) and FrameID assignment, ST slot ownership
///    deliberately absent — plus the DYN release jitters;
///  * the FPS/task-level structure (FPS task groups per node, response
///    horizon), which depends on the mapping only and is built once per
///    application.
///
/// The engine that reads them is private to the analysis module; callers
/// reach it through analyze_system and analyze_multicluster.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "flexopt/analysis/exact/schedule_space.hpp"
#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/flexray/bus_config.hpp"

namespace flexopt {

/// Stable sub-hashes of the decision variables, one per component class.
struct ConfigSubHashes {
  /// Inputs of the static-segment schedule (ST knobs + cycle length).
  std::uint64_t geometry_key = 0;
  /// Non-jitter inputs of the DYN response-time analysis (segment
  /// geometry + FrameID assignment; slot ownership excluded).
  std::uint64_t dyn_key = 0;
};

[[nodiscard]] ConfigSubHashes config_subhashes(const BusConfig& config);

/// Cacheable static-segment component: the schedule table plus the TT
/// completions it fixes.  Construction failures are cached too (negative
/// caching), so a sweep over an unschedulable geometry pays once.
struct ScheduleComponent {
  // Geometry the component was built for — the hash-collision guard.
  int static_slot_count = 0;
  Time static_slot_len = 0;
  std::vector<NodeId> static_slot_owner;
  int minislot_count = 0;

  bool valid = false;
  std::string error;
  /// Immutable table shared into every AnalysisResult that reuses this
  /// component (no deep copy on the evaluation hot path).
  std::shared_ptr<const StaticSchedule> schedule;
  /// Indexed by TaskId / MessageId: table WCRT for TT activities, 0 for ET
  /// (the fixed point's monotone-from-below seed).
  std::vector<Time> tt_task_completion;
  std::vector<Time> tt_message_completion;
};

/// Mapping-level component shared by every configuration of one
/// application, flattened into structure-of-arrays form so the analysis
/// hot path iterates contiguous memory.  Built once per evaluator.
///
/// The "aid" (activity index) space is the dense index the arena state is
/// keyed by: aid = t for task t, aid = n_tasks + m for message m.
struct TaskStructure {
  bool valid = false;
  std::string error;
  Time horizon = 0;
  std::uint32_t n_tasks = 0;
  std::uint32_t n_msgs = 0;
  std::uint32_t n_nodes = 0;
  std::uint32_t n_acts = 0;  ///< n_tasks + n_msgs

  /// FPS task parameter templates, one flat array grouped by node:
  /// node n's group is fps_params[fps_node_begin[n] .. fps_node_begin[n+1]).
  /// (Jitter slots are copied into the arena and refreshed per analysis;
  /// the structure itself is immutable.)
  std::vector<FpsTaskParams> fps_params;
  std::vector<std::uint32_t> fps_node_begin;   ///< size n_nodes + 1
  std::vector<std::int32_t> fps_slot_of_task;  ///< per task; -1 when not FPS

  /// Indices of DYN messages, ascending — the dense DYN index space.
  std::vector<std::uint32_t> dyn_messages;
  std::vector<std::int32_t> dyn_slot_of_msg;  ///< per message; -1 when not DYN
  std::vector<Time> dyn_period;               ///< per dense DYN index
  std::vector<NodeId> dyn_sender_node;        ///< per dense DYN index
  std::vector<std::int32_t> msg_priority;     ///< per message

  /// ET activities (FPS tasks + DYN messages) in topological order, as aids.
  std::vector<std::uint32_t> et_topo;
  /// Predecessor edges as CSR over the aid space, preserving
  /// Application's adjacency order.
  std::vector<std::uint32_t> pred_begin;  ///< size n_acts + 1
  std::vector<std::uint32_t> pred;
  std::vector<Time> release_offset;     ///< per aid (messages: 0)
  std::vector<std::uint8_t> act_is_et;  ///< per aid (FPS task / DYN message)
  std::vector<std::uint32_t> task_node;  ///< per task
};

/// Cacheable exact-backend component: one cluster's DYN schedule-space
/// exploration outcome, keyed by every input the exploration reads — the
/// dyn sub-hash (segment geometry + FrameID assignment), the converged DYN
/// release jitters, the cycle horizon and the exploration knobs.
/// The exploration is a pure function of that key, so serving a stored
/// component is bit-identical to re-exploring (counters included); this is
/// what makes exact analysis incremental across neighbour moves.
struct ExactSpaceComponent {
  // Exploration inputs — the hash-collision / equality guard.
  std::uint64_t dyn_key = 0;
  Time horizon = 0;
  ExactOptions options;
  std::vector<Time> message_jitter;

  ScheduleSpaceResult space;
};

/// Thread-safe store of the per-geometry schedule components and the
/// per-mapping task structure.  Owned by CostEvaluator; one cache serves
/// exactly one application.
class AnalysisComponentCache {
 public:
  explicit AnalysisComponentCache(std::size_t max_entries = 4096);

  /// Schedule component for the layout's geometry; built on a miss, on
  /// `workspace` (the calling thread's).  `counters` (optional) records the
  /// build or the reuse.
  std::shared_ptr<const ScheduleComponent> schedule_for(const BusLayout& layout,
                                                        const AnalysisOptions& options,
                                                        ScheduleWorkspace& workspace,
                                                        AnalysisWorkCounters* counters);

  /// Task-level structure of `app`; built on the first call.  Every call
  /// must pass the same application.
  std::shared_ptr<const TaskStructure> task_structure(const Application& app);

  /// Exact schedule-space exploration for the layout's DYN inputs under
  /// `message_jitter` (the converged holistic release jitters): explored on
  /// a miss, served verbatim on a hit.  A hit bumps
  /// `counters->exact_frontier_reused`; a miss records the explored/merged
  /// state counts.  Results (including fallbacks) are negatively cached —
  /// the exploration is deterministic, so the first outcome is the outcome.
  std::shared_ptr<const ExactSpaceComponent> schedule_space_for(
      const BusLayout& layout, std::span<const Time> message_jitter, Time horizon,
      const ExactOptions& options, AnalysisWorkCounters* counters);

  void clear();
  [[nodiscard]] std::size_t schedule_entries() const;
  [[nodiscard]] std::size_t exact_space_entries() const;

 private:
  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::size_t entry_count_ = 0;  ///< total components across all buckets
  std::size_t exact_entry_count_ = 0;
  std::shared_ptr<const TaskStructure> task_structure_;
  /// geometry_key -> components (a bucket list: collisions are resolved by
  /// comparing the stored geometry).
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<const ScheduleComponent>>>
      schedules_;
  /// Combined exploration-input hash -> explored spaces (bucket list,
  /// full-key equality guard).
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<const ExactSpaceComponent>>>
      exact_spaces_;
};

}  // namespace flexopt
