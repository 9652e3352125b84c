#pragma once

/// \file multicluster.hpp
/// End-to-end schedulability analysis of a gateway-connected multi-cluster
/// system: one holistic per-cluster analysis per cluster (FlexRay or TSN,
/// dispatched on the cluster's backend kind), iterated to a cross-cluster
/// fixed point.  The coupling between clusters is
/// gateway forwarding jitter: the release jitter of a forwarding relay task
/// (SystemModel's downstream `.tx` task) is floored at the completion bound
/// of its upstream receive relay, so an inter-cluster message's end-to-end
/// bound is the completion of its final delivery hop.
///
/// Soundness: each per-cluster analysis is monotone in the injected
/// external jitter and the injected jitters are monotone in the per-cluster
/// completions, so the cross iteration is monotone from below — it either
/// stabilises at the least fixed point or crosses the horizon (pinned to
/// infinity).  Hitting kMaxCrossIterations pins every event-triggered
/// activity to infinity, exactly like analyze_system's own iteration cap.
///
/// Every FlexRay cluster is analysed by analyze_system's engine.  A single
/// bus is the one-cluster SystemModel::single: one sweep with an all-zero
/// injected jitter, bit-identical to analyze_system.  analyze_multicluster
/// is the exact backend's only entry point, at every cluster count, and
/// its in-place form is every CostEvaluator memo miss.

#include <memory>
#include <span>
#include <vector>

#include "flexopt/analysis/arena.hpp"
#include "flexopt/analysis/cluster_layout.hpp"
#include "flexopt/analysis/incremental.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/system_model.hpp"

namespace flexopt {

/// Cross-cluster sweeps before declaring divergence.  Each sweep runs a
/// cluster's holistic analysis at most once (Jacobi across clusters, so the
/// result is independent of cluster order): the first sweep analyses every
/// cluster, later ones only those whose injected jitters changed, since a
/// cluster's analysis is a function of its layout, options, injected
/// jitters and caps, none of which else changes within a call.
inline constexpr int kMaxCrossIterations = 16;

struct MulticlusterResult {
  /// One holistic result per cluster (indexed by cluster).  Per-cluster
  /// `cost` fields are cluster-local diagnostics; the system-wide Eq. 5
  /// cost below applies the f1/f2 switch globally.
  std::vector<AnalysisResult> clusters;
  Cost cost;
  bool converged = true;
  int cross_iterations = 0;
  /// Per-cluster analyses run over all cross iterations: after the first
  /// sweep only clusters whose injected jitters changed are analysed again.
  int cluster_analyses = 0;

  [[nodiscard]] bool schedulable() const { return cost.schedulable; }
};

/// The per-cluster state of analyze_multicluster's in-place form, sized by
/// the first call and reused by every later call on the same model.
struct MulticlusterWorkspace {
  std::vector<AnalysisArena> arenas;  ///< per cluster; TSN clusters leave theirs unbound
  /// Injected release-jitter floors, indexed [cluster][local TaskId]; only
  /// forwarding relays ever get a non-zero entry.
  std::vector<std::vector<Time>> external;
  /// Per cluster: whether the last Jacobi update changed its injected
  /// jitters, so the next sweep must analyse it again.
  std::vector<char> stale;
  MulticlusterResult result;  ///< the last successful call's outcome
};

/// Builds one validated ClusterLayout per cluster from the per-cluster
/// projections and decision variables, dispatching on each ClusterConfig's
/// backend kind (which must match the kind the application declares).
/// Fails on the first cluster whose configuration violates its protocol
/// (the error names the cluster).
Expected<std::vector<ClusterLayout>> build_system_layouts(const SystemModel& model,
                                                          const BusParams& params,
                                                          const SystemConfig& config);

/// build_system_layouts into `layouts` through ClusterLayout::assign:
/// allocation-free at steady state; unspecified after an error.
Expected<bool> assign_system_layouts(const SystemModel& model, const BusParams& params,
                                     const SystemConfig& config,
                                     std::vector<ClusterLayout>& layouts);

/// Runs the cross-cluster fixed point on a call-local workspace.  `caches`
/// (optional) supplies one AnalysisComponentCache per cluster, shared across
/// calls; an empty span analyses on call-local caches.  Either way
/// static-schedule components are jitter-independent, so every cross
/// iteration after the first reuses all of them.  `counters` accumulates
/// work across every per-cluster analysis of every sweep.
/// `dyn_message_caps` (optional, one vector per cluster; an empty inner
/// vector caps nothing) forwards per-message response caps into each
/// FlexRay cluster's fixed point — the exact backend's re-run hook (see
/// analyze_system).
///
/// When options.mode == AnalysisMode::Exact and no caps are given, the call
/// runs the exact analysis (flexopt/analysis/exact/exact_analysis.hpp) and
/// every cluster's result carries an ExactClusterInfo (TSN clusters fall
/// back with ExactFallback::UnsupportedBackend).  Each exploration goes
/// through its cluster's exact-space store, bit-identical to a cold run.
/// A cluster's fallback reasons rank InvalidOptions, NoDynMessages, then
/// NotConverged (the system-wide holistic fixed point), then the
/// exploration's own.
Expected<MulticlusterResult> analyze_multicluster(
    const SystemModel& model, std::span<const ClusterLayout> layouts,
    const AnalysisOptions& options, std::span<AnalysisComponentCache* const> caches = {},
    AnalysisWorkCounters* counters = nullptr,
    std::span<const std::vector<Time>> dyn_message_caps = {});

/// The same fixed point on `workspace`, written into workspace.result;
/// `caches` must hold one cache per cluster.  A warm holistic call whose
/// tables are all cached allocates nothing when every cluster is FlexRay.
/// On error, workspace.result is unspecified.
Expected<bool> analyze_multicluster(const SystemModel& model,
                                    std::span<const ClusterLayout> layouts,
                                    const AnalysisOptions& options,
                                    std::span<AnalysisComponentCache* const> caches,
                                    MulticlusterWorkspace& workspace,
                                    AnalysisWorkCounters* counters = nullptr,
                                    std::span<const std::vector<Time>> dyn_message_caps = {});

}  // namespace flexopt
