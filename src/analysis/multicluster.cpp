#include "flexopt/analysis/multicluster.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "engine.hpp"
#include "exact/exact_dispatch.hpp"

namespace flexopt {
namespace {

Expected<bool> analyze_one(const ClusterLayout& layout, const AnalysisOptions& options,
                           AnalysisComponentCache& cache, AnalysisArena& arena,
                           AnalysisResult& result, AnalysisWorkCounters* counters,
                           std::span<const Time> external_task_jitter,
                           std::span<const Time> dyn_message_caps) {
  if (layout.kind() == ClusterBackendKind::Tsn) {
    // The TSN backend has no component cache; its schedule build is a
    // plain topological sweep, cheap enough to recompute per evaluation.
    // Response caps never target TSN clusters (the exact backend records
    // ExactFallback::UnsupportedBackend instead of producing any).
    auto tsn = analyze_tsn_cluster(layout.tsn(), options, counters, external_task_jitter);
    if (!tsn.ok()) return tsn.error();
    result = std::move(tsn).value();
    return true;
  }
  return analyze_system_into(layout.flexray(), options, cache, arena, result, counters,
                             external_task_jitter, dyn_message_caps);
}

}  // namespace

Expected<std::vector<ClusterLayout>> build_system_layouts(const SystemModel& model,
                                                          const BusParams& params,
                                                          const SystemConfig& config) {
  std::vector<ClusterLayout> layouts;
  auto assigned = assign_system_layouts(model, params, config, layouts);
  if (!assigned.ok()) return assigned.error();
  return layouts;
}

Expected<bool> assign_system_layouts(const SystemModel& model, const BusParams& params,
                                     const SystemConfig& config,
                                     std::vector<ClusterLayout>& layouts) {
  if (config.cluster_count() != model.cluster_count()) {
    return make_error("system config has " + std::to_string(config.cluster_count()) +
                      " cluster configs, the system model has " +
                      std::to_string(model.cluster_count()) + " clusters");
  }
  layouts.resize(model.cluster_count());
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    const Application& app = *model.cluster_app(c);
    const ClusterBackendKind declared = app.cluster_backend(ClusterId{0});
    if (config.clusters[c].kind != declared) {
      return make_error("cluster " + std::to_string(c) + ": config backend '" +
                        to_string(config.clusters[c].kind) +
                        "' does not match the cluster's declared backend '" +
                        to_string(declared) + "'");
    }
    auto assigned = layouts[c].assign(app, params, config.clusters[c]);
    if (!assigned.ok()) {
      return make_error("cluster " + std::to_string(c) + ": " + assigned.error().message);
    }
  }
  return true;
}

Expected<MulticlusterResult> analyze_multicluster(
    const SystemModel& model, std::span<const ClusterLayout> layouts,
    const AnalysisOptions& options, std::span<AnalysisComponentCache* const> caches,
    AnalysisWorkCounters* counters, std::span<const std::vector<Time>> dyn_message_caps) {
  std::vector<AnalysisComponentCache> call_local(caches.empty() ? model.cluster_count() : 0);
  std::vector<AnalysisComponentCache*> call_local_ptrs;
  for (AnalysisComponentCache& cache : call_local) call_local_ptrs.push_back(&cache);
  if (caches.empty()) caches = call_local_ptrs;
  MulticlusterWorkspace workspace;
  auto analysis = analyze_multicluster(model, layouts, options, caches, workspace, counters,
                                       dyn_message_caps);
  if (!analysis.ok()) return analysis.error();
  return std::move(workspace.result);
}

Expected<bool> analyze_multicluster(const SystemModel& model,
                                    std::span<const ClusterLayout> layouts,
                                    const AnalysisOptions& options,
                                    std::span<AnalysisComponentCache* const> caches,
                                    MulticlusterWorkspace& workspace,
                                    AnalysisWorkCounters* counters,
                                    std::span<const std::vector<Time>> dyn_message_caps) {
  MulticlusterResult& result = workspace.result;
  const std::size_t C = model.cluster_count();
  if (caches.size() != C) {
    return make_error("analyze_multicluster: component cache count does not match cluster count");
  }
  // Exact mode dispatches to the schedule-space backend, which re-enters
  // the value form with mode == Holistic (and, on the second pass, with the
  // explored caps) — the caps.empty() guard keeps the re-entry direct.
  if (options.mode == AnalysisMode::Exact && dyn_message_caps.empty()) {
    auto exact = detail::analyze_multicluster_exact(model, layouts, options, caches, counters);
    if (!exact.ok()) return exact.error();
    result = std::move(exact).value();
    return true;
  }
  if (layouts.size() != C) {
    return make_error("analyze_multicluster: layout count does not match cluster count");
  }
  auto caps_of = [&](std::size_t c) -> std::span<const Time> {
    return c < dyn_message_caps.size() ? std::span<const Time>(dyn_message_caps[c])
                                       : std::span<const Time>{};
  };

  std::vector<std::vector<Time>>& external = workspace.external;
  std::vector<char>& stale = workspace.stale;
  workspace.arenas.resize(C);
  external.resize(C);
  for (std::size_t c = 0; c < C; ++c) {
    external[c].assign(model.cluster_app(c)->task_count(), 0);
  }
  stale.assign(C, 1);
  result.clusters.resize(C);
  result.cross_iterations = 0;
  result.cluster_analyses = 0;

  bool stable = false;
  for (int iter = 0; iter < kMaxCrossIterations && !stable; ++iter) {
    ++result.cross_iterations;
    for (std::size_t c = 0; c < C; ++c) {
      if (stale[c] == 0) continue;  // same inputs as its last analysis
      stale[c] = 0;
      ++result.cluster_analyses;
      auto analysis = analyze_one(layouts[c], options, *caches[c], workspace.arenas[c],
                                  result.clusters[c], counters, external[c], caps_of(c));
      if (!analysis.ok()) {
        return make_error("cluster " + std::to_string(c) + ": " + analysis.error().message);
      }
    }
    // Jacobi update of the coupling jitters: all clusters are analysed
    // against the previous sweep's bounds, so cluster order cannot matter.
    stable = true;
    for (const RelayLink& link : model.relay_links()) {
      const Time upstream =
          result.clusters[link.upstream_cluster].task_completion[index_of(link.upstream_recv)];
      Time& slot = external[link.downstream_cluster][index_of(link.downstream_send)];
      if (slot != upstream) {
        slot = upstream;
        stale[link.downstream_cluster] = 1;
        stable = false;
      }
    }
  }

  result.converged = stable;
  for (const AnalysisResult& cluster : result.clusters) {
    result.converged = result.converged && cluster.converged;
  }
  if (!result.converged) {
    // Same policy as analyze_system's iteration cap: a non-stabilised bound
    // is not a safe upper bound, so pin every ET activity system-wide.
    for (std::size_t c = 0; c < C; ++c) {
      const Application& app = *model.cluster_app(c);
      AnalysisResult& cluster = result.clusters[c];
      for (std::uint32_t t = 0; t < app.task_count(); ++t) {
        if (app.tasks()[t].policy == TaskPolicy::Fps) {
          cluster.task_completion[t] = kTimeInfinity;
        }
      }
      for (std::uint32_t m = 0; m < app.message_count(); ++m) {
        if (app.messages()[m].cls == MessageClass::Dynamic) {
          cluster.message_completion[m] = kTimeInfinity;
        }
      }
      cluster.cost = evaluate_cost(app, cluster.task_completion, cluster.message_completion);
    }
  }

  CostAccumulator acc;
  for (std::size_t c = 0; c < C; ++c) {
    acc.add(*model.cluster_app(c), result.clusters[c].task_completion,
            result.clusters[c].message_completion);
  }
  result.cost = acc.finish();
  return true;
}

}  // namespace flexopt
