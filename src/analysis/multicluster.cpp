#include "flexopt/analysis/multicluster.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "exact/exact_dispatch.hpp"

namespace flexopt {
namespace {

Expected<AnalysisResult> analyze_one(const ClusterLayout& layout, const AnalysisOptions& options,
                                     AnalysisComponentCache* cache,
                                     AnalysisWorkCounters* counters,
                                     std::span<const Time> external_task_jitter,
                                     std::span<const Time> dyn_message_caps) {
  if (layout.kind() == ClusterBackendKind::Tsn) {
    // The TSN backend has no component cache; its schedule build is a
    // plain topological sweep, cheap enough to recompute per evaluation.
    // Response caps never target TSN clusters (the exact backend records
    // ExactFallback::UnsupportedBackend instead of producing any).
    return analyze_tsn_cluster(layout.tsn(), options, counters, external_task_jitter);
  }
  return analyze_system(layout.flexray(), options, counters, external_task_jitter,
                        dyn_message_caps, cache);
}

}  // namespace

Expected<std::vector<ClusterLayout>> build_system_layouts(const SystemModel& model,
                                                          const BusParams& params,
                                                          const SystemConfig& config) {
  if (config.cluster_count() != model.cluster_count()) {
    return make_error("system config has " + std::to_string(config.cluster_count()) +
                      " cluster configs, the system model has " +
                      std::to_string(model.cluster_count()) + " clusters");
  }
  std::vector<ClusterLayout> layouts;
  layouts.reserve(model.cluster_count());
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    const Application& app = *model.cluster_app(c);
    const ClusterBackendKind declared = app.cluster_backend(ClusterId{0});
    if (config.clusters[c].kind != declared) {
      return make_error("cluster " + std::to_string(c) + ": config backend '" +
                        to_string(config.clusters[c].kind) +
                        "' does not match the cluster's declared backend '" +
                        to_string(declared) + "'");
    }
    auto layout = ClusterLayout::build(app, params, config.clusters[c]);
    if (!layout.ok()) {
      return make_error("cluster " + std::to_string(c) + ": " + layout.error().message);
    }
    layouts.push_back(std::move(layout).value());
  }
  return layouts;
}

Expected<MulticlusterResult> analyze_multicluster(
    const SystemModel& model, std::span<const ClusterLayout> layouts,
    const AnalysisOptions& options, std::span<AnalysisComponentCache* const> caches,
    AnalysisWorkCounters* counters, std::span<const std::vector<Time>> dyn_message_caps) {
  const std::size_t C = model.cluster_count();
  if (caches.empty() && C > 0) {
    std::vector<AnalysisComponentCache> call_local(C);
    std::vector<AnalysisComponentCache*> call_local_ptrs(C);
    for (std::size_t c = 0; c < C; ++c) call_local_ptrs[c] = &call_local[c];
    return analyze_multicluster(model, layouts, options, call_local_ptrs, counters,
                                dyn_message_caps);
  }
  // Exact mode dispatches to the schedule-space backend, which re-enters
  // this function with mode == Holistic (and, on the second pass, with the
  // explored caps) — the caps.empty() guard keeps the re-entry direct.
  if (options.mode == AnalysisMode::Exact && dyn_message_caps.empty()) {
    return detail::analyze_multicluster_exact(model, layouts, options, caches, counters);
  }
  if (layouts.size() != C) {
    return make_error("analyze_multicluster: layout count does not match cluster count");
  }
  auto cache_of = [&](std::size_t c) -> AnalysisComponentCache* {
    return c < caches.size() ? caches[c] : nullptr;
  };
  auto caps_of = [&](std::size_t c) -> std::span<const Time> {
    return c < dyn_message_caps.size() ? std::span<const Time>(dyn_message_caps[c])
                                       : std::span<const Time>{};
  };

  MulticlusterResult result;
  result.clusters.resize(C);

  // Injected release-jitter floors, indexed [cluster][local TaskId]; only
  // forwarding relays ever get a non-zero entry.
  std::vector<std::vector<Time>> external(C);
  for (std::size_t c = 0; c < C; ++c) {
    external[c].assign(model.cluster_app(c)->task_count(), 0);
  }

  bool stable = false;
  for (int iter = 0; iter < kMaxCrossIterations && !stable; ++iter) {
    ++result.cross_iterations;
    for (std::size_t c = 0; c < C; ++c) {
      auto analysis = analyze_one(layouts[c], options, cache_of(c), counters, external[c],
                                  caps_of(c));
      if (!analysis.ok()) {
        return make_error("cluster " + std::to_string(c) + ": " + analysis.error().message);
      }
      result.clusters[c] = std::move(analysis).value();
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
  return result;
}

}  // namespace flexopt
