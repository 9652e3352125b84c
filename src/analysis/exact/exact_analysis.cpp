#include "flexopt/analysis/exact/exact_analysis.hpp"

#include <algorithm>
#include <utility>

#include "exact_dispatch.hpp"
#include "flexopt/analysis/incremental.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/analysis/exact/schedule_space.hpp"
#include "flexopt/flexray/bus_layout.hpp"

namespace flexopt {
namespace {

bool has_dyn_messages(const Application& app) {
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Dynamic) return true;
  }
  return false;
}

bool has_unbounded_dyn_jitter(const Application& app, std::span<const Time> message_jitter) {
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls != MessageClass::Dynamic) continue;
    if (m >= message_jitter.size() || is_infinite(message_jitter[m])) return true;
  }
  return false;
}

/// Clamps a refined cluster result to the holistic reference bounds (the
/// minimum of two sound bounds is sound), counts the strict refinements,
/// and recomputes the cluster-local cost over the clamped completions.
void clamp_to_holistic(const Application& app, AnalysisResult& refined,
                       ExactClusterInfo& info) {
  for (std::size_t t = 0; t < refined.task_completion.size(); ++t) {
    refined.task_completion[t] =
        std::min(refined.task_completion[t], info.holistic_task_completion[t]);
  }
  for (std::size_t m = 0; m < refined.message_completion.size(); ++m) {
    refined.message_completion[m] =
        std::min(refined.message_completion[m], info.holistic_message_completion[m]);
    if (refined.message_completion[m] < info.holistic_message_completion[m]) {
      ++info.refined_messages;
    }
  }
  refined.cost = evaluate_cost(app, refined.task_completion, refined.message_completion);
}

/// Runs the exploration preconditions and, when they hold, the exploration
/// itself — through `cache`'s exact-space store (a hit replays the stored
/// frontier outcome verbatim, bit-identical to a cold run); returns the
/// caps to feed the re-run (empty on fallback) and records the outcome in
/// `info`.  `converged` is the system-wide holistic fixed point's verdict.
std::vector<Time> explore_cluster(const BusLayout& layout, const AnalysisResult& holistic,
                                  bool converged, const AnalysisOptions& options,
                                  ExactClusterInfo& info, AnalysisComponentCache& cache,
                                  AnalysisWorkCounters* counters) {
  const Application& app = layout.application();
  // Validated at entry: a zero budget must be a loud diagnostic, not a
  // silently converged empty exploration.
  if (options.exact.max_states == 0) {
    info.fallback = ExactFallback::InvalidOptions;
    return {};
  }
  if (!has_dyn_messages(app)) {
    info.fallback = ExactFallback::NoDynMessages;
    return {};
  }
  if (!converged) {
    info.fallback = ExactFallback::NotConverged;
    return {};
  }
  if (has_unbounded_dyn_jitter(app, holistic.message_jitter)) {
    info.fallback = ExactFallback::UnboundedJitter;
    return {};
  }
  const auto horizon = analysis_horizon(app);
  if (!horizon.ok()) {
    info.fallback = ExactFallback::NotConverged;
    return {};
  }
  const auto component = cache.schedule_space_for(layout, holistic.message_jitter, horizon.value(),
                                                   options.exact, counters);
  const ScheduleSpaceResult& space = component->space;
  info.explored_states = space.explored_states;
  info.merged_states = space.merged_states;
  info.transitions = space.transitions;
  info.walked_cycles = space.walked_cycles;
  info.fallback = space.fallback;
  if (space.fallback != ExactFallback::None) return {};
  return space.worst_completion;
}

}  // namespace

Expected<MulticlusterResult> detail::analyze_multicluster_exact(
    const SystemModel& model, std::span<const ClusterLayout> layouts,
    const AnalysisOptions& options, std::span<AnalysisComponentCache* const> caches,
    AnalysisWorkCounters* counters) {
  AnalysisOptions holistic_options = options;
  holistic_options.mode = AnalysisMode::Holistic;
  auto holistic = analyze_multicluster(model, layouts, holistic_options, caches, counters);
  if (!holistic.ok()) return holistic;
  MulticlusterResult base = std::move(holistic).value();

  const std::size_t C = model.cluster_count();
  std::vector<std::shared_ptr<ExactClusterInfo>> infos(C);
  std::vector<std::vector<Time>> caps(C);
  bool any_caps = false;
  for (std::size_t c = 0; c < C; ++c) {
    infos[c] = std::make_shared<ExactClusterInfo>();
    ExactClusterInfo& info = *infos[c];
    info.holistic_task_completion = base.clusters[c].task_completion;
    info.holistic_message_completion = base.clusters[c].message_completion;
    if (layouts[c].kind() != ClusterBackendKind::FlexRay) {
      info.fallback = ExactFallback::UnsupportedBackend;
      continue;
    }
    caps[c] = explore_cluster(layouts[c].flexray(), base.clusters[c], base.converged, options,
                              info, *caches[c], counters);
    any_caps = any_caps || info.fallback == ExactFallback::None;
  }

  auto attach = [&](MulticlusterResult& result) {
    for (std::size_t c = 0; c < C; ++c) result.clusters[c].exact = infos[c];
  };
  if (!any_caps) {
    attach(base);
    return base;
  }

  auto capped = analyze_multicluster(model, layouts, holistic_options, caches, counters, caps);
  if (!capped.ok()) return capped;
  MulticlusterResult refined = std::move(capped).value();
  if (!refined.converged) {
    for (std::size_t c = 0; c < C; ++c) {
      if (infos[c]->fallback == ExactFallback::None) {
        infos[c]->fallback = ExactFallback::NotConverged;
      }
    }
    attach(base);
    return base;
  }

  CostAccumulator acc;
  for (std::size_t c = 0; c < C; ++c) {
    const Application& app = *model.cluster_app(c);
    clamp_to_holistic(app, refined.clusters[c], *infos[c]);
    acc.add(app, refined.clusters[c].task_completion, refined.clusters[c].message_completion);
  }
  refined.cost = acc.finish();
  attach(refined);
  return refined;
}

PessimismReport make_pessimism_report(std::span<const Application* const> apps,
                                      std::span<const AnalysisResult> clusters) {
  PessimismReport report;
  double gap_sum = 0.0;
  std::size_t gap_count = 0;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const Application& app = *apps[c];
    const AnalysisResult& cluster = clusters[c];
    const ExactClusterInfo* info = cluster.exact.get();
    report.cluster_fallbacks.push_back(info != nullptr ? info->fallback
                                                       : ExactFallback::UnsupportedBackend);
    if (info == nullptr || info->fallback != ExactFallback::None) report.any_fallback = true;
    if (info != nullptr) {
      report.explored_states += info->explored_states;
      report.merged_states += info->merged_states;
      report.walked_cycles += info->walked_cycles;
    }
    auto add_entry = [&](bool is_task, std::uint32_t index, Time exact, Time holistic) {
      PessimismActivity entry;
      entry.cluster = c;
      entry.is_task = is_task;
      entry.index = index;
      entry.exact = exact;
      entry.holistic = holistic;
      ++report.activities;
      if (is_infinite(holistic)) {
        ++report.unbounded;
      } else if (holistic > 0) {
        const double gap =
            static_cast<double>(holistic - exact) / static_cast<double>(holistic);
        gap_sum += gap;
        ++gap_count;
        report.max_gap = std::max(report.max_gap, gap);
      }
      if (exact < holistic) ++report.refined;
      report.entries.push_back(entry);
    };
    for (std::uint32_t t = 0; t < app.task_count(); ++t) {
      if (app.tasks()[t].policy != TaskPolicy::Fps) continue;
      const Time holistic = info != nullptr && t < info->holistic_task_completion.size()
                                ? info->holistic_task_completion[t]
                                : cluster.task_completion[t];
      add_entry(true, t, cluster.task_completion[t], holistic);
    }
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls != MessageClass::Dynamic) continue;
      const Time holistic = info != nullptr && m < info->holistic_message_completion.size()
                                ? info->holistic_message_completion[m]
                                : cluster.message_completion[m];
      add_entry(false, m, cluster.message_completion[m], holistic);
    }
  }
  if (gap_count > 0) report.mean_gap = gap_sum / static_cast<double>(gap_count);
  return report;
}

}  // namespace flexopt
