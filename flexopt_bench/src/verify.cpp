#include "verify.hpp"

#include <optional>
#include <vector>

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/netsim/netsim.hpp"

namespace flexbench {

using namespace flexopt;

namespace {

double us_since(Clock::time_point start) { return seconds_since(start) * 1e6; }

}  // namespace

VerifyResult verify_system(const SystemModel& model, const BusParams& params,
                           const SystemConfig& config, const ExactOptions* exact, Tracer* tracer,
                           std::int64_t scenario) {
  VerifyResult r;
  const auto started = Clock::now();
  Tracer::Span root(tracer, "bench", "verify", scenario);

  auto t0 = Clock::now();
  auto layouts = [&] {
    Tracer::Span span(tracer, "analysis", "analysis.build_system_layouts", scenario);
    return build_system_layouts(model, params, config);
  }();
  r.layout_us = us_since(t0);
  if (!layouts.ok()) {
    r.error = "layouts: " + layouts.error().message;
    return r;
  }

  t0 = Clock::now();
  auto holistic = [&] {
    Tracer::Span span(tracer, "analysis", "analysis.analyze_multicluster.holistic", scenario);
    return analyze_multicluster(model, layouts.value(), AnalysisOptions{});
  }();
  r.holistic_us = us_since(t0);
  if (!holistic.ok()) {
    r.error = "holistic analysis: " + holistic.error().message;
    return r;
  }
  r.cross_iterations = holistic.value().cross_iterations;

  std::optional<MulticlusterResult> exact_result;
  if (exact != nullptr) {
    AnalysisOptions options;
    options.mode = AnalysisMode::Exact;
    options.exact = *exact;
    t0 = Clock::now();
    auto refined = [&] {
      Tracer::Span span(tracer, "analysis", "analysis.analyze_multicluster.exact", scenario);
      return analyze_multicluster(model, layouts.value(), options);
    }();
    r.exact_us = us_since(t0);
    if (!refined.ok()) {
      r.error = "exact analysis: " + refined.error().message;
      return r;
    }
    std::vector<const Application*> apps;
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      apps.push_back(model.cluster_app(c).get());
    }
    const PessimismReport pessimism = [&] {
      Tracer::Span span(tracer, "analysis", "analysis.make_pessimism_report", scenario);
      return make_pessimism_report(apps, refined.value().clusters);
    }();
    exact_result = std::move(refined).value();
    r.exact_states = pessimism.explored_states;
    r.exact_merged = pessimism.merged_states;
    r.clusters = pessimism.cluster_fallbacks.size();
    for (const ExactFallback fallback : pessimism.cluster_fallbacks) {
      if (fallback != ExactFallback::None) ++r.fallback_clusters;
    }
    for (const PessimismActivity& entry : pessimism.entries) {
      if (entry.exact > entry.holistic) {
        r.error = "exact bound above holistic (cluster " + std::to_string(entry.cluster) + ")";
        return r;
      }
      if (entry.holistic == kTimeInfinity || entry.holistic <= 0) continue;
      r.gap_sum += static_cast<double>(entry.holistic - entry.exact) /
                   static_cast<double>(entry.holistic);
      ++r.gap_activities;
    }
  }

  const MulticlusterResult& bounds = exact != nullptr ? *exact_result : holistic.value();
  t0 = Clock::now();
  auto sim = [&] {
    Tracer::Span span(tracer, "netsim", "netsim.simulate_network", scenario);
    return simulate_network(model, layouts.value(), bounds);
  }();
  r.simulate_ms = seconds_since(t0) * 1e3;
  if (!sim.ok()) {
    r.error = "simulation: " + sim.error().message;
    return r;
  }
  r.events = sim.value().events;
  t0 = Clock::now();
  const SoundnessReport verdict = [&] {
    Tracer::Span span(tracer, "netsim", "netsim.check_soundness", scenario);
    return check_soundness(model, bounds, sim.value());
  }();
  r.soundness_us = us_since(t0);
  if (!verdict.sound || sim.value().precedence_violations != 0) {
    r.error = "observed completion above its bound (" +
              std::to_string(verdict.violations.size()) + " violations, " +
              std::to_string(sim.value().precedence_violations) + " precedence)";
    return r;
  }

  r.record = {bounds.cost.value, bounds.cost.schedulable,
              static_cast<long>(exact != nullptr ? r.exact_states : r.events)};
  r.total_ms = seconds_since(started) * 1e3;
  return r;
}

}  // namespace flexbench
