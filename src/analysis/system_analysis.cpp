#include "flexopt/analysis/system_analysis.hpp"

#include <algorithm>
#include <string>

#include "engine.hpp"
#include "flexopt/math/hyperperiod.hpp"

namespace flexopt {

Expected<Time> analysis_horizon(const Application& app) {
  const auto hp_result = app.hyperperiod();
  if (!hp_result.ok()) return hp_result.error();
  const Time H = hp_result.value();

  Time max_deadline = 0;
  for (const auto& g : app.graphs()) max_deadline = std::max(max_deadline, g.deadline);
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    max_deadline = std::max(max_deadline,
                            app.effective_deadline(ActivityRef::task(static_cast<TaskId>(t))));
  }
  const auto horizon = checked_mul(std::max(H, max_deadline), kHorizonFactor);
  if (!horizon.ok()) {
    return make_error("hyper-period " + std::to_string(H) +
                      " ns is too long to analyse: the response horizon, " +
                      std::to_string(kHorizonFactor) + " x max(hyper-period, max deadline " +
                      std::to_string(max_deadline) + " ns), overflows 64-bit nanoseconds");
  }
  return horizon.value();
}

Expected<AnalysisResult> analyze_system(const BusLayout& layout, const AnalysisOptions& options,
                                        AnalysisWorkCounters* counters,
                                        std::span<const Time> external_task_jitter,
                                        std::span<const Time> dyn_message_caps) {
  if (options.mode == AnalysisMode::Exact) {
    return make_error("analyze_system runs the holistic analysis only; exact mode runs through "
                      "analyze_multicluster");
  }
  AnalysisComponentCache cache;
  AnalysisArena arena;
  AnalysisResult result;
  const auto status = analyze_system_into(layout, options, cache, arena, result, counters,
                                          external_task_jitter, dyn_message_caps);
  if (!status.ok()) return status.error();
  return result;
}

}  // namespace flexopt
