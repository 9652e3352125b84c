#pragma once

// Test-only reference oracle for the holistic analysis (Section 5): the
// fixed point in its plain Jacobi form.  Every sweep first recomputes the
// jitter of every ET activity from the previous sweep's completions, then
// every FPS response time (node by node), then every DYN response time, and
// stops when a sweep changes nothing.  Nothing is cached and nothing is
// skipped.
//
// The production engine (analyze_system_into, private to the analysis
// module and reached through analyze_system) relaxes the same monotone
// iteration in Gauss-Seidel order and skips recurrences whose inputs did
// not move.  Both climb from
// the same cold start to the same least fixed point, so wherever neither
// trajectory stops an FPS or DYN recurrence at its iteration cap and this
// reference converges, the two agree bit for bit.  The carve-outs:
//  * the reference pins every ET completion to infinity when it needs more
//    than AnalysisOptions::max_holistic_iterations sweeps, where the
//    relaxation may converge;
//  * a recurrence can crawl into its cap on one trajectory and converge on
//    the other, because the two visit different intermediate jitters: the
//    capped side reports that activity (and what depends on it) unbounded.
//    This binds in both directions on fig9 systems.

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/flexray/bus_layout.hpp"

namespace flexopt::testing {

/// Fixed-point evaluations after which the FPS and DYN recurrences give up
/// (kFpsMaxIterations, and iterate_to_fixed_point's default for DYN).
inline constexpr int kRecurrenceCap = 10'000;

struct JacobiReference {
  AnalysisResult result;
  /// Some FPS or DYN recurrence used all kRecurrenceCap evaluations: it
  /// stopped at the cap (or converged on the very last evaluation).
  bool recurrence_capped = false;
};

/// The Jacobi holistic fixed point of `layout`, with analyze_system's
/// `external_task_jitter` and `dyn_message_caps` hooks.  Holistic only.
inline Expected<JacobiReference> jacobi_reference(const BusLayout& layout,
                                                  const AnalysisOptions& options = {},
                                                  std::span<const Time> external_task_jitter = {},
                                                  std::span<const Time> dyn_message_caps = {}) {
  const Application& app = layout.application();
  const auto horizon_result = analysis_horizon(app);
  if (!horizon_result.ok()) return horizon_result.error();
  const Time horizon = horizon_result.value();

  auto schedule_result = build_static_schedule(layout, options.scheduler);
  if (!schedule_result.ok()) return schedule_result.error();

  JacobiReference out;
  AnalysisResult& result = out.result;
  result.schedule_ptr = std::make_shared<const StaticSchedule>(std::move(schedule_result).value());
  const StaticSchedule& schedule = *result.schedule_ptr;
  // ET completions start at 0: the iteration is monotone from below.
  result.task_completion.assign(app.task_count(), 0);
  result.message_completion.assign(app.message_count(), 0);
  result.task_jitter.assign(app.task_count(), 0);
  result.message_jitter.assign(app.message_count(), 0);

  // TT activities: completions come straight from the table and never move.
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    if (app.tasks()[t].policy == TaskPolicy::Scs) {
      result.task_completion[t] = schedule.task_wcrt(static_cast<TaskId>(t));
    }
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Static) {
      result.message_completion[m] = schedule.message_wcrt(static_cast<MessageId>(m));
    }
  }

  auto completion_of = [&](ActivityRef a) {
    return a.is_task() ? result.task_completion[a.index] : result.message_completion[a.index];
  };

  // FPS task parameter sets per node, refreshed each sweep with fresh
  // jitters.
  std::vector<std::vector<FpsTaskParams>> fps_on_node(app.node_count());
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    const Task& task = app.tasks()[t];
    if (task.policy != TaskPolicy::Fps) continue;
    fps_on_node[index_of(task.node)].push_back(FpsTaskParams{
        static_cast<TaskId>(t), task.wcet, app.graph(task.graph).period, 0, task.priority});
  }

  bool converged = false;
  for (int iter = 0; iter < options.max_holistic_iterations && !converged; ++iter) {
    bool changed = false;

    // 1. Jitters of ET activities from predecessor completions.
    for (const ActivityRef a : app.topological_order()) {
      const bool is_et = a.is_task() ? app.task(a.as_task()).policy == TaskPolicy::Fps
                                     : app.message(a.as_message()).cls == MessageClass::Dynamic;
      if (!is_et) continue;
      Time jitter = a.is_task() ? app.task(a.as_task()).release_offset : 0;
      if (a.is_task() && a.index < external_task_jitter.size()) {
        const Time ext = external_task_jitter[a.index];
        jitter = is_infinite(ext) || is_infinite(jitter) ? kTimeInfinity : std::max(jitter, ext);
      }
      for (const ActivityRef p : app.predecessors(a)) {
        const Time pc = completion_of(p);
        jitter = is_infinite(pc) || is_infinite(jitter) ? kTimeInfinity : std::max(jitter, pc);
      }
      auto& slot = a.is_task() ? result.task_jitter[a.index] : result.message_jitter[a.index];
      if (slot != jitter) {
        slot = jitter;
        changed = true;
      }
    }

    // 2. FPS task response times per node.
    for (std::size_t n = 0; n < app.node_count(); ++n) {
      auto& params = fps_on_node[n];
      for (auto& p : params) p.jitter = result.task_jitter[index_of(p.id)];
      const BusyProfile& profile = schedule.node_profile(n);
      for (const auto& p : params) {
        int iterations = 0;
        const Time r = fps_response_time(p, params, profile, horizon, &iterations);
        out.recurrence_capped = out.recurrence_capped || iterations >= kRecurrenceCap;
        if (result.task_completion[index_of(p.id)] != r) {
          result.task_completion[index_of(p.id)] = r;
          changed = true;
        }
      }
    }

    // 3. DYN message response times on the bus.
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls != MessageClass::Dynamic) continue;
      int iterations = 0;
      const DynResponse r = dyn_response_time(layout, static_cast<MessageId>(m),
                                              result.message_jitter, horizon, options.dyn_bound,
                                              &iterations);
      out.recurrence_capped = out.recurrence_capped || iterations >= kRecurrenceCap;
      Time response = r.response;
      if (m < dyn_message_caps.size()) response = std::min(response, dyn_message_caps[m]);
      if (result.message_completion[m] != response) {
        result.message_completion[m] = response;
        changed = true;
      }
    }
    converged = !changed;
  }

  result.converged = converged;
  if (!converged) {
    // A non-stabilised monotone value is not a safe upper bound: pin every
    // ET completion to "unbounded".
    for (std::uint32_t t = 0; t < app.task_count(); ++t) {
      if (app.tasks()[t].policy == TaskPolicy::Fps) result.task_completion[t] = kTimeInfinity;
    }
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls == MessageClass::Dynamic) {
        result.message_completion[m] = kTimeInfinity;
      }
    }
  }
  result.cost = evaluate_cost(app, result.task_completion, result.message_completion);
  return out;
}

}  // namespace flexopt::testing
