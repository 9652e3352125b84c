#include "flexopt/core/dyn_search.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/core/detail/batch_sweep.hpp"
#include "flexopt/core/detail/curve_fit_scan.hpp"
#include "flexopt/core/solve_types.hpp"

namespace flexopt {
namespace {

/// Candidate lengths on the curve-fit scan's grid; the stride in minislots
/// follows from the searched span.
constexpr int kCurveFitCandidates = 128;

int auto_stride(int span, int max_points) {
  return std::max(1, span / std::max(1, max_points - 1));
}

}  // namespace

DynSearchResult ExhaustiveDynSearch::search(CostEvaluator& evaluator, const BusConfig& base,
                                            int dyn_min, int dyn_max, SolveControl* control) {
  DynSearchResult best;
  const int stride = auto_stride(dyn_max - dyn_min, options_.max_sweep_points);

  auto note = [&](int minislots, const CostEvaluator::Evaluation& eval) {
    if (eval.valid && eval.cost.value < best.cost.value) {
      best.cost = eval.cost;
      best.minislots = minislots;
      best.exact = true;
      if (control != nullptr) control->note_best(best.cost);
    }
  };

  if (evaluator.worker_threads() <= 1) {
    // One worker: sweep one candidate at a time, polling `control` before
    // each.  Costs and evaluations match the batched sweep; the progress
    // ticks are per candidate, which portfolio members' improvement stamps
    // rely on.
    for (int minislots = dyn_min; minislots <= dyn_max; minislots += stride) {
      if (control != nullptr && control->should_stop(evaluator)) break;
      BusConfig candidate = base;
      candidate.minislot_count = minislots;
      note(minislots, evaluator.evaluate_in_slot(candidate));
    }
    return best;
  }

  detail::batched_minislot_sweep(evaluator, base, dyn_min, dyn_max, stride, control,
                                 [&](int minislots, const CostEvaluator::Evaluation& eval) {
                                   note(minislots, eval);
                                 });
  return best;
}

DynSearchResult CurveFitDynSearch::search(CostEvaluator& evaluator, const BusConfig& base,
                                          int dyn_min, int dyn_max, SolveControl* control) {
  const Application& app = evaluator.application();
  const std::size_t n_tasks = app.task_count();
  const std::size_t n_msgs = app.message_count();

  // Effective deadlines of every activity, tasks then messages.
  std::vector<Time> deadlines;
  deadlines.reserve(n_tasks + n_msgs);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    deadlines.push_back(app.effective_deadline(ActivityRef::task(static_cast<TaskId>(t))));
  }
  for (std::size_t m = 0; m < n_msgs; ++m) {
    deadlines.push_back(
        app.effective_deadline(ActivityRef::message(static_cast<MessageId>(m))));
  }

  // Fig. 8 scans a fixed candidate grid; the stride only needs the span.
  const int span = dyn_max - dyn_min;
  const int stride = auto_stride(span, kCurveFitCandidates);
  std::vector<int> grid;
  for (int x = dyn_min; x <= dyn_max; x += stride) grid.push_back(x);

  // The interpolated cost of every un-analysed candidate, refreshed once
  // per point-set growth so lines 6-11 and 18-19 of one iteration share it.
  detail::CurveFitScan scan(std::move(grid), deadlines);

  // Fig. 8's set `Points`: the exact cost of every fully analysed length.
  std::map<int, Cost> points;
  // Completion bounds are fitted in microseconds; unbounded completions are
  // mapped to the same 10x-deadline magnitude the cost function charges, so
  // interpolated costs rank configurations consistently with exact ones.
  std::vector<double> completions_us(n_tasks + n_msgs);
  auto completion_to_us = [&](std::size_t activity, Time completion) {
    if (!is_infinite(completion)) return to_us(completion);
    return to_us(deadlines[activity]) * kUnboundedPenaltyFactor;
  };

  auto analyse_point = [&](int minislots) -> const Cost* {
    if (const auto it = points.find(minislots); it != points.end()) return &it->second;
    BusConfig candidate = base;
    candidate.minislot_count = minislots;
    const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(candidate);
    if (!eval.valid) return nullptr;
    for (std::size_t t = 0; t < n_tasks; ++t) {
      completions_us[t] = completion_to_us(t, eval.analysis.task_completion[t]);
    }
    for (std::size_t m = 0; m < n_msgs; ++m) {
      completions_us[n_tasks + m] =
          completion_to_us(n_tasks + m, eval.analysis.message_completion[m]);
    }
    scan.add_point(minislots, completions_us);
    return &points.emplace(minislots, eval.cost).first->second;
  };

  // Fig. 8 line 1: initial point set including both endpoints.  Spacing is
  // geometric: response times react strongest at short segment lengths
  // (BusCycles filling) and only linearly at long ones (gdCycle growth), so
  // a log grid resolves the interesting left side — the paper's own Fig. 7
  // samples the x axis with geometrically growing steps.
  const int k = std::max(2, options_.initial_points);
  const auto stop_requested = [&]() {
    return control != nullptr && control->should_stop(evaluator);
  };
  if (dyn_min > 0 && dyn_max > dyn_min) {
    const double ratio = static_cast<double>(dyn_max) / static_cast<double>(dyn_min);
    for (int i = 0; i < k && !stop_requested(); ++i) {
      const double x = dyn_min * std::pow(ratio, static_cast<double>(i) / (k - 1));
      analyse_point(std::clamp(static_cast<int>(std::lround(x)), dyn_min, dyn_max));
    }
  } else {
    for (int i = 0; i < k && !stop_requested(); ++i) {
      const int x = dyn_min + static_cast<int>(
                                  static_cast<std::int64_t>(span) * i / std::max(1, k - 1));
      analyse_point(x);
    }
  }
  if (points.empty()) return {};  // every initial candidate invalid

  DynSearchResult best_exact;
  auto note_exact = [&](int x, const Cost& cost) {
    if (cost.value < best_exact.cost.value) {
      best_exact.cost = cost;
      best_exact.minislots = x;
      best_exact.exact = true;
      if (control != nullptr) control->note_best(cost);
    }
  };
  for (const auto& [x, cost] : points) note_exact(x, cost);

  int stale_iterations = 0;
  while (stale_iterations < options_.n_max && !stop_requested()) {
    const double previous_best = best_exact.cost.value;

    // Fig. 8 lines 6-11: scan all candidates, interpolating where needed,
    // and select the minimum-cost one.
    scan.refresh();
    const std::vector<int>& candidates = scan.grid();
    int best_x = dyn_min;
    double best_cost_value = kInvalidConfigCost;
    bool best_is_exact = false;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const bool exact = scan.analysed(c);
      const double value = exact ? points.at(candidates[c]).value : scan.grid_cost(c);
      if (value < best_cost_value) {
        best_cost_value = value;
        best_x = candidates[c];
        best_is_exact = exact;
      }
    }

    if (best_is_exact && points.at(best_x).schedulable) {
      // Line 12: schedulable and exact — done.
      return DynSearchResult{best_x, points.at(best_x), true};
    }
    if (!best_is_exact && best_cost_value <= 0.0) {
      // Lines 13-15: schedulable according to the interpolation — verify.
      const Cost* cost = analyse_point(best_x);
      if (cost != nullptr) {
        note_exact(best_x, *cost);
        if (cost->schedulable) return DynSearchResult{best_x, *cost, true};
      }
      // Not actually schedulable: the new exact point sharpens the fit.
    } else if (!best_is_exact) {
      // Line 17: unschedulable everywhere; refine at the most promising
      // un-analysed candidate.
      const Cost* cost = analyse_point(best_x);
      if (cost != nullptr) note_exact(best_x, *cost);
    } else {
      // Lines 18-19: best candidate already analysed and unschedulable;
      // add the best *interpolated* point instead to gain information (the
      // point set has not grown since the scan above).
      int next_x = -1;
      double next_cost = kInvalidConfigCost;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (scan.analysed(c)) continue;
        if (scan.grid_cost(c) < next_cost) {
          next_cost = scan.grid_cost(c);
          next_x = candidates[c];
        }
      }
      if (next_x < 0) break;  // grid exhausted
      const Cost* cost = analyse_point(next_x);
      if (cost != nullptr) note_exact(next_x, *cost);
    }

    if (best_exact.cost.schedulable) {
      return best_exact;  // a refinement step found a schedulable point
    }
    stale_iterations = best_exact.cost.value < previous_best ? 0 : stale_iterations + 1;
  }

  return best_exact;  // Nmax exceeded: report the best (infeasible) point
}

}  // namespace flexopt
