#include "flexopt/core/dyn_search.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/core/delta_move.hpp"
#include "flexopt/core/detail/batch_sweep.hpp"
#include "flexopt/core/solve_types.hpp"
#include "flexopt/math/interpolation.hpp"

namespace flexopt {
namespace {

int auto_stride(int span, int max_points) {
  return std::max(1, span / std::max(1, max_points - 1));
}

/// Evaluates `candidate` as a DeltaMove off the previously analysed
/// configuration, advancing the chain on success.  The shared inner-sweep
/// primitive of both DYN strategies' delta paths.
CostEvaluator::Evaluation evaluate_chained(CostEvaluator& evaluator,
                                           std::optional<BusConfig>& chain_base,
                                           const BusConfig& candidate) {
  CostEvaluator::Evaluation eval;
  if (chain_base.has_value()) {
    eval = evaluator.evaluate_delta(*chain_base, DeltaMove::between(*chain_base, candidate));
  } else {
    eval = evaluator.evaluate(candidate);
  }
  if (eval.valid) chain_base = candidate;
  return eval;
}

}  // namespace

DynSearchResult ExhaustiveDynSearch::search(CostEvaluator& evaluator, const BusConfig& base,
                                            int dyn_min, int dyn_max, SolveControl* control,
                                            const BusConfig* warm_base) {
  DynSearchResult best;
  const int stride = options_.stride_minislots > 0
                         ? options_.stride_minislots
                         : auto_stride(dyn_max - dyn_min, options_.max_sweep_points);

  auto note = [&](int minislots, const CostEvaluator::Evaluation& eval) {
    if (eval.valid && eval.cost.value < best.cost.value) {
      best.cost = eval.cost;
      best.minislots = minislots;
      best.exact = true;
      if (control != nullptr) control->note_best(best.cost);
    }
  };

  if (options_.use_delta_evaluation && evaluator.worker_threads() <= 1) {
    // No pool to fan candidates across: sweep sequentially, each point a
    // DeltaMove off the previous one (only the DYN-dependent components
    // are recomputed; results match the batched sweep bit for bit).
    std::optional<BusConfig> chain_base;
    if (warm_base != nullptr) chain_base = *warm_base;
    for (int minislots = dyn_min; minislots <= dyn_max; minislots += stride) {
      if (control != nullptr && control->should_stop(evaluator)) break;
      BusConfig candidate = base;
      candidate.minislot_count = minislots;
      note(minislots, evaluate_chained(evaluator, chain_base, candidate));
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
                                          int dyn_min, int dyn_max, SolveControl* control,
                                          const BusConfig* warm_base) {
  const Application& app = evaluator.application();

  // Completion bounds are fitted in microseconds; unbounded completions are
  // mapped to the same 10x-deadline magnitude the cost function charges, so
  // interpolated costs rank configurations consistently with exact ones.
  const std::size_t n_tasks = app.task_count();
  const std::size_t n_msgs = app.message_count();
  auto completion_to_us = [&](ActivityRef a, Time completion) {
    if (!is_infinite(completion)) return to_us(completion);
    return to_us(app.effective_deadline(a)) * kUnboundedPenaltyFactor;
  };

  /// One fully analysed point (Fig. 8, set `Points`).
  struct PointData {
    Cost cost;
    std::vector<double> completions_us;  // tasks then messages
  };
  std::map<int, PointData> points;

  // Fig. 8's points are analysed one at a time: chain each off the
  // previous one so only the DYN-dependent components are recomputed.
  std::optional<BusConfig> chain_base;
  if (options_.use_delta_evaluation && warm_base != nullptr) chain_base = *warm_base;

  auto analyse_point = [&](int minislots) -> const PointData* {
    if (const auto it = points.find(minislots); it != points.end()) return &it->second;
    BusConfig candidate = base;
    candidate.minislot_count = minislots;
    const auto eval = options_.use_delta_evaluation
                          ? evaluate_chained(evaluator, chain_base, candidate)
                          : evaluator.evaluate(candidate);
    if (!eval.valid) return nullptr;
    PointData data;
    data.cost = eval.cost;
    data.completions_us.reserve(n_tasks + n_msgs);
    for (std::size_t t = 0; t < n_tasks; ++t) {
      data.completions_us.push_back(completion_to_us(
          ActivityRef::task(static_cast<TaskId>(t)), eval.analysis.task_completion[t]));
    }
    for (std::size_t m = 0; m < n_msgs; ++m) {
      data.completions_us.push_back(
          completion_to_us(ActivityRef::message(static_cast<MessageId>(m)),
                           eval.analysis.message_completion[m]));
    }
    return &points.emplace(minislots, std::move(data)).first->second;
  };

  // Fig. 8 scans a fixed candidate grid; the stride only needs the span.
  const int span = dyn_max - dyn_min;
  const int stride = options_.stride_minislots > 0
                         ? options_.stride_minislots
                         : auto_stride(span, options_.max_candidates);
  std::vector<int> grid;
  for (int x = dyn_min; x <= dyn_max; x += stride) grid.push_back(x);

  // Interpolated cost at `minislots` from per-activity Newton fits.
  // Activities whose completion bound does not vary across the analysed
  // points (the common case for most tasks) are short-circuited to a
  // constant, which keeps the per-candidate evaluation cheap.
  std::size_t curves_built_from = 0;
  std::vector<ResponseTimeCurve> curves;
  std::vector<bool> is_constant;
  std::vector<double> constant_us;
  std::vector<Time> task_c(n_tasks);
  std::vector<Time> msg_c(n_msgs);
  auto interpolated_cost = [&](int minislots) -> Cost {
    auto value_at = [&](std::size_t i) {
      const double us =
          is_constant[i] ? constant_us[i] : curves[i].evaluate(static_cast<double>(minislots));
      return static_cast<Time>(std::llround(us * 1e3));
    };
    for (std::size_t t = 0; t < n_tasks; ++t) task_c[t] = value_at(t);
    for (std::size_t m = 0; m < n_msgs; ++m) msg_c[m] = value_at(n_tasks + m);
    return evaluate_cost(app, task_c, msg_c);
  };

  // grid_cost[c] memoises interpolated_cost(grid[c]) for every un-analysed
  // candidate; curves and memo are refreshed whenever the point set grows,
  // so lines 6-11 and 18-19 of one iteration share one evaluation each.
  std::vector<double> grid_cost;
  auto refresh_interpolation = [&]() {
    if (curves_built_from == points.size()) return;
    const std::size_t n = n_tasks + n_msgs;
    curves.resize(n);
    for (ResponseTimeCurve& curve : curves) curve.clear();
    is_constant.assign(n, true);
    constant_us.assign(n, 0.0);
    bool first = true;
    for (const auto& [x, data] : points) {
      for (std::size_t i = 0; i < n; ++i) {
        if (first) {
          constant_us[i] = data.completions_us[i];
        } else if (data.completions_us[i] != constant_us[i]) {
          is_constant[i] = false;
        }
      }
      first = false;
    }
    for (const auto& [x, data] : points) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!is_constant[i]) {
          (void)curves[i].add_point(static_cast<double>(x), data.completions_us[i]);
        }
      }
    }
    curves_built_from = points.size();
    grid_cost.resize(grid.size());
    for (std::size_t c = 0; c < grid.size(); ++c) {
      if (!points.contains(grid[c])) grid_cost[c] = interpolated_cost(grid[c]).value;
    }
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
  for (const auto& [x, data] : points) note_exact(x, data.cost);

  int stale_iterations = 0;
  while (stale_iterations < options_.n_max && !stop_requested()) {
    const double previous_best = best_exact.cost.value;

    // Fig. 8 lines 6-11: scan all candidates, interpolating where needed,
    // and select the minimum-cost one.
    refresh_interpolation();
    int best_x = dyn_min;
    double best_cost_value = kInvalidConfigCost;
    bool best_is_exact = false;
    for (std::size_t c = 0; c < grid.size(); ++c) {
      const int x = grid[c];
      const auto it = points.find(x);
      const double value = it != points.end() ? it->second.cost.value : grid_cost[c];
      if (value < best_cost_value) {
        best_cost_value = value;
        best_x = x;
        best_is_exact = it != points.end();
      }
    }

    if (best_is_exact && points.at(best_x).cost.schedulable) {
      // Line 12: schedulable and exact — done.
      return DynSearchResult{best_x, points.at(best_x).cost, true};
    }
    if (!best_is_exact && best_cost_value <= 0.0) {
      // Lines 13-15: schedulable according to the interpolation — verify.
      const PointData* data = analyse_point(best_x);
      if (data != nullptr) {
        note_exact(best_x, data->cost);
        if (data->cost.schedulable) return DynSearchResult{best_x, data->cost, true};
      }
      // Not actually schedulable: the new exact point sharpens the fit.
    } else if (!best_is_exact) {
      // Line 17: unschedulable everywhere; refine at the most promising
      // un-analysed candidate.
      const PointData* data = analyse_point(best_x);
      if (data != nullptr) note_exact(best_x, data->cost);
    } else {
      // Lines 18-19: best candidate already analysed and unschedulable;
      // add the best *interpolated* point instead to gain information (the
      // point set has not grown since the scan above).
      int next_x = -1;
      double next_cost = kInvalidConfigCost;
      for (std::size_t c = 0; c < grid.size(); ++c) {
        const int x = grid[c];
        if (points.contains(x)) continue;
        if (grid_cost[c] < next_cost) {
          next_cost = grid_cost[c];
          next_x = x;
        }
      }
      if (next_x < 0) break;  // grid exhausted
      const PointData* data = analyse_point(next_x);
      if (data != nullptr) note_exact(next_x, data->cost);
    }

    if (best_exact.cost.schedulable) {
      return best_exact;  // a refinement step found a schedulable point
    }
    stale_iterations = best_exact.cost.value < previous_best ? 0 : stale_iterations + 1;
  }

  return best_exact;  // Nmax exceeded: report the best (infeasible) point
}

}  // namespace flexopt
