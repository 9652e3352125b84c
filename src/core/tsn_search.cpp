#include "flexopt/core/tsn_search.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace flexopt {

namespace {

/// Enumerates the neighbourhood of `config` in a fixed order, handing each
/// candidate to `visit` until one is accepted (visit returns true) or the
/// neighbourhood is exhausted.  Returns whether a candidate was accepted —
/// the first-improvement restart signal.
template <typename Visit>
bool sweep_neighbourhood(const Application& app, const TsnConfig& config, Visit&& visit) {
  const std::size_t M = app.message_count();
  std::vector<Time> durations(M, 0);
  for (std::uint32_t m = 0; m < M; ++m) {
    durations[m] = tsn_frame_duration(app.messages()[m].size_bytes, config.link_rate_mbps);
  }

  // 1. Gate offset slides: one window length earlier / later, clamped to
  //    the cycle.  Moves a window off a congested port phase.
  for (std::uint32_t m = 0; m < M; ++m) {
    const TsnGateWindow gate = config.gates[m];
    if (gate.length <= 0) continue;  // ET message: no window to slide
    const Time max_offset = std::max<Time>(0, config.cycle - gate.length);
    for (const Time step : {-gate.length, gate.length}) {
      const Time offset = std::clamp<Time>(gate.offset + step, 0, max_offset);
      if (offset == gate.offset) continue;
      TsnConfig next = config;
      next.gates[m].offset = offset;
      if (visit(std::move(next))) return true;
    }
  }

  // 2. Gate lengths: shrink to the exact frame duration (returns closed
  //    time to the ET traffic), or grow by one duration (headroom for a
  //    jittered release), clamped to the cycle end.
  for (std::uint32_t m = 0; m < M; ++m) {
    const TsnGateWindow gate = config.gates[m];
    if (gate.length <= 0) continue;
    if (gate.length > durations[m]) {
      TsnConfig next = config;
      next.gates[m].length = durations[m];
      if (visit(std::move(next))) return true;
    }
    const Time grown =
        std::min<Time>(gate.length + durations[m], std::max<Time>(0, config.cycle - gate.offset));
    if (grown > gate.length) {
      TsnConfig next = config;
      next.gates[m].length = grown;
      if (visit(std::move(next))) return true;
    }
  }

  // 3. Adjacent ET priority swaps, in rank order — bubble steps through the
  //    strict-priority order, the TSN analogue of FrameID reassignment.
  std::vector<std::uint32_t> et;
  for (std::uint32_t m = 0; m < M; ++m) {
    if (app.messages()[m].cls == MessageClass::Dynamic) et.push_back(m);
  }
  std::sort(et.begin(), et.end(), [&config](std::uint32_t a, std::uint32_t b) {
    if (config.et_priority[a] != config.et_priority[b]) {
      return config.et_priority[a] < config.et_priority[b];
    }
    return a < b;
  });
  for (std::size_t i = 0; i + 1 < et.size(); ++i) {
    TsnConfig next = config;
    std::swap(next.et_priority[et[i]], next.et_priority[et[i + 1]]);
    if (visit(std::move(next))) return true;
  }
  return false;
}

}  // namespace

TsnSearchResult tsn_coordinate_descent(CostEvaluator& evaluator, const SystemConfig& base,
                                       int cluster, const SolveRequest& request) {
  TsnSearchResult result;
  if (cluster < 0 || static_cast<std::size_t>(cluster) >= base.cluster_count() ||
      base.clusters[static_cast<std::size_t>(cluster)].kind != ClusterBackendKind::Tsn) {
    return result;  // misuse: not a TSN cluster — nothing to search
  }
  const long evals_at_start = evaluator.evaluations();
  const Application& app =
      *evaluator.system_model().cluster_app(static_cast<std::size_t>(cluster));
  SystemConfig current = base;
  result.config = current.clusters[static_cast<std::size_t>(cluster)].tsn;

  SolveControl control(request, evaluator, "tsn-descent");
  const auto base_eval = evaluator.evaluate_system(current);
  if (base_eval.valid) {
    result.cost = base_eval.cost;
    control.note_best(base_eval.cost);
  }

  // Accept cap: a backstop against degenerate cost plateaus (each accept is
  // a strict improvement, so real descents terminate on their own).
  constexpr int kMaxAccepts = 256;
  int accepts = 0;
  bool accepted = true;
  while (accepted && accepts < kMaxAccepts && !control.should_stop(evaluator)) {
    accepted = sweep_neighbourhood(app, result.config, [&](TsnConfig next) {
      if (control.should_stop(evaluator)) return true;  // abort the sweep
      if (next == result.config) return false;
      SystemConfig candidate = current;
      candidate.clusters[static_cast<std::size_t>(cluster)] = ClusterConfig::tsn_switch(next);
      const auto eval = evaluator.evaluate_system(candidate);
      if (!eval.valid || eval.cost.value >= result.cost.value) return false;
      result.cost = eval.cost;
      result.config = std::move(next);
      current = std::move(candidate);
      result.improved = true;
      ++accepts;
      control.note_best(eval.cost);
      return true;
    });
  }
  control.mark_budget_exhausted_if_spent(evaluator);
  result.status = control.status();
  result.evaluations = evaluator.evaluations() - evals_at_start;
  return result;
}

}  // namespace flexopt
