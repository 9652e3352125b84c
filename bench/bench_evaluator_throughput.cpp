// Evaluator service bench — the seam the unified Solver API load-bears on:
// the CostEvaluator with its memoization cache and the evaluate_many()
// fan-out across parallel_for workers.  Sweeps the same candidate set (with the
// revisits a nested OBC/SA exploration produces) three ways and checks the
// costs are bit-identical:
//
//   serial/uncached   — the pre-registry behaviour: one full analysis per
//                       visit, one thread
//   serial/cached     — same thread count, revisits served from the cache
//   parallel/cached   — evaluate_many() on the evaluator's worker threads
//
// "analyses" counts full holistic analyses (the Fig. 9 work metric); the
// cached runs must produce identical costs with strictly fewer analyses.

#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  std::cout << "== Evaluator throughput: cache + evaluate_many vs serial ==\n";
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();

  // BBC-shaped base configuration; candidates sweep the DYN length twice
  // (the second pass models the revisits of a nested exploration).
  BusConfig base;
  base.frame_id = assign_frame_ids_by_criticality(app, params);
  const auto senders = st_sender_nodes(app);
  base.static_slot_count = static_cast<int>(senders.size());
  base.static_slot_len = min_static_slot_len(app, params);
  base.static_slot_owner = senders;
  const DynBounds bounds = dyn_segment_bounds(
      app, params, static_cast<Time>(base.static_slot_count) * base.static_slot_len);
  if (!bounds.feasible()) {
    std::cerr << "no feasible DYN bounds\n";
    return 1;
  }
  const int sweep = full_scale() ? 192 : 64;
  const int stride =
      std::max(1, (bounds.max_minislots - bounds.min_minislots) / std::max(1, sweep - 1));
  std::vector<BusConfig> candidates;
  for (int pass = 0; pass < 2; ++pass) {
    for (int ms = bounds.min_minislots; ms <= bounds.max_minislots; ms += stride) {
      candidates.push_back(base);
      candidates.back().minislot_count = ms;
    }
  }

  struct Run {
    const char* label;
    EvaluatorOptions options;
    bool parallel;
  };
  EvaluatorOptions serial_uncached{/*cache_enabled=*/false, /*max_cache_entries=*/0,
                                   /*threads=*/1};
  EvaluatorOptions serial_cached;
  serial_cached.threads = 1;
  EvaluatorOptions parallel_cached;  // defaults: cache on, hardware threads
  const std::vector<Run> runs{{"serial/uncached", serial_uncached, false},
                              {"serial/cached", serial_cached, false},
                              {"parallel/cached", parallel_cached, true}};

  Table table({"mode", "candidates", "analyses", "cache hits", "time (s)", "identical"});
  std::vector<double> reference;
  for (const Run& run : runs) {
    CostEvaluator evaluator(app, params, optimizer_analysis_options(), run.options);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<CostEvaluator::Evaluation> evals;
    if (run.parallel) {
      evals = evaluator.evaluate_many(candidates);
    } else {
      evals.reserve(candidates.size());
      for (const BusConfig& c : candidates) evals.push_back(evaluator.evaluate(c));
    }
    const double elapsed = seconds_since(t0);

    std::vector<double> costs;
    costs.reserve(evals.size());
    for (const auto& e : evals) costs.push_back(e.valid ? e.cost.value : kInvalidConfigCost);
    bool identical = true;
    if (reference.empty()) {
      reference = costs;
    } else {
      identical = costs == reference;  // exact: the analysis is deterministic
    }
    const EvaluatorCacheStats stats = evaluator.cache_stats();
    table.add_row({run.label, std::to_string(candidates.size()),
                   std::to_string(evaluator.evaluations()), std::to_string(stats.hits),
                   fmt_double(elapsed, 3), identical ? "yes" : "NO"});
    if (!identical) {
      std::cerr << "cost mismatch vs serial/uncached reference\n";
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "\nReading: the cached runs serve every revisit from the config->evaluation\n"
               "cache (half the candidates here), and evaluate_many spreads the remaining\n"
               "full analyses across its worker threads — identical costs, fewer analyses,\n"
               "lower wall time.  This is the hot path of every optimiser behind the\n"
               "unified Solver API.\n";
  return 0;
}
