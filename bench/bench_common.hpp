#pragma once

/// Shared infrastructure for the experiment harnesses (bench_fig*):
/// environment-based scaling, algorithm runners, and result aggregation.
///
/// Every bench prints the paper-style rows it regenerates.  By default the
/// workloads are scaled down to finish in CI time; set FLEXOPT_BENCH_FULL=1
/// to run the full Section 7 sweep (25 systems per node count, 2..7 nodes,
/// long SA runs).  Each bench prints the active scale next to its rows, so
/// a quoted number carries the scale it was measured at.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "flexopt/core/solver.hpp"
#include "flexopt/gen/synthetic.hpp"

namespace flexopt::bench {

inline bool full_scale() {
  const char* v = std::getenv("FLEXOPT_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

/// Scale profile for the Fig. 9 style sweeps.
struct Scale {
  int min_nodes = 2;
  int max_nodes = 5;
  int systems_per_size = 5;
  long sa_evaluations = 600;
  int obcee_sweep_points = 48;

  static Scale current() {
    Scale s;
    if (full_scale()) {
      s.max_nodes = 7;
      s.systems_per_size = 25;
      s.sa_evaluations = 4000;
      s.obcee_sweep_points = 256;
    }
    return s;
  }

  void print(std::ostream& os) const {
    os << "# scale: nodes " << min_nodes << ".." << max_nodes << ", "
       << systems_per_size << " systems/size, SA budget " << sa_evaluations
       << " evaluations" << (full_scale() ? " (FULL)" : " (CI; FLEXOPT_BENCH_FULL=1 for full)")
       << "\n";
  }
};

/// Analysis options used inside optimisation loops: the paper's
/// GlobalSchedulingAlgorithm always places SCS tasks to minimise the FPS
/// impact (Fig. 2 line 11), so the harnesses do too.
inline AnalysisOptions optimizer_analysis_options() { return AnalysisOptions{}; }

/// Bus parameters of the Section 7 experiments: 10 Mbit/s, 5 us minislots.
inline BusParams section7_params() {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  return params;
}

/// Generates the i-th system of a node-count bucket per the Section 7
/// recipe (seeded deterministically).  End-to-end deadlines are 70% of the
/// periods — calibrated (like the cruise-controller case study) so the
/// suite spans the paper's regime: small systems mostly schedulable, BBC
/// increasingly failing as systems grow while OBC keeps finding solutions.
inline Expected<Application> section7_system(int nodes, int index) {
  SyntheticSpec spec;
  spec.nodes = nodes;
  spec.deadline_factor = 0.7;
  spec.seed = 1000u * static_cast<std::uint64_t>(nodes) + static_cast<std::uint64_t>(index);
  return generate_synthetic(spec, section7_params());
}

struct AlgorithmResult {
  OptimizationOutcome outcome;
  bool ran = false;
  SolveStatus status = SolveStatus::Complete;
  std::uint64_t cache_hits = 0;
  /// Winning member id of a "portfolio" run; empty otherwise.
  std::string winner;
};

/// Creates the named optimizer with `params` and solves on a fresh
/// evaluator — the shared harness path every bench drives algorithms
/// through.  Throws on registry errors (bench bugs should be loud).
inline AlgorithmResult run_algorithm(const std::string& name, const Application& app,
                                     const BusParams& params,
                                     const OptimizerParams& optimizer_params = {},
                                     const SolveRequest& request = {}) {
  auto optimizer = OptimizerRegistry::create(name, optimizer_params);
  if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
  CostEvaluator evaluator(app, params, optimizer_analysis_options());
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  return {report.outcome, true, report.status, report.cache_hits, report.winner};
}

inline AlgorithmResult run_bbc(const Application& app, const BusParams& params) {
  return run_algorithm("bbc", app, params);
}

inline AlgorithmResult run_obc_cf(const Application& app, const BusParams& params) {
  return run_algorithm("obc-cf", app, params);
}

inline AlgorithmResult run_obc_ee(const Application& app, const BusParams& params,
                                  int sweep_points) {
  ObcEeParams optimizer_params;
  optimizer_params.dyn.max_sweep_points = sweep_points;
  return run_algorithm("obc-ee", app, params, optimizer_params);
}

inline AlgorithmResult run_sa(const Application& app, const BusParams& params,
                              long evaluations, std::uint64_t seed) {
  SolveRequest request;
  request.max_evaluations = evaluations;
  request.seed = seed;
  return run_algorithm("sa", app, params, {}, request);
}

/// Percentage deviation of a cost value vs the SA reference, following the
/// Fig. 9 metric ("average percentage deviation ... relative to the cost
/// function obtained with SA").  Guarded against a zero reference.
inline double deviation_percent(double cost, double sa_cost) {
  const double denom = std::abs(sa_cost) > 1e-9 ? std::abs(sa_cost) : 1.0;
  return (cost - sa_cost) / denom * 100.0;
}

}  // namespace flexopt::bench
