// Multi-cluster solving bench and conformance gate.  Over a small
// population of MultiCluster scenarios (2..4 gateway-chained clusters,
// 25% inter-cluster traffic), solves each system with bbc and with the
// racing portfolio through the cluster coordinate descent and records
// cost/feasibility/work per system — the first bench trajectory for the
// multi-cluster workload axis (BENCH_multicluster.json, published by the
// perf-smoke CI job).
//
// The CI-facing --check gate asserts:
// (1) every scenario of the population generates, projects and solves to a
//     feasible product (the workload axis must not silently regress), and
// (2) the portfolio descent report is byte-identical between
//     PortfolioSpec::jobs = 1 and a parallel run (the determinism contract
//     across the descent).

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/json_writer.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "flexopt/model/cluster_backend.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SystemResult {
  int clusters = 0;
  int index = 0;
  std::size_t tasks = 0;
  std::size_t relay_links = 0;
  double bbc_cost = kInvalidConfigCost;
  double portfolio_cost = kInvalidConfigCost;
  bool feasible = false;
  long evaluations = 0;
  std::string winner;
  bool deterministic = false;
  double wall_seconds = 0.0;
};

SolveReport solve_with(const SystemModel& model, const BusParams& params,
                       const std::string& algorithm, const OptimizerParams& payload,
                       std::uint64_t seed, long budget) {
  auto optimizer = OptimizerRegistry::create(algorithm, payload);
  if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
  EvaluatorOptions options;
  options.threads = 1;
  CostEvaluator evaluator(model, params, AnalysisOptions{}, options);
  SolveRequest request;
  request.seed = seed;
  request.max_evaluations = budget;
  return optimizer.value()->solve(evaluator, request);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool check = false;
  long budget = full_scale() ? 600 : 160;
  int systems_per_size = full_scale() ? 6 : 2;
  BackendMix backend = BackendMix::Flexray;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--budget" && i + 1 < argc) {
      budget = std::stol(argv[++i]);
    } else if (arg == "--backend" && i + 1 < argc) {
      auto parsed = parse_backend_mix(argv[++i]);
      if (!parsed.ok()) {
        std::cerr << "bench_multicluster: " << parsed.error().message << "\n";
        return 2;
      }
      backend = parsed.value();
    } else {
      std::cerr << "usage: bench_multicluster [--out FILE] [--check] [--budget N]"
                   " [--backend flexray|tsn|mixed]\n";
      return 2;
    }
  }

  const BusParams params;
  std::vector<SystemResult> results;
  bool all_ok = true;

  for (int clusters = 2; clusters <= 4; ++clusters) {
    for (int index = 0; index < systems_per_size; ++index) {
      ScenarioSpec spec;
      spec.topology = Topology::MultiCluster;
      spec.traffic = TrafficMix::DynOnly;
      spec.clusters = clusters;
      spec.backend = backend;
      spec.inter_cluster_share = 0.25;
      spec.base.nodes = clusters * 2;
      spec.base.tasks_per_node = 4;
      spec.base.tasks_per_graph = 4;
      spec.base.deadline_factor = 2.0;
      spec.base.seed = static_cast<std::uint64_t>(1000 * clusters + index);

      SystemResult row;
      row.clusters = clusters;
      row.index = index;
      auto app = generate_scenario(spec, params);
      if (!app.ok()) {
        std::cerr << "generation failed (" << clusters << "/" << index
                  << "): " << app.error().message << "\n";
        all_ok = false;
        continue;
      }
      auto model =
          SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
      if (!model.ok()) {
        std::cerr << "projection failed (" << clusters << "/" << index
                  << "): " << model.error().message << "\n";
        all_ok = false;
        continue;
      }
      row.tasks = model.value().global()->task_count();
      row.relay_links = model.value().relay_links().size();

      const auto started = std::chrono::steady_clock::now();
      const SolveReport bbc =
          solve_with(model.value(), params, "bbc", {}, spec.base.seed, budget);
      row.bbc_cost = bbc.outcome.cost.value;

      PortfolioSpec portfolio;
      portfolio.members = {"sa", "obc-cf", "bbc"};
      portfolio.jobs = 1;
      const SolveReport serial =
          solve_with(model.value(), params, "portfolio", portfolio, spec.base.seed, budget);
      portfolio.jobs = 0;  // hardware concurrency
      const SolveReport parallel =
          solve_with(model.value(), params, "portfolio", portfolio, spec.base.seed, budget);
      row.wall_seconds = seconds_since(started);

      row.portfolio_cost = serial.outcome.cost.value;
      row.feasible = serial.outcome.feasible;
      row.evaluations = serial.outcome.evaluations;
      row.winner = serial.winner;
      row.deterministic =
          write_solve_json(*model.value().global(), "portfolio", serial) ==
          write_solve_json(*model.value().global(), "portfolio", parallel);
      if (!row.feasible || !row.deterministic) all_ok = false;
      results.push_back(row);
    }
  }

  Table table({"clusters", "system", "tasks", "relays", "bbc cost", "portfolio cost",
               "feasible", "deterministic"});
  for (const SystemResult& r : results) {
    table.add_row({std::to_string(r.clusters), std::to_string(r.index),
                   std::to_string(r.tasks), std::to_string(r.relay_links),
                   fmt_double(r.bbc_cost, 1), fmt_double(r.portfolio_cost, 1),
                   r.feasible ? "yes" : "NO", r.deterministic ? "yes" : "NO"});
  }
  table.print(std::cout);

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.field("bench", "multicluster");
    json.field("backend", to_string(backend));
    json.field("budget", budget);
    json.field("systems", results.size());
    json.key("results").begin_array();
    for (const SystemResult& r : results) {
      json.begin_object()
          .field("clusters", r.clusters)
          .field("index", r.index)
          .field("tasks", r.tasks)
          .field("relay_links", r.relay_links)
          .field("bbc_cost", r.bbc_cost)
          .field("portfolio_cost", r.portfolio_cost)
          .field("feasible", r.feasible)
          .field("evaluations", r.evaluations)
          .field("winner", r.winner)
          .field("deterministic", r.deterministic)
          .field("wall_seconds", r.wall_seconds)
          .end_object();
    }
    json.end_array();
    json.end_object();
    std::ofstream out(out_path, std::ios::binary);
    out << json.str() << "\n";
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  if (check) {
    const std::size_t expected =
        static_cast<std::size_t>(3) * static_cast<std::size_t>(systems_per_size);
    if (results.size() != expected || !all_ok) {
      std::cerr << "CHECK FAILED: " << results.size() << "/" << expected
                << " systems solved, all_ok=" << all_ok << "\n";
      return 1;
    }
    std::cout << "CHECK OK: " << results.size()
              << " multicluster systems solved feasibly, jobs-invariant\n";
  }
  return 0;
}
