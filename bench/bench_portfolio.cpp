// Portfolio racing bench and conformance gate.  Over the Fig. 9 smoke
// population, races the portfolio (4x multi-start SA + OBC-EE + OBC-CF,
// per-member budget B) against each of its members run standalone with the
// identical derived seed and budget — so "equal wall-clock" holds by
// construction once the members run in parallel: the portfolio's critical
// path is its slowest member, which is what a single-algorithm user would
// have waited for anyway.
//
// The CI-facing --check gate asserts the conformance half of the story:
// (1) the portfolio's cost is <= the best single member on every system
// (it must select the argmin; anything else is a winner-selection bug),
// and (2) the winning configuration and cost are bit-identical between
// PortfolioSpec::jobs = 1 and a parallel run (the determinism contract).  --out writes
// BENCH_portfolio.json (schema documented in README.md).

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/io/json_writer.hpp"
#include "flexopt/util/seed_mix.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SystemResult {
  int nodes = 0;
  int index = 0;
  double portfolio_cost = kInvalidConfigCost;
  bool portfolio_feasible = false;
  std::string winner;
  long portfolio_evaluations = 0;
  double best_single_cost = kInvalidConfigCost;
  std::string best_single;
  bool quality_ok = false;    ///< portfolio cost <= best single member
  bool deterministic = false; ///< jobs 1 vs parallel: identical config + cost
  double portfolio_wall = 0.0;
  double serial_wall = 0.0;  ///< sum of standalone member walls
  double max_member_wall = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool check = false;
  long per_member_budget = full_scale() ? 600 : 250;
  int systems_per_size = 2;
  // The real default composition — the gate must track PortfolioSpec, not
  // a copy of it.
  std::vector<std::string> members = PortfolioSpec{}.members;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--budget") {
      per_member_budget = std::stol(next());
    } else if (arg == "--systems") {
      systems_per_size = std::stoi(next());
    } else if (arg == "--members") {
      auto parsed = parse_portfolio_members(next());
      if (!parsed.ok()) {
        std::cerr << parsed.error().message << "\n";
        return 2;
      }
      members = std::move(parsed).value();
    } else {
      std::cerr << "usage: bench_portfolio [--out FILE] [--check] [--budget PER_MEMBER]\n"
                   "                       [--systems PER_SIZE] [--members LIST]\n";
      return 2;
    }
  }

  std::cout << "== Portfolio racing vs best single member ==\n";
  std::cout << "# members " << format_portfolio_members(members) << ", per-member budget "
            << per_member_budget << " evaluations\n";
  const BusParams params = section7_params();
  const Scale scale = Scale::current();
  const std::uint64_t base_seed = 1;
  const long total_budget = per_member_budget * static_cast<long>(members.size());

  Table table({"system", "best single", "single cost", "portfolio cost", "winner", "<=",
               "serial (s)", "portfolio (s)", "det"});
  std::vector<SystemResult> results;

  for (int nodes = scale.min_nodes; nodes <= scale.max_nodes; ++nodes) {
    for (int index = 0; index < systems_per_size; ++index) {
      const auto app_result = section7_system(nodes, index);
      if (!app_result.ok()) {
        std::cerr << "generator failed: " << app_result.error().message << "\n";
        return 1;
      }
      const Application& app = app_result.value();

      SystemResult r;
      r.nodes = nodes;
      r.index = index;

      // Standalone members: the exact (key, derived seed, budget) triples
      // the portfolio will race, run serially on fresh evaluators.
      for (std::size_t m = 0; m < members.size(); ++m) {
        SolveRequest request;
        request.seed = derive_seed(base_seed, static_cast<std::uint64_t>(m));
        request.max_evaluations = per_member_budget;
        const auto t0 = std::chrono::steady_clock::now();
        const AlgorithmResult single = run_algorithm(members[m], app, params, {}, request);
        const double wall = seconds_since(t0);
        r.serial_wall += wall;
        r.max_member_wall = std::max(r.max_member_wall, wall);
        if (single.outcome.cost.value < r.best_single_cost) {
          r.best_single_cost = single.outcome.cost.value;
          r.best_single = members[m] + "#" + std::to_string(m);
        }
      }

      // The racing portfolio over the same members.
      PortfolioSpec spec;
      spec.members = members;
      spec.seed = base_seed;
      SolveRequest request;
      request.max_evaluations = total_budget;
      const auto t0 = std::chrono::steady_clock::now();
      const AlgorithmResult parallel = run_algorithm("portfolio", app, params, spec, request);
      r.portfolio_wall = seconds_since(t0);
      r.portfolio_cost = parallel.outcome.cost.value;
      r.portfolio_feasible = parallel.outcome.feasible;
      r.portfolio_evaluations = parallel.outcome.evaluations;

      // Determinism half of the gate: a serial re-run must reproduce the
      // winning configuration bit-for-bit.
      PortfolioSpec serial_spec = spec;
      serial_spec.jobs = 1;
      const AlgorithmResult serial = run_algorithm("portfolio", app, params, serial_spec, request);
      r.deterministic = serial.outcome.config == parallel.outcome.config &&
                        serial.outcome.cost.value == parallel.outcome.cost.value;
      r.quality_ok = r.portfolio_cost <= r.best_single_cost;

      r.winner = parallel.winner;

      table.add_row({std::to_string(nodes) + "/" + std::to_string(index), r.best_single,
                     r.best_single_cost >= kInvalidConfigCost ? "-"
                                                              : fmt_double(r.best_single_cost, 1),
                     r.portfolio_cost >= kInvalidConfigCost ? "-"
                                                            : fmt_double(r.portfolio_cost, 1),
                     r.winner, r.quality_ok ? "yes" : "NO", fmt_double(r.serial_wall, 3),
                     fmt_double(r.portfolio_wall, 3), r.deterministic ? "yes" : "NO"});
      results.push_back(std::move(r));
    }
  }
  table.print(std::cout);

  bool all_quality = true;
  bool all_deterministic = true;
  double serial_total = 0.0;
  double portfolio_total = 0.0;
  double critical_path_total = 0.0;
  for (const SystemResult& r : results) {
    all_quality = all_quality && r.quality_ok;
    all_deterministic = all_deterministic && r.deterministic;
    serial_total += r.serial_wall;
    portfolio_total += r.portfolio_wall;
    critical_path_total += r.max_member_wall;
  }
  const bool pass = all_quality && all_deterministic;
  std::cout << "\ntotals: " << results.size() << " systems, serial members "
            << fmt_double(serial_total, 2) << " s vs portfolio " << fmt_double(portfolio_total, 2)
            << " s (member critical path " << fmt_double(critical_path_total, 2)
            << " s), quality " << (all_quality ? "<= best single everywhere" : "REGRESSED")
            << ", determinism " << (all_deterministic ? "ok" : "BROKEN") << "\n";

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "portfolio")
        .field("workload", "fig9-smoke")
        .field("members", format_portfolio_members(members))
        .field("per_member_budget", per_member_budget)
        .field("base_seed", base_seed);
    json.key("systems").begin_array();
    for (const SystemResult& r : results) {
      json.begin_object()
          .field("nodes", r.nodes)
          .field("index", r.index)
          .field("best_single", r.best_single)
          .field("best_single_cost", r.best_single_cost)
          .field("portfolio_cost", r.portfolio_cost)
          .field("portfolio_feasible", r.portfolio_feasible)
          .field("portfolio_evaluations", r.portfolio_evaluations)
          .field("quality_ok", r.quality_ok)
          .field("deterministic", r.deterministic)
          .field("serial_wall_seconds", r.serial_wall)
          .field("member_critical_path_seconds", r.max_member_wall)
          .field("portfolio_wall_seconds", r.portfolio_wall)
          .end_object();
    }
    json.end_array();
    json.key("totals")
        .begin_object()
        .field("systems", results.size())
        .field("serial_wall_seconds", serial_total)
        .field("member_critical_path_seconds", critical_path_total)
        .field("portfolio_wall_seconds", portfolio_total)
        .field("quality_ok", all_quality)
        .field("deterministic", all_deterministic)
        .end_object();
    json.key("gate").begin_object().field("pass", pass).end_object();
    json.end_object();
    std::ofstream out(out_path);
    out << json.str() << "\n";
    if (!out) {
      std::cerr << "failed to write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  if (check && !pass) {
    std::cerr << "portfolio gate FAILED: "
              << (all_quality ? "" : "portfolio cost above the best single member; ")
              << (all_deterministic ? "" : "winner not bit-identical across jobs") << "\n";
    return 1;
  }
  return 0;
}
