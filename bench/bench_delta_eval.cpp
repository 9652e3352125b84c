// Steady-state evaluation bench and perf-regression gate: replays an
// SA-style neighbour-move workload over the Fig. 9 smoke population
// through the evaluator's hot path (CostEvaluator::evaluate_in_slot, memo
// cache off) twice on one evaluator — a recording pass that warms the
// component cache, binds the arena and grows scratch to capacity, then a
// measured warm-replay pass over the bit-identical RNG stream.  The replay
// is the steady state: it reports moves/sec and — when the operator new
// interposer of src/util/alloc_probe.cpp is linked and active — asserts
// that steady-state evaluations perform ZERO heap allocations per move.
//
// The CI perf-smoke job runs this with --check: the run fails unless
// steady-state allocations per move are exactly zero (Release builds with
// the probe installed) and — when --min-moves-per-sec is given — aggregate
// steady-state throughput clears the floor.  --out writes the
// machine-readable BENCH_delta.json (schema documented in README.md).

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/io/json_writer.hpp"
#include "flexopt/util/alloc_probe.hpp"
#include "flexopt/util/rng.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

#ifdef NDEBUG
constexpr bool kReleaseBuild = true;
#else
// Debug builds cross-check every analysis against one on a call-local
// cache (which allocates); the zero-allocation contract only holds — and
// is only gated — in Release.
constexpr bool kReleaseBuild = false;
#endif

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SteadyResult {
  int nodes = 0;
  long measured = 0;   ///< valid evaluations inside the counted window
  long invalid = 0;    ///< error-path evaluations (excluded from the alloc gate)
  long accepted = 0;
  double eval_wall = 0.0;        ///< wall time inside evaluate_in_slot only
  std::uint64_t allocations = 0; ///< heap allocations inside measured evaluations
  EvaluatorWorkStats work;
};

/// The hot path under the SA move distribution, evaluated the way SA's
/// neighbour loop does.
///
/// The trajectory is replayed twice through the SAME evaluator.  The first
/// (recording) pass is pure warm-up: every move geometry lands in the
/// component cache, worker slot 0's arena binds, and scratch containers
/// grow to their high-water capacity.  The second pass re-seeds the RNGs
/// and replays the bit-identical move/acceptance stream — by then every
/// schedule lookup is a cache hit and every fixed point runs inside the
/// arena, which is the steady state the zero-allocation contract covers
/// (a long SA run revisits move geometries the same way).  Only the second
/// pass is measured.
SteadyResult run_steady_state(const Application& app, const BusParams& params, int nodes,
                              long moves) {
  SteadyResult r;
  r.nodes = nodes;

  // Whole-config memoization off: a memo hit would skip the analysis
  // entirely and measure a hash lookup instead of the hot path.  The
  // per-cluster COMPONENT caches (schedule geometries) are evaluator
  // members and stay on — they are what the recording pass warms.
  EvaluatorOptions eopts;
  eopts.cache_enabled = false;
  CostEvaluator evaluator(app, params, optimizer_analysis_options(), eopts);

  const StartConfig start = minimal_start_config(app, params);
  const std::vector<NodeId>& senders = start.st_senders;
  const DynBounds& bounds = start.bounds;

  const auto run_pass = [&](bool measured) {
    BusConfig current = start.config;
    const CostEvaluator::Evaluation start_eval = evaluator.evaluate(current);
    double current_cost = start_eval.valid ? start_eval.cost.value : kInvalidConfigCost;

    // Same seeds as the recording pass => bit-identical move distribution
    // and acceptance decisions on every pass.
    Rng move_rng(0x5eedu + static_cast<std::uint64_t>(nodes));
    Rng accept_rng(0xaccu + static_cast<std::uint64_t>(nodes));
    const double temperature = std::max(1.0, std::abs(current_cost) * 0.1);

    for (long i = 0; i < moves; ++i) {
      BusConfig neighbour = current;
      bool moved = false;
      for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
        moved = random_neighbour_move(neighbour, app, params, move_rng, senders,
                                      bounds.min_minislots, SpecLimits::kMaxMinislots);
      }
      if (!moved) continue;

      const std::uint64_t a0 = alloc_probe::thread_allocations();
      const auto t0 = std::chrono::steady_clock::now();
      const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(neighbour);
      const double elapsed = seconds_since(t0);
      const std::uint64_t evaluation_allocs = alloc_probe::thread_allocations() - a0;

      if (measured) {
        r.eval_wall += elapsed;
        if (eval.valid) {
          ++r.measured;
          r.allocations += evaluation_allocs;
        } else {
          ++r.invalid;  // error strings allocate; outside the contract
        }
      }

      const double cost = eval.valid ? eval.cost.value : kInvalidConfigCost;
      const double delta = cost - current_cost;
      if (delta <= 0.0 ||
          accept_rng.uniform_real(0.0, 1.0) < std::exp(-delta / temperature)) {
        current = std::move(neighbour);
        current_cost = cost;
        if (measured) ++r.accepted;
      }
    }
  };

  run_pass(/*measured=*/false);  // recording pass: warm caches, arena, scratch
  const EvaluatorWorkStats before_replay = evaluator.work_stats();
  run_pass(/*measured=*/true);  // warm replay: the measured steady state
  r.work = evaluator.work_stats().since(before_replay);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool check = false;
  double min_moves_per_sec = 0.0;  // 0 = throughput floor disabled
  long moves = full_scale() ? 1200 : 300;
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
    } else if (arg == "--min-moves-per-sec") {
      min_moves_per_sec = std::stod(next());
    } else if (arg == "--moves") {
      moves = std::stol(next());
    } else {
      std::cerr << "usage: bench_delta_eval [--out FILE] [--check] "
                   "[--min-moves-per-sec M] [--moves N]\n";
      return 2;
    }
  }

  const BusParams params = section7_params();
  const std::vector<int> node_counts{4, 5, 6};
  std::vector<SteadyResult> steady_results;
  for (const int nodes : node_counts) {
    const auto app_result = section7_system(nodes, 0);
    if (!app_result.ok()) {
      std::cerr << "generator failed: " << app_result.error().message << "\n";
      return 1;
    }
    if (!minimal_start_config(app_result.value(), params).bounds.feasible()) {
      std::cerr << "no feasible DYN bounds for " << nodes << "-node system\n";
      return 1;
    }
    steady_results.push_back(run_steady_state(app_result.value(), params, nodes, moves));
  }

  const bool probe = alloc_probe::installed();
  std::cout << "== Steady-state arena hot path (evaluate_in_slot, cache off) ==\n";
  std::cout << "alloc probe: " << (probe ? "installed" : "absent (sanitizer build)")
            << ", build: " << (kReleaseBuild ? "Release" : "Debug") << "\n";
  Table steady_table(
      {"nodes", "measured", "accepted", "eval (s)", "moves/s", "allocs", "allocs/move"});
  long steady_moves = 0;
  double steady_wall = 0.0;
  std::uint64_t steady_allocs = 0;
  for (const SteadyResult& r : steady_results) {
    const double mps = r.eval_wall > 0.0 ? static_cast<double>(r.measured) / r.eval_wall : 0.0;
    const double apm =
        r.measured > 0 ? static_cast<double>(r.allocations) / static_cast<double>(r.measured)
                       : 0.0;
    steady_table.add_row({std::to_string(r.nodes), std::to_string(r.measured),
                          std::to_string(r.accepted), fmt_double(r.eval_wall, 3),
                          fmt_double(mps, 0), std::to_string(r.allocations),
                          fmt_double(apm, 3)});
    steady_moves += r.measured;
    steady_wall += r.eval_wall;
    steady_allocs += r.allocations;
  }
  steady_table.print(std::cout);
  const double steady_mps =
      steady_wall > 0.0 ? static_cast<double>(steady_moves) / steady_wall : 0.0;

  // The allocation gate is exact — zero per steady-state move — but only
  // binds when the interposer is linked and active and the hot path is not
  // carrying the Debug cross-check.
  const bool alloc_gate_active = probe && kReleaseBuild;
  const bool alloc_pass = !alloc_gate_active || steady_allocs == 0;
  const bool throughput_pass = min_moves_per_sec <= 0.0 || steady_mps >= min_moves_per_sec;
  const bool pass = alloc_pass && throughput_pass;

  std::cout << "steady state: " << steady_moves << " measured moves in "
            << fmt_double(steady_wall, 3) << " s (" << fmt_double(steady_mps, 0)
            << " moves/s), " << steady_allocs << " allocations"
            << (alloc_gate_active ? "" : " [gate inactive]") << "\n";

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "delta_eval")
        .field("workload", "fig9-smoke")
        .field("moves_per_system", moves);
    json.key("systems").begin_array();
    for (const SteadyResult& st : steady_results) {
      const double mps =
          st.eval_wall > 0.0 ? static_cast<double>(st.measured) / st.eval_wall : 0.0;
      json.begin_object().field("nodes", st.nodes);
      json.key("steady")
          .begin_object()
          .field("measured_moves", st.measured)
          .field("invalid_moves", st.invalid)
          .field("accepted_moves", st.accepted)
          .field("eval_wall_seconds", st.eval_wall)
          .field("moves_per_sec", mps)
          .field("allocations", st.allocations)
          .field("allocations_per_move",
                 st.measured > 0 ? static_cast<double>(st.allocations) /
                                       static_cast<double>(st.measured)
                                 : 0.0)
          .field("arena_binds", st.work.arena_binds)
          .field("arena_reuses", st.work.arena_reuses)
          .end_object();
      json.end_object();
    }
    json.end_array();
    json.key("totals")
        .begin_object()
        .field("steady_measured_moves", steady_moves)
        .field("steady_eval_wall_seconds", steady_wall)
        .field("steady_moves_per_sec", steady_mps)
        .field("steady_allocations", steady_allocs)
        .field("steady_allocations_per_move",
               steady_moves > 0 ? static_cast<double>(steady_allocs) /
                                      static_cast<double>(steady_moves)
                                : 0.0)
        .end_object();
    json.key("gate")
        .begin_object()
        .field("min_moves_per_sec", min_moves_per_sec)
        .field("alloc_probe_installed", probe)
        .field("alloc_gate_active", alloc_gate_active)
        .field("pass", pass)
        .end_object();
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
    std::cerr << "perf gate FAILED:";
    if (!alloc_pass) {
      std::cerr << " steady-state hot path allocated " << steady_allocs
                << " times (contract: 0);";
    }
    if (!throughput_pass) {
      std::cerr << " steady-state throughput " << fmt_double(steady_mps, 0)
                << " moves/s below floor " << fmt_double(min_moves_per_sec, 0) << ";";
    }
    std::cerr << "\n";
    return 1;
  }
  return 0;
}
