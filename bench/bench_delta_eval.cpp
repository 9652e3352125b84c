// Steady-state evaluation bench and perf-regression gate: replays an
// SA-style neighbour-move workload over the Fig. 9 smoke population
// through the evaluator's hot path (CostEvaluator::evaluate_in_slot, memo
// cache off) three times on one evaluator — a recording pass that warms the
// component cache, binds the arena and grows scratch to capacity; a
// measured warm replay over the bit-identical RNG stream, whose tables are
// all cached; and a measured cold-table replay after the component cache is
// cleared, in which every geometry move builds its static-schedule table,
// as real solves do on almost every evaluation.  The warm replay reports
// moves/sec and — when the operator new interposer of
// src/util/alloc_probe.cpp is linked and active — ZERO heap allocations per
// move; the cold replay reports moves/sec and allocations per table build.
//
// The CI perf-smoke job runs this with --check: the run fails unless
// steady-state allocations per move are exactly zero and allocations per
// cold table build stay at or below kMaxAllocationsPerBuild (Release builds
// with the probe installed), and — when --min-moves-per-sec is given —
// aggregate steady-state throughput clears the floor.  --out writes the
// machine-readable BENCH_delta.json (schema documented in README.md).

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
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

/// Allocations an evaluation that builds its table may make on average, on
/// each system: the StaticSchedule, its ScheduleComponent and the cache
/// entry (everything else runs on the worker slot's ScheduleWorkspace).
constexpr double kMaxAllocationsPerBuild = 100.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// One measured replay of the move chain.
struct PassResult {
  long measured = 0;   ///< valid evaluations inside the counted window
  long invalid = 0;    ///< error-path evaluations (excluded from the alloc gate)
  long accepted = 0;
  double eval_wall = 0.0;         ///< wall time inside evaluate_in_slot only
  std::uint64_t allocations = 0;  ///< heap allocations inside measured evaluations
  long builds = 0;                ///< measured evaluations that built their table
  std::uint64_t build_allocations = 0;  ///< heap allocations inside those
  EvaluatorWorkStats work;

  [[nodiscard]] double moves_per_sec() const {
    return eval_wall > 0.0 ? static_cast<double>(measured) / eval_wall : 0.0;
  }
};

struct SteadyResult {
  int nodes = 0;
  PassResult steady;  ///< warm replay: every table cached
  PassResult cold;    ///< cold-table replay: every geometry builds its table
};

/// The hot path under the SA move distribution, evaluated the way SA's
/// neighbour loop does.
///
/// The trajectory is replayed three times through the SAME evaluator.  The
/// first (recording) pass is pure warm-up: every move geometry lands in the
/// component cache, worker slot 0's arena binds, and scratch containers
/// grow to their high-water capacity.  The second pass re-seeds the RNGs
/// and replays the bit-identical move/acceptance stream — by then every
/// schedule lookup is a cache hit and every fixed point runs inside the
/// arena, which is the steady state the zero-allocation contract covers
/// (a long SA run revisits move geometries the same way).  The third pass
/// replays it again after clearing the component cache, so every geometry
/// builds its table once more on the warm slot's ScheduleWorkspace.
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

  const auto run_pass = [&](PassResult* measured) {
    const EvaluatorWorkStats before = evaluator.work_stats();
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

      const std::uint64_t builds_before = evaluator.work_stats().analysis.schedule_builds;
      const std::uint64_t a0 = alloc_probe::thread_allocations();
      const auto t0 = std::chrono::steady_clock::now();
      const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(neighbour);
      const double elapsed = seconds_since(t0);
      const std::uint64_t evaluation_allocs = alloc_probe::thread_allocations() - a0;

      if (measured != nullptr) {
        measured->eval_wall += elapsed;
        if (eval.valid) {
          ++measured->measured;
          measured->allocations += evaluation_allocs;
          if (evaluator.work_stats().analysis.schedule_builds != builds_before) {
            ++measured->builds;
            measured->build_allocations += evaluation_allocs;
          }
        } else {
          ++measured->invalid;  // error strings allocate; outside the contract
        }
      }

      const double cost = eval.valid ? eval.cost.value : kInvalidConfigCost;
      const double delta = cost - current_cost;
      if (delta <= 0.0 ||
          accept_rng.uniform_real(0.0, 1.0) < std::exp(-delta / temperature)) {
        current = std::move(neighbour);
        current_cost = cost;
        if (measured != nullptr) ++measured->accepted;
      }
    }
    if (measured != nullptr) measured->work = evaluator.work_stats().since(before);
  };

  run_pass(nullptr);    // recording pass: warm caches, arena, scratch
  run_pass(&r.steady);  // warm replay: the measured steady state
  evaluator.clear_cache();
  run_pass(&r.cold);  // cold-table replay: every geometry builds again
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
  std::cout << "== Arena hot path (evaluate_in_slot, cache off) ==\n";
  std::cout << "alloc probe: " << (probe ? "installed" : "absent (sanitizer build)")
            << ", build: " << (kReleaseBuild ? "Release" : "Debug") << "\n";
  const auto per = [](std::uint64_t count, std::uint64_t over) {
    return over > 0 ? static_cast<double>(count) / static_cast<double>(over) : 0.0;
  };
  Table table({"nodes", "measured", "accepted", "moves/s", "allocs/move", "cold moves/s",
               "builds", "allocs/build"});
  PassResult steady_total;
  PassResult cold_total;
  double max_allocs_per_build = 0.0;  // worst system
  for (const SteadyResult& r : steady_results) {
    const double allocs_per_build = per(r.cold.build_allocations, r.cold.builds);
    max_allocs_per_build = std::max(max_allocs_per_build, allocs_per_build);
    table.add_row({std::to_string(r.nodes), std::to_string(r.steady.measured),
                   std::to_string(r.steady.accepted), fmt_double(r.steady.moves_per_sec(), 0),
                   fmt_double(per(r.steady.allocations, r.steady.measured), 3),
                   fmt_double(r.cold.moves_per_sec(), 0), std::to_string(r.cold.builds),
                   fmt_double(allocs_per_build, 1)});
    for (auto [total, pass] : {std::pair{&steady_total, &r.steady}, {&cold_total, &r.cold}}) {
      total->measured += pass->measured;
      total->eval_wall += pass->eval_wall;
      total->allocations += pass->allocations;
      total->builds += pass->builds;
      total->build_allocations += pass->build_allocations;
    }
  }
  table.print(std::cout);
  const double steady_mps = steady_total.moves_per_sec();

  // The allocation gates are exact — zero per steady-state move, a fixed
  // count per cold table build — but only bind when the interposer is
  // linked and active and the hot path is not carrying the Debug
  // cross-check.
  const bool alloc_gate_active = probe && kReleaseBuild;
  const bool alloc_pass = !alloc_gate_active || steady_total.allocations == 0;
  const bool build_alloc_pass =
      !alloc_gate_active ||
      (cold_total.builds > 0 && max_allocs_per_build <= kMaxAllocationsPerBuild);
  const bool throughput_pass = min_moves_per_sec <= 0.0 || steady_mps >= min_moves_per_sec;
  const bool pass = alloc_pass && build_alloc_pass && throughput_pass;

  std::cout << "steady state: " << steady_total.measured << " measured moves in "
            << fmt_double(steady_total.eval_wall, 3) << " s (" << fmt_double(steady_mps, 0)
            << " moves/s), " << steady_total.allocations << " allocations"
            << (alloc_gate_active ? "" : " [gate inactive]") << "\n";
  std::cout << "cold tables: " << cold_total.measured << " measured moves in "
            << fmt_double(cold_total.eval_wall, 3) << " s ("
            << fmt_double(cold_total.moves_per_sec(), 0) << " moves/s), " << cold_total.builds
            << " table builds, at most " << fmt_double(max_allocs_per_build, 1)
            << " allocations per build on a system"
            << (alloc_gate_active ? "" : " [gate inactive]") << "\n";

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "delta_eval")
        .field("workload", "fig9-smoke")
        .field("moves_per_system", moves);
    json.key("systems").begin_array();
    for (const SteadyResult& st : steady_results) {
      json.begin_object().field("nodes", st.nodes);
      json.key("steady")
          .begin_object()
          .field("measured_moves", st.steady.measured)
          .field("invalid_moves", st.steady.invalid)
          .field("accepted_moves", st.steady.accepted)
          .field("eval_wall_seconds", st.steady.eval_wall)
          .field("moves_per_sec", st.steady.moves_per_sec())
          .field("allocations", st.steady.allocations)
          .field("allocations_per_move", per(st.steady.allocations, st.steady.measured))
          .field("arena_binds", st.steady.work.arena_binds)
          .field("arena_reuses", st.steady.work.arena_reuses)
          .end_object();
      json.key("cold")
          .begin_object()
          .field("measured_moves", st.cold.measured)
          .field("eval_wall_seconds", st.cold.eval_wall)
          .field("moves_per_sec", st.cold.moves_per_sec())
          .field("table_builds", st.cold.builds)
          .field("build_allocations", st.cold.build_allocations)
          .field("allocations_per_build", per(st.cold.build_allocations, st.cold.builds))
          .end_object();
      json.end_object();
    }
    json.end_array();
    json.key("totals")
        .begin_object()
        .field("steady_measured_moves", steady_total.measured)
        .field("steady_eval_wall_seconds", steady_total.eval_wall)
        .field("steady_moves_per_sec", steady_mps)
        .field("steady_allocations", steady_total.allocations)
        .field("steady_allocations_per_move", per(steady_total.allocations, steady_total.measured))
        .field("cold_moves_per_sec", cold_total.moves_per_sec())
        .field("cold_table_builds", cold_total.builds)
        .field("cold_max_allocations_per_build", max_allocs_per_build)
        .end_object();
    json.key("gate")
        .begin_object()
        .field("min_moves_per_sec", min_moves_per_sec)
        .field("max_allocations_per_build", kMaxAllocationsPerBuild)
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
      std::cerr << " steady-state hot path allocated " << steady_total.allocations
                << " times (contract: 0);";
    }
    if (!build_alloc_pass) {
      std::cerr << " cold table builds allocated up to " << fmt_double(max_allocs_per_build, 1)
                << " times each on average on a system, over " << cold_total.builds
                << " builds (contract: <= " << fmt_double(kMaxAllocationsPerBuild, 0) << ");";
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
