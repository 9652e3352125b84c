// Exact schedule-space backend bench and conformance gate.  Analyses
// minimal start configurations of the Section 7 single-cluster population
// (the fig9 workloads) and of MultiCluster scenarios (2..4 gateway-chained
// clusters) with both the holistic and the exact (DYN schedule-space)
// backend, then replays each winner on the discrete-event network
// simulator, reporting exploration throughput (states/s) and the
// holistic-vs-exact pessimism gap per system (BENCH_exact.json, published
// by the perf-smoke CI job).
//
// The CI-facing --check gate asserts, over every analysed system:
// (1) sandwich soundness — observed <= exact <= holistic for every ET
//     activity of every system where the exploration ran, and
// (2) usefulness — the aggregate mean pessimism gap over the non-fallback
//     systems is strictly positive (the backend refines something), and
// (3) no silent fallback — a budget-exceeded or otherwise skipped cluster
//     is visible in the per-system fallback column and the JSON, and
// (4) stationary stretches are taken in one step — the bus cycles walked
//     state by state, summed over every system, stay at or below a fifth
//     of the explored states (a walk that steps through every cycle of a
//     stretch walks about one cycle per state).

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/json_writer.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SystemRow {
  std::string workload;
  int index = 0;
  int clusters = 0;
  std::size_t tasks = 0;
  std::size_t messages = 0;
  std::size_t activities = 0;   ///< ET activities in the pessimism report
  std::size_t refined = 0;
  double mean_gap = 0.0;
  double max_gap = 0.0;
  std::uint64_t states = 0;
  std::uint64_t merged = 0;
  std::uint64_t walked_cycles = 0;
  double wall_seconds = 0.0;
  double states_per_second = 0.0;
  bool fallback = false;
  std::string fallback_reason = "none";
  bool sandwich_ok = false;  ///< exact <= holistic on every entry
  bool sim_sound = false;    ///< observed <= exact on every simulated entry
};

/// Analyses one system holistically and exactly under its per-cluster
/// minimal start configuration, then simulates against the exact bounds.
/// Returns false when the system is skipped (infeasible minimal bounds);
/// hard failures (generation, projection, analysis, simulation) throw.
bool analyze_exact_system(const Application& app, const BusParams& params,
                          const ExactOptions& exact_options, SystemRow& row) {
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  SystemConfig config;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    const StartConfig start = minimal_start_config(*model.value().cluster_app(c), params);
    if (!start.bounds.feasible()) return false;
    config.clusters.push_back(ClusterConfig::flexray_bus(start.config));
  }
  auto layouts = build_system_layouts(model.value(), params, config);
  if (!layouts.ok()) throw std::runtime_error(layouts.error().message);

  AnalysisOptions options;
  options.mode = AnalysisMode::Exact;
  options.exact = exact_options;
  const auto started = std::chrono::steady_clock::now();
  auto exact = analyze_multicluster(model.value(), layouts.value(), options);
  const double elapsed = seconds_since(started);
  if (!exact.ok()) throw std::runtime_error(exact.error().message);

  std::vector<const Application*> apps;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    apps.push_back(model.value().cluster_app(c).get());
  }
  const PessimismReport pessimism = make_pessimism_report(apps, exact.value().clusters);

  row.clusters = static_cast<int>(model.value().cluster_count());
  row.tasks = app.task_count();
  row.messages = app.message_count();
  row.activities = pessimism.activities;
  row.refined = pessimism.refined;
  row.mean_gap = pessimism.mean_gap;
  row.max_gap = pessimism.max_gap;
  row.states = pessimism.explored_states;
  row.merged = pessimism.merged_states;
  row.walked_cycles = pessimism.walked_cycles;
  row.wall_seconds = elapsed;
  row.states_per_second =
      elapsed > 0.0 ? static_cast<double>(pessimism.explored_states) / elapsed : 0.0;
  row.fallback = pessimism.any_fallback;
  for (const ExactFallback fallback : pessimism.cluster_fallbacks) {
    if (fallback != ExactFallback::None) {
      row.fallback_reason = to_string(fallback);
      break;
    }
  }
  row.sandwich_ok = true;
  for (const PessimismActivity& entry : pessimism.entries) {
    row.sandwich_ok = row.sandwich_ok && entry.exact <= entry.holistic;
  }

  // Observed <= exact: the simulator replays real schedules, so its worst
  // observations must stay under the refined bounds too.
  auto sim = simulate_network(model.value(), layouts.value(), exact.value());
  if (!sim.ok()) throw std::runtime_error(sim.error().message);
  const SoundnessReport verdict =
      check_soundness(model.value(), exact.value(), sim.value());
  row.sim_sound = verdict.sound && sim.value().precedence_violations == 0;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool check = false;
  ExactOptions exact_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--max-states" && i + 1 < argc) {
      exact_options.max_states = std::stoull(argv[++i]);
    } else {
      std::cerr << "usage: bench_exact [--out FILE] [--check] [--max-states N]\n";
      return 2;
    }
  }

  std::cout << "== Exact schedule-space backend: throughput and pessimism gate ==\n";
  const Scale scale = Scale::current();
  scale.print(std::cout);
  const BusParams params = section7_params();
  const int systems_per_size = full_scale() ? 6 : 2;

  std::vector<SystemRow> rows;
  std::size_t skipped = 0;
  bool all_ok = true;

  // Fig. 9 population: the Section 7 single-cluster synthetic systems.
  for (int nodes = scale.min_nodes; nodes <= scale.max_nodes; ++nodes) {
    for (int index = 0; index < systems_per_size; ++index) {
      auto app = section7_system(nodes, index);
      if (!app.ok()) {
        ++skipped;
        continue;
      }
      SystemRow row;
      row.workload = "fig9/n" + std::to_string(nodes);
      row.index = index;
      try {
        if (!analyze_exact_system(app.value(), params, exact_options, row)) {
          ++skipped;
          continue;
        }
      } catch (const std::exception& e) {
        std::cerr << row.workload << "#" << index << ": " << e.what() << "\n";
        all_ok = false;
        continue;
      }
      rows.push_back(row);
    }
  }

  // Multi-cluster population: the bench_multicluster workload axis.
  for (int clusters = 2; clusters <= 4; ++clusters) {
    for (int index = 0; index < systems_per_size; ++index) {
      ScenarioSpec spec;
      spec.topology = Topology::MultiCluster;
      spec.traffic = TrafficMix::DynOnly;
      spec.clusters = clusters;
      spec.inter_cluster_share = 0.25;
      spec.base.nodes = clusters * 2;
      spec.base.tasks_per_node = 4;
      spec.base.tasks_per_graph = 4;
      spec.base.deadline_factor = 2.0;
      spec.base.seed = static_cast<std::uint64_t>(1000 * clusters + index);
      auto app = generate_scenario(spec, params);
      if (!app.ok()) {
        ++skipped;
        continue;
      }
      SystemRow row;
      row.workload = "mc/c" + std::to_string(clusters);
      row.index = index;
      try {
        if (!analyze_exact_system(app.value(), params, exact_options, row)) {
          ++skipped;
          continue;
        }
      } catch (const std::exception& e) {
        std::cerr << row.workload << "#" << index << ": " << e.what() << "\n";
        all_ok = false;
        continue;
      }
      rows.push_back(row);
    }
  }

  std::uint64_t total_states = 0;
  std::uint64_t total_walked_cycles = 0;
  double total_seconds = 0.0;
  double gap_sum = 0.0;
  std::size_t gap_systems = 0;
  Table table({"workload", "system", "clusters", "activities", "refined", "gap mean",
               "states", "walked cycles", "states/s", "fallback", "sandwich", "sim"});
  for (const SystemRow& r : rows) {
    total_states += r.states;
    total_walked_cycles += r.walked_cycles;
    total_seconds += r.wall_seconds;
    if (!r.fallback) {
      gap_sum += r.mean_gap;
      ++gap_systems;
    }
    table.add_row({r.workload, std::to_string(r.index), std::to_string(r.clusters),
                   std::to_string(r.activities), std::to_string(r.refined),
                   fmt_percent(r.mean_gap), std::to_string(r.states),
                   std::to_string(r.walked_cycles), fmt_double(r.states_per_second, 0),
                   r.fallback_reason, r.sandwich_ok ? "ok" : "VIOLATION",
                   r.sim_sound ? "ok" : "VIOLATION"});
    if (!r.sandwich_ok || !r.sim_sound) all_ok = false;
  }
  table.print(std::cout);
  const double aggregate_rate =
      total_seconds > 0.0 ? static_cast<double>(total_states) / total_seconds : 0.0;
  const double aggregate_gap =
      gap_systems > 0 ? gap_sum / static_cast<double>(gap_systems) : 0.0;
  std::cout << rows.size() << " systems analysed (" << skipped << " skipped), "
            << total_states << " states in " << total_walked_cycles << " walked cycles, "
            << fmt_double(aggregate_rate, 0) << " states/s aggregate, mean pessimism gap "
            << fmt_percent(aggregate_gap) << " over " << gap_systems << " non-fallback systems\n";

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.field("bench", "exact");
    json.field("max_states", exact_options.max_states);
    json.field("systems", rows.size());
    json.field("skipped", skipped);
    json.field("total_states", total_states);
    json.field("total_walked_cycles", total_walked_cycles);
    json.field("states_per_second", aggregate_rate);
    json.field("mean_pessimism_gap", aggregate_gap);
    json.key("results").begin_array();
    for (const SystemRow& r : rows) {
      json.begin_object()
          .field("workload", r.workload)
          .field("index", r.index)
          .field("clusters", r.clusters)
          .field("tasks", r.tasks)
          .field("messages", r.messages)
          .field("activities", r.activities)
          .field("refined", r.refined)
          .field("mean_gap", r.mean_gap)
          .field("max_gap", r.max_gap)
          .field("states", r.states)
          .field("merged_states", r.merged)
          .field("walked_cycles", r.walked_cycles)
          .field("wall_seconds", r.wall_seconds)
          .field("states_per_second", r.states_per_second)
          .field("fallback", r.fallback_reason)
          .field("sandwich_ok", r.sandwich_ok)
          .field("sim_sound", r.sim_sound)
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
    const bool gap_ok = gap_systems > 0 && aggregate_gap > 0.0;
    const bool stretches_ok = total_walked_cycles <= total_states / 5;
    if (rows.empty() || !all_ok || !gap_ok || !stretches_ok) {
      std::cerr << "CHECK FAILED: " << rows.size() << " systems, all_ok=" << all_ok
                << ", non-fallback systems=" << gap_systems
                << ", mean gap=" << aggregate_gap << ", walked cycles=" << total_walked_cycles
                << " (limit states / 5 = " << total_states / 5 << ")\n";
      return 1;
    }
    std::cout << "CHECK OK: observed <= exact <= holistic on " << rows.size()
              << " systems, mean pessimism gap " << fmt_percent(aggregate_gap) << ", "
              << total_walked_cycles << " walked cycles <= states / 5 = " << total_states / 5
              << "\n";
  }
  return 0;
}
