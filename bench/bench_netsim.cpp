// Network-simulator bench and conformance gate.  Replays minimal start
// configurations of the Section 7 single-cluster population (the fig9
// workloads) and of MultiCluster scenarios (2..4 gateway-chained clusters)
// on the discrete-event network simulator, reporting event throughput,
// the observed-vs-bound soundness verdict and the pessimism gap per system
// (BENCH_netsim.json, published by the perf-smoke CI job).
//
// The CI-facing --check gate asserts, over every simulated system:
// (1) soundness — no observed completion exceeds its analyze_multicluster
//     bound and no precedence violation occurs,
// (2) determinism — the flexopt-netsim-trace/1 document is byte-identical
//     between two independent simulation runs, and
// (3) bulk DYN walking — summed over the population, the events that
//     passed through an engine's event queue are at most a tenth of the
//     logical events.  Idle DYN minislot steps are nearly all of the
//     logical events: queueing one event per minislot step puts every
//     event in a queue, and one per bus cycle 10.9% of them, so on these
//     exact counts the gate fails either on any runner.

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/json_writer.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/netsim/trace_json.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SystemRow {
  std::string workload;
  int clusters = 0;
  int index = 0;
  std::size_t tasks = 0;
  std::size_t messages = 0;
  Time horizon = 0;
  std::uint64_t events = 0;
  std::uint64_t queued_events = 0;
  double wall_seconds = 0.0;
  double events_per_second = 0.0;
  bool sound = false;
  std::size_t checked = 0;
  double mean_gap = 0.0;
  int precedence_violations = 0;
  bool deterministic = false;
};

/// Simulates one system under its per-cluster minimal start configuration.
/// Returns false when the system is skipped (infeasible minimal bounds);
/// hard failures (generation, projection, analysis, simulation) throw.
bool simulate_system(const Application& app, const BusParams& params, int hyperperiods,
                     SystemRow& row) {
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
  auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  if (!analysis.ok()) throw std::runtime_error(analysis.error().message);

  NetSimOptions options;
  options.hyperperiods = hyperperiods;
  options.record_trace = true;
  const auto started = std::chrono::steady_clock::now();
  auto result = simulate_network(model.value(), layouts.value(), analysis.value(), options);
  const double elapsed = seconds_since(started);
  if (!result.ok()) throw std::runtime_error(result.error().message);
  const SoundnessReport verdict =
      check_soundness(model.value(), analysis.value(), result.value());

  // Determinism: a second, independent run must serialize identically.
  auto rerun = simulate_network(model.value(), layouts.value(), analysis.value(), options);
  if (!rerun.ok()) throw std::runtime_error(rerun.error().message);
  const SoundnessReport rerun_verdict =
      check_soundness(model.value(), analysis.value(), rerun.value());
  const std::string first = write_netsim_trace_json(model.value(), analysis.value(),
                                                    result.value(), verdict, hyperperiods);
  const std::string second = write_netsim_trace_json(
      model.value(), analysis.value(), rerun.value(), rerun_verdict, hyperperiods);

  row.clusters = static_cast<int>(model.value().cluster_count());
  row.tasks = app.task_count();
  row.messages = app.message_count();
  row.horizon = result.value().horizon;
  row.events = result.value().events;
  row.queued_events = result.value().queued_events;
  row.wall_seconds = elapsed;
  row.events_per_second =
      elapsed > 0.0 ? static_cast<double>(result.value().events) / elapsed : 0.0;
  row.sound = verdict.sound && result.value().unfinished_jobs == 0;
  row.checked = verdict.checked;
  row.mean_gap = verdict.mean_gap;
  row.precedence_violations = result.value().precedence_violations;
  row.deterministic = first == second;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool check = false;
  int hyperperiods = full_scale() ? 4 : 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--hyperperiods" && i + 1 < argc) {
      hyperperiods = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: bench_netsim [--out FILE] [--check] [--hyperperiods N]\n";
      return 2;
    }
  }

  std::cout << "== Network simulator: throughput and observed-vs-bound gate ==\n";
  const Scale scale = Scale::current();
  scale.print(std::cout);
  const BusParams params = section7_params();
  const int systems_per_size = full_scale() ? 6 : 2;

  std::vector<SystemRow> rows;
  std::size_t skipped = 0;
  bool all_ok = true;

  // Fig. 9 population: the Section 7 single-cluster synthetic systems,
  // replayed under their minimal start configurations.
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
        if (!simulate_system(app.value(), params, hyperperiods, row)) {
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
        if (!simulate_system(app.value(), params, hyperperiods, row)) {
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

  std::uint64_t total_events = 0;
  std::uint64_t total_queued = 0;
  double total_seconds = 0.0;
  Table table({"workload", "system", "clusters", "tasks", "events", "queued", "events/s",
               "sound", "gap", "deterministic"});
  for (const SystemRow& r : rows) {
    total_events += r.events;
    total_queued += r.queued_events;
    total_seconds += r.wall_seconds;
    table.add_row({r.workload, std::to_string(r.index), std::to_string(r.clusters),
                   std::to_string(r.tasks), std::to_string(r.events),
                   std::to_string(r.queued_events), fmt_double(r.events_per_second, 0),
                   r.sound ? "yes" : "NO", fmt_percent(r.mean_gap),
                   r.deterministic ? "yes" : "NO"});
    if (!r.sound || !r.deterministic || r.precedence_violations != 0) all_ok = false;
  }
  table.print(std::cout);
  const double aggregate_rate =
      total_seconds > 0.0 ? static_cast<double>(total_events) / total_seconds : 0.0;
  std::cout << rows.size() << " systems simulated (" << skipped << " skipped), "
            << total_events << " events (" << total_queued << " queued), "
            << fmt_double(aggregate_rate, 0) << " events/s aggregate\n";
  // Integer form of total_queued <= total_events / 10.
  const bool bulk_walk = 10 * total_queued <= total_events;

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.field("bench", "netsim");
    json.field("hyperperiods", hyperperiods);
    json.field("systems", rows.size());
    json.field("skipped", skipped);
    json.field("total_events", total_events);
    json.field("total_queued_events", total_queued);
    json.field("events_per_second", aggregate_rate);
    json.key("results").begin_array();
    for (const SystemRow& r : rows) {
      json.begin_object()
          .field("workload", r.workload)
          .field("index", r.index)
          .field("clusters", r.clusters)
          .field("tasks", r.tasks)
          .field("messages", r.messages)
          .field("horizon", r.horizon)
          .field("events", r.events)
          .field("queued_events", r.queued_events)
          .field("wall_seconds", r.wall_seconds)
          .field("events_per_second", r.events_per_second)
          .field("sound", r.sound)
          .field("checked", r.checked)
          .field("mean_gap", r.mean_gap)
          .field("precedence_violations", r.precedence_violations)
          .field("deterministic", r.deterministic)
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
    if (rows.empty() || !all_ok) {
      std::cerr << "CHECK FAILED: " << rows.size() << " systems simulated, all_ok=" << all_ok
                << "\n";
      return 1;
    }
    if (!bulk_walk) {
      std::cerr << "CHECK FAILED: " << total_queued << " queued events exceed a tenth of "
                << total_events << " events: DYN minislot steps pass through the event queue\n";
      return 1;
    }
    std::cout << "CHECK OK: " << rows.size()
              << " systems simulated sound and byte-deterministic, " << total_queued
              << " of " << total_events << " events queued\n";
  }
  return 0;
}
