// exact_verify: one client, single-threaded, running the verify pipeline
// with the exact schedule-space backend over the bench_exact populations
// (fig9 n2..n5 single-cluster systems plus 2..4-cluster FlexRay chains)
// under their per-cluster minimal start configurations.  No optimiser
// runs: the analysis layer is driven as a few cold full analyses instead
// of many warm deltas, and almost all time is schedule-space exploration
// and netsim.

#include <memory>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/seed_mix.hpp"
#include "verify.hpp"

namespace flexbench {
namespace {

using namespace flexopt;

struct System {
  SystemModel model;
  SystemConfig start;
};

struct Samples {
  std::vector<Record> records;
  std::vector<double> verify_ms;
  std::vector<double> layout_us;
  std::vector<double> holistic_us;
  std::vector<double> exact_us;
  std::vector<double> simulate_ms;
  std::vector<double> soundness_us;
  double cross_iterations = 0.0;
  double exact_seconds = 0.0;
  double states = 0.0;
  double merged = 0.0;
  double events = 0.0;
  double simulate_seconds = 0.0;
  double clusters = 0.0;
  double fallback_clusters = 0.0;
  double gap_sum = 0.0;
  double gap_activities = 0.0;
  long systems = 0;
  double wall = 0.0;
};

/// Bus parameters of the paper's Section 7 experiments (10 Mbit/s, 5 us
/// minislots), which the bench_exact populations use.
BusParams section7_params() {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  return params;
}

/// The population's strata: fig9 systems of 2..5 nodes, then 2..4-cluster
/// FlexRay chains.  `attempt` picks the generator seed within the stratum.
ScenarioSpec stratum_spec(int stratum, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.base.seed = seed;
  if (stratum < 4) {
    spec.base.nodes = 2 + stratum;
    spec.base.deadline_factor = 0.7;
    return spec;
  }
  const int clusters = stratum - 2;
  spec.topology = Topology::MultiCluster;
  spec.traffic = TrafficMix::DynOnly;
  spec.clusters = clusters;
  spec.inter_cluster_share = 0.25;
  spec.base.nodes = clusters * 2;
  spec.base.tasks_per_node = 4;
  spec.base.tasks_per_graph = 4;
  spec.base.deadline_factor = 2.0;
  return spec;
}

constexpr int kStrata = 7;

/// Default ExactOptions (jobs = 1) except the state budget: the default
/// 65536 states per cluster lets a handful of 4-cluster systems run for
/// seconds each, so a run's time would depend on how many of them its seed
/// draws.  8192 caps that tail.
ExactOptions exact_options() {
  ExactOptions options;
  options.max_states = 1u << 13;
  return options;
}

void run_pass(const std::vector<System>& systems, const BusParams& params, Tracer* tracer,
              Outcome& out, Samples& s) {
  const ExactOptions exact = exact_options();
  const auto started = Clock::now();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const auto index = static_cast<std::int64_t>(i);
    Tracer::Span scenario_span(tracer, "bench", "scenario", index);
    const VerifyResult v = verify_system(systems[i].model, params, systems[i].start,
                                         &exact, tracer, index);
    out.check(v.error.empty(), "system " + std::to_string(i) + ": " + v.error);
    ++s.systems;
    if (!v.error.empty()) continue;
    s.records.push_back(v.record);
    s.verify_ms.push_back(v.total_ms);
    s.layout_us.push_back(v.layout_us);
    s.holistic_us.push_back(v.holistic_us);
    s.exact_us.push_back(v.exact_us);
    s.simulate_ms.push_back(v.simulate_ms);
    s.soundness_us.push_back(v.soundness_us);
    s.cross_iterations += v.cross_iterations;
    s.exact_seconds += v.exact_us / 1e6;
    s.states += static_cast<double>(v.exact_states);
    s.merged += static_cast<double>(v.exact_merged);
    s.events += static_cast<double>(v.events);
    s.simulate_seconds += v.simulate_ms / 1e3;
    s.clusters += static_cast<double>(v.clusters);
    s.fallback_clusters += static_cast<double>(v.fallback_clusters);
    s.gap_sum += v.gap_sum;
    s.gap_activities += static_cast<double>(v.gap_activities);
  }
  s.wall += seconds_since(started);
}

}  // namespace

Outcome run_exact_verify(const RunOptions& options, Tracer* tracer) {
  Outcome out;
  const BusParams params = section7_params();
  // More cluster chains than single-cluster systems of each size: the
  // single-cluster strata are bimodal (a few ms, or tens of ms when the
  // exploration runs), so with equal strata the median system fell into
  // that gap and moved with every seed; this mix puts it in the dense
  // two-cluster bulk.  The population is sized for one pass of 20-30 s on
  // a shared 2.1 GHz Xeon: with a pass near half a 30 s run, whether a
  // second (warm, faster) pass fitted depended on the host's speed.
  const auto stratum_size = [&](int stratum) {
    return options.tiny ? 1 : stratum < 4 ? 60 : 160;
  };

  // Set-up: generate, project, and build every cluster's minimal start
  // configuration.  A system whose minimal configuration is infeasible or
  // cannot be laid out cannot be verified (bench_exact skips it too); it is
  // replaced by the stratum's next seed, so every seed yields the same
  // population shape.
  std::vector<System> systems;
  std::vector<double> generate_ms;
  std::vector<double> project_ms;
  std::size_t skipped = 0;
  const auto setup = [&](int round) {
    systems.clear();
    skipped = 0;
    for (int stratum = 0; stratum < kStrata; ++stratum) {
      const std::uint64_t stratum_seed = derive_seed(options.seed, stratum);
      const int size = stratum_size(stratum);
      int have = 0;
      for (int attempt = 0; have < size && attempt < 64 * size; ++attempt) {
        const ScenarioSpec spec = stratum_spec(stratum, derive_seed(stratum_seed, attempt));
        const auto name = [&] {
          return "stratum " + std::to_string(stratum) + " system " + std::to_string(attempt);
        };
        auto t0 = Clock::now();
        auto app = generate_scenario(spec, params);
        generate_ms.push_back(seconds_since(t0) * 1e3);
        if (round == 0) {
          out.check(app.ok(), app.ok() ? "" : "generate " + name() + ": " + app.error().message);
        }
        if (!app.ok()) continue;
        t0 = Clock::now();
        auto model =
            SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
        project_ms.push_back(seconds_since(t0) * 1e3);
        if (!model.ok()) {
          if (round == 0) out.fail("project " + name());
          continue;
        }
        System system{std::move(model).value(), {}};
        bool feasible = true;
        for (std::size_t c = 0; c < system.model.cluster_count() && feasible; ++c) {
          const StartConfig start = minimal_start_config(*system.model.cluster_app(c), params);
          feasible = start.bounds.feasible();
          system.start.clusters.push_back(ClusterConfig::flexray_bus(start.config));
        }
        // A system without bus traffic gets an empty bus cycle, which has
        // no layout to verify.
        if (!feasible || !build_system_layouts(system.model, params, system.start).ok()) {
          ++skipped;
          continue;
        }
        systems.push_back(std::move(system));
        ++have;
      }
      if (round == 0 && have < size) {
        out.fail("stratum " + std::to_string(stratum) + ": too few feasible systems");
      }
    }
  };
  setup(0);

  Samples untraced;
  std::vector<double> pass_walls;
  run_passes(options.trace ? options.seconds / 2 : options.seconds, [&](int p) {
    Samples pass;
    run_pass(systems, params, nullptr, out, pass);
    if (p == 0) {
      out.records = pass.records;
      untraced.gap_sum = pass.gap_sum;
      untraced.gap_activities = pass.gap_activities;
      untraced.clusters = pass.clusters;
      untraced.fallback_clusters = pass.fallback_clusters;
    } else {
      out.compare_records(pass.records, "repeated pass");
    }
    pass_walls.push_back(pass.wall);
    untraced.verify_ms.insert(untraced.verify_ms.end(), pass.verify_ms.begin(),
                              pass.verify_ms.end());
    untraced.systems += pass.systems;
    untraced.wall += pass.wall;
  });

  out.add("setup_s", "s", "lower", Scope::EndToEnd, median_setup_seconds(setup));
  out.add("scenarios_per_s", "1/s", "higher", Scope::EndToEnd,
          ratio(static_cast<double>(untraced.systems), untraced.wall));
  out.add("scenario_ms_p50", "ms", "lower", Scope::EndToEnd, pct(untraced.verify_ms, 50));
  out.add("scenario_ms_p90", "ms", "lower", Scope::EndToEnd, pct(untraced.verify_ms, 90));
  out.add("verify_ms_p50", "ms", "lower", Scope::EndToEnd, pct(untraced.verify_ms, 50));
  out.add("verify_ms_p90", "ms", "lower", Scope::EndToEnd, pct(untraced.verify_ms, 90));
  out.add("pessimism_gap_pct", "%", "higher", Scope::EndToEnd,
          100.0 * ratio(untraced.gap_sum, untraced.gap_activities));
  out.add("exact_fallback_share", "ratio", "lower", Scope::EndToEnd,
          ratio(untraced.fallback_clusters, untraced.clusters));
  out.add("peak_rss_mb", "MB", "lower", Scope::EndToEnd, peak_rss_mb());
  out.add("gen.generate_ms", "ms", "lower", Scope::PerLayer, pct(generate_ms, 50));
  out.add("model.project_ms", "ms", "lower", Scope::PerLayer, pct(project_ms, 50));
  out.add("core.infeasible_starts", "count", "lower", Scope::PerLayer,
          static_cast<double>(skipped));
  if (!options.trace) return out;

  Samples traced;
  {
    Tracer::Span span(tracer, "bench", "exact_verify.traced_pass");
    run_pass(systems, params, tracer, out, traced);
  }
  out.compare_records(traced.records, "traced pass");
  out.add("analysis.layout_us", "us", "lower", Scope::PerLayer, pct(traced.layout_us, 50));
  out.add("analysis.holistic_us", "us", "lower", Scope::PerLayer, pct(traced.holistic_us, 50));
  out.add("analysis.cross_iterations", "count", "lower", Scope::PerLayer,
          ratio(traced.cross_iterations, static_cast<double>(traced.records.size())));
  out.add("analysis.exact_us", "us", "lower", Scope::PerLayer, pct(traced.exact_us, 50));
  out.add("analysis.exact_states", "count", "lower", Scope::PerLayer, traced.states);
  out.add("analysis.exact_states_per_s", "1/s", "higher", Scope::PerLayer,
          ratio(traced.states, traced.exact_seconds));
  out.add("analysis.exact_merge_ratio", "ratio", "higher", Scope::PerLayer,
          ratio(traced.merged, traced.states));
  out.add("netsim.simulate_ms", "ms", "lower", Scope::PerLayer, pct(traced.simulate_ms, 50));
  out.add("netsim.events_per_s", "1/s", "higher", Scope::PerLayer,
          ratio(traced.events, traced.simulate_seconds));
  out.add("netsim.soundness_us", "us", "lower", Scope::PerLayer, pct(traced.soundness_us, 50));
  tracer->count("analysis.exact_states", traced.states);
  tracer->count("netsim.events", traced.events);
  add_trace_metrics(out, *tracer, pct(pass_walls, 50), traced.wall);
  return out;
}

}  // namespace flexbench
