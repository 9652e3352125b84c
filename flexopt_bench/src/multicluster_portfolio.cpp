// multicluster_portfolio: one client issuing Optimizer::solve("portfolio")
// calls back to back on gateway-chained 2..4-cluster systems (pure FlexRay
// and FlexRay+TSN), each winner replayed through the verify pipeline as
// `flexopt_cli simulate` does.  Time goes to the cross-cluster fixed
// point, evaluate_system / evaluate_delta(SystemConfig), block-coordinate
// descent, TSN coordinate descent and the portfolio pool; the
// single-cluster arena seeding is bypassed.

#include <algorithm>
#include <memory>

#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/model/cluster_backend.hpp"
#include "flexopt/util/seed_mix.hpp"
#include "verify.hpp"

namespace flexbench {
namespace {

using namespace flexopt;

struct System {
  std::uint64_t seed = 0;
  SystemModel model;
};

/// Samples of one or more passes over the population.
struct Samples {
  std::vector<Record> records;
  std::vector<double> scenario_ms;
  std::vector<double> solve_ms;
  std::vector<double> verify_ms;
  std::vector<double> member_max_ms;
  std::vector<double> layout_us;
  std::vector<double> holistic_us;
  std::vector<double> simulate_ms;
  std::vector<double> soundness_us;
  double cross_iterations = 0.0;
  double events = 0.0;
  double simulate_seconds = 0.0;
  double evaluations = 0.0;
  double solve_seconds = 0.0;
  double member_seconds = 0.0;
  double member_evaluations = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double reused = 0.0;
  double recomputed = 0.0;
  EvaluatorWorkStats profile;
  long feasible = 0;
  long solves = 0;
  long verifies = 0;
  long systems = 0;
  double wall = 0.0;
};

constexpr long kBudget = 600;
constexpr long kTinyBudget = 120;

ScenarioSpec system_spec(int clusters, BackendMix backend, std::uint64_t seed) {
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
  spec.base.seed = seed;
  return spec;
}

void run_pass(const std::vector<System>& systems, const BusParams& params,
              const RunOptions& options, Tracer* tracer, Outcome& out, Samples& s) {
  const auto started = Clock::now();
  PortfolioSpec portfolio;
  portfolio.jobs = options.threads;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const System& system = systems[i];
    const auto index = static_cast<std::int64_t>(i);
    Tracer::Span scenario_span(tracer, "bench", "scenario", index);
    const auto t0 = Clock::now();
    auto optimizer = OptimizerRegistry::create("portfolio", portfolio);
    if (!optimizer.ok()) {
      out.check(false, "portfolio: " + optimizer.error().message);
      continue;
    }
    EvaluatorOptions evaluator_options;
    evaluator_options.threads = 1;
    CostEvaluator evaluator(system.model, params, AnalysisOptions{}, evaluator_options);
    SolveRequest request;
    request.seed = system.seed;
    request.max_evaluations = options.tiny ? kTinyBudget : kBudget;
    const SolveReport report = [&] {
      Tracer::Span span(tracer, "core", "core.solve.portfolio", index);
      return optimizer.value()->solve(evaluator, request);
    }();
    const double solve_s = seconds_since(t0);
    ++out.attempted;
    s.records.push_back(
        {report.outcome.cost.value, report.outcome.feasible, report.outcome.evaluations});
    s.solve_ms.push_back(solve_s * 1e3);
    s.solve_seconds += solve_s;
    s.evaluations += static_cast<double>(report.outcome.evaluations);
    s.feasible += report.outcome.feasible ? 1 : 0;
    ++s.solves;
    s.hits += static_cast<double>(report.cache_hits);
    s.misses += static_cast<double>(report.cache_misses);
    s.reused += static_cast<double>(report.components_reused);
    s.recomputed += static_cast<double>(report.components_recomputed);
    double member_max = 0.0;
    // Multi-cluster solves leave SolveReport::profile empty; the members
    // carry the counters of every coordinate-descent pass.
    for (const MemberSolveReport& member : report.members) {
      s.profile += member.profile;
      s.member_seconds += member.wall_seconds;
      s.member_evaluations += static_cast<double>(member.evaluations);
      member_max = std::max(member_max, member.wall_seconds);
    }
    s.member_max_ms.push_back(member_max * 1e3);

    double scenario_ms = solve_s * 1e3;
    if (report.outcome.cost.value < kInvalidConfigCost) {
      const VerifyResult v =
          verify_system(system.model, params, report.outcome.system, nullptr, tracer, index);
      out.check(v.error.empty(), "system " + std::to_string(i) + ": " + v.error);
      if (v.error.empty()) {
        s.records.push_back(v.record);
        s.verify_ms.push_back(v.total_ms);
        s.layout_us.push_back(v.layout_us);
        s.holistic_us.push_back(v.holistic_us);
        s.simulate_ms.push_back(v.simulate_ms);
        s.soundness_us.push_back(v.soundness_us);
        s.cross_iterations += v.cross_iterations;
        s.events += static_cast<double>(v.events);
        s.simulate_seconds += v.simulate_ms / 1e3;
        ++s.verifies;
      }
      scenario_ms = seconds_since(t0) * 1e3;
    }
    s.scenario_ms.push_back(scenario_ms);
    ++s.systems;
  }
  s.wall += seconds_since(started);
}

}  // namespace

Outcome run_multicluster_portfolio(const RunOptions& options, Tracer* tracer) {
  Outcome out;
  const BusParams params;
  // 672 systems: one pass lasts 18-28 s on a shared 2.1 GHz Xeon.  With
  // 384, a pass took 11-16 s, so whether a second, warm and faster pass
  // fitted into a 30 s run depended on the host's speed at the time.
  const int replicates = options.tiny ? 1 : 112;

  std::vector<System> systems;
  std::vector<double> generate_ms;
  std::vector<double> project_ms;
  const auto setup = [&](int round) {
    systems.clear();
    std::uint64_t index = 0;
    for (const BackendMix backend : {BackendMix::Flexray, BackendMix::Mixed}) {
      for (int clusters = 2; clusters <= 4; ++clusters) {
        for (int r = 0; r < replicates; ++r, ++index) {
          const std::uint64_t seed = derive_seed(options.seed, index);
          auto t0 = Clock::now();
          auto app = generate_scenario(system_spec(clusters, backend, seed), params);
          generate_ms.push_back(seconds_since(t0) * 1e3);
          if (round == 0) {
            out.check(app.ok(), "generate system " + std::to_string(index) + ": " +
                                    (app.ok() ? "" : app.error().message));
          }
          if (!app.ok()) continue;
          t0 = Clock::now();
          auto model =
              SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
          project_ms.push_back(seconds_since(t0) * 1e3);
          if (!model.ok()) {
            if (round == 0) out.fail("project system " + std::to_string(index));
            continue;
          }
          systems.push_back({seed, std::move(model).value()});
        }
      }
    }
  };
  setup(0);

  Samples untraced;
  std::vector<double> pass_walls;
  run_passes(options.trace ? options.seconds / 2 : options.seconds, [&](int p) {
    Samples pass;
    run_pass(systems, params, options, nullptr, out, pass);
    if (p == 0) {
      out.records = pass.records;
    } else {
      out.compare_records(pass.records, "repeated pass");
    }
    pass_walls.push_back(pass.wall);
    auto append = [](std::vector<double>& into, const std::vector<double>& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    append(untraced.scenario_ms, pass.scenario_ms);
    append(untraced.solve_ms, pass.solve_ms);
    append(untraced.verify_ms, pass.verify_ms);
    untraced.evaluations += pass.evaluations;
    untraced.solve_seconds += pass.solve_seconds;
    untraced.feasible += pass.feasible;
    untraced.solves += pass.solves;
    untraced.systems += pass.systems;
    untraced.wall += pass.wall;
  });

  out.add("setup_s", "s", "lower", Scope::EndToEnd, median_setup_seconds(setup));
  out.add("scenarios_per_s", "1/s", "higher", Scope::EndToEnd,
          ratio(static_cast<double>(untraced.systems), untraced.wall));
  out.add("scenario_ms_p50", "ms", "lower", Scope::EndToEnd, pct(untraced.scenario_ms, 50));
  out.add("scenario_ms_p90", "ms", "lower", Scope::EndToEnd, pct(untraced.scenario_ms, 90));
  out.add("solve_ms_p50", "ms", "lower", Scope::EndToEnd, pct(untraced.solve_ms, 50));
  out.add("solve_ms_p90", "ms", "lower", Scope::EndToEnd, pct(untraced.solve_ms, 90));
  out.add("evals_per_s", "1/s", "higher", Scope::EndToEnd,
          ratio(untraced.evaluations, untraced.solve_seconds));
  out.add("verify_ms_p50", "ms", "lower", Scope::EndToEnd, pct(untraced.verify_ms, 50));
  out.add("verify_ms_p90", "ms", "lower", Scope::EndToEnd, pct(untraced.verify_ms, 90));
  out.add("feasible_share", "ratio", "higher", Scope::EndToEnd,
          ratio(static_cast<double>(untraced.feasible), static_cast<double>(untraced.solves)));
  out.add("peak_rss_mb", "MB", "lower", Scope::EndToEnd, peak_rss_mb());
  out.add("gen.generate_ms", "ms", "lower", Scope::PerLayer, pct(generate_ms, 50));
  out.add("model.project_ms", "ms", "lower", Scope::PerLayer, pct(project_ms, 50));
  if (!options.trace) return out;

  Samples traced;
  {
    Tracer::Span span(tracer, "bench", "multicluster_portfolio.traced_pass");
    run_pass(systems, params, options, tracer, out, traced);
  }
  out.compare_records(traced.records, "traced pass");

  const double evals = traced.evaluations;
  out.add("analysis.layout_us", "us", "lower", Scope::PerLayer, pct(traced.layout_us, 50));
  out.add("analysis.holistic_us", "us", "lower", Scope::PerLayer, pct(traced.holistic_us, 50));
  out.add("analysis.cross_iterations", "count", "lower", Scope::PerLayer,
          ratio(traced.cross_iterations, static_cast<double>(traced.verifies)));
  out.add("analysis.components_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(traced.profile.analysis.components()), evals));
  out.add("analysis.schedule_builds_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(traced.profile.analysis.schedule_builds), evals));
  out.add("analysis.fixed_point_iterations_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(traced.profile.analysis.fixed_point_iterations), evals));
  out.add("analysis.holistic_iterations_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(traced.profile.analysis.holistic_iterations), evals));
  out.add("core.cache_hit_ratio", "ratio", "higher", Scope::PerLayer,
          ratio(traced.hits, traced.hits + traced.misses));
  out.add("core.delta_share", "ratio", "higher", Scope::PerLayer,
          ratio(static_cast<double>(traced.profile.delta_evaluations),
                static_cast<double>(traced.profile.delta_evaluations +
                                    traced.profile.full_evaluations)));
  out.add("core.reuse_ratio", "ratio", "higher", Scope::PerLayer,
          ratio(traced.reused, traced.reused + traced.recomputed));
  out.add("core.member_eval_us", "us", "lower", Scope::PerLayer,
          1e6 * ratio(traced.member_seconds, traced.member_evaluations));
  out.add("core.solve_ms.portfolio", "ms", "lower", Scope::PerLayer, pct(traced.solve_ms, 50));
  out.add("core.portfolio_efficiency", "ratio", "higher", Scope::PerLayer,
          ratio(traced.member_seconds, options.threads * traced.solve_seconds));
  out.add("core.portfolio_member_ms_max", "ms", "lower", Scope::PerLayer,
          pct(traced.member_max_ms, 50));
  out.add("netsim.simulate_ms", "ms", "lower", Scope::PerLayer, pct(traced.simulate_ms, 50));
  out.add("netsim.events_per_s", "1/s", "higher", Scope::PerLayer,
          ratio(traced.events, traced.simulate_seconds));
  out.add("netsim.soundness_us", "us", "lower", Scope::PerLayer, pct(traced.soundness_us, 50));
  tracer->count("core.evaluations", evals);
  tracer->count("netsim.events", traced.events);
  add_trace_metrics(out, *tracer, pct(pass_walls, 50), traced.wall);
  return out;
}

}  // namespace flexbench
