// fig9_campaign: the paper's Fig. 9 population solved by bbc, obc-cf,
// obc-ee and sa through CampaignRunner::run, as `flexopt_cli campaign`
// does.  Nearly all of its time is in the single-cluster delta path, the
// memo cache, the list scheduler and the campaign pool; it never touches
// the multi-cluster fixed point, the exact backend or netsim.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/report.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/model/system_model.hpp"
#include "report.hpp"

namespace flexbench {
namespace {

using namespace flexopt;

// The grid of specs/fig9.campaign (4 node counts x 4 topologies x 7
// replicates = 112 scenarios); the seed line comes from --seed.
constexpr const char* kFig9Grid = R"(name fig9
nodes 2 3 4 5
topology random-dag pipeline fan-in-out gateway
traffic mixed
node_util 0.25:0.45
bus_util 0.10:0.40
periods 20ms 40ms 80ms
replicates 7
tasks_per_node 10
tasks_per_graph 5
deadline_factor 0.7
algorithms bbc obc-cf obc-ee sa
budget 600
)";

constexpr const char* kTinyGrid = R"(name fig9-tiny
nodes 2 3
topology random-dag gateway
traffic mixed
replicates 1
tasks_per_node 10
tasks_per_graph 5
deadline_factor 0.7
algorithms bbc obc-cf obc-ee sa
budget 120
)";

/// Samples of one pass over the grid (untraced campaign or traced
/// decomposition).
struct Pass {
  std::vector<Record> records;
  std::vector<double> solve_ms;
  std::map<std::string, std::vector<double>> solve_ms_by_algorithm;
  std::vector<double> scenario_ms;
  double evaluations = 0.0;
  double solve_seconds = 0.0;
  long feasible = 0;
  long solves = 0;
  long scenarios = 0;
  double wall = 0.0;
};

/// Per-scenario results of the traced decomposition, merged after the pool.
struct TracedScenario {
  bool generated = false;
  std::vector<Record> records;
  std::vector<double> eval_us;  ///< per progress interval
  std::vector<SolveReport> reports;
};

CampaignSpec load_spec(const RunOptions& options) {
  auto spec = parse_campaign_text(options.tiny ? kTinyGrid : kFig9Grid);
  if (!spec.ok()) throw std::runtime_error("fig9 grid: " + spec.error().message);
  spec.value().base_seed = options.seed;
  return std::move(spec).value();
}

Pass campaign_pass(const CampaignSpec& spec, const RunOptions& options, Outcome& out,
                   CampaignResult& result) {
  CampaignRunner runner(spec, BusParams{});
  CampaignOptions campaign_options;
  campaign_options.threads = options.threads;
  auto ran = runner.run(campaign_options);
  Pass pass;
  if (!ran.ok()) {
    out.fail("campaign: " + ran.error().message);
    return pass;
  }
  result = std::move(ran).value();
  pass.wall = result.wall_seconds;
  for (const ScenarioRecord& scenario : result.scenarios) {
    out.check(scenario.generated && scenario.runs.size() == spec.algorithms.size(),
              "scenario " + std::to_string(scenario.plan.index) + ": " + scenario.error);
    if (!scenario.generated) continue;
    ++pass.scenarios;
    double scenario_seconds = 0.0;
    for (const AlgorithmRun& run : scenario.runs) {
      ++out.attempted;
      pass.records.push_back({run.cost, run.feasible, run.evaluations});
      pass.solve_ms.push_back(run.wall_seconds * 1e3);
      pass.solve_ms_by_algorithm[run.algorithm].push_back(run.wall_seconds * 1e3);
      pass.evaluations += static_cast<double>(run.evaluations);
      pass.solve_seconds += run.wall_seconds;
      pass.feasible += run.feasible ? 1 : 0;
      ++pass.solves;
      scenario_seconds += run.wall_seconds;
    }
    pass.scenario_ms.push_back(scenario_seconds * 1e3);
  }
  return pass;
}

/// The same grid driven through the benchmark's own decomposition of the
/// public calls (expand_grid -> generate_scenario -> SystemModel::build ->
/// Optimizer::solve with a progress hook), with a span around each call.
/// Mirrors CampaignRunner's per-solve setup so its records must equal the
/// campaign's bit for bit.
Pass traced_pass(const CampaignSpec& spec, const RunOptions& options, Tracer* tracer,
                 std::vector<TracedScenario>& scenarios) {
  const auto started = Clock::now();
  std::vector<ScenarioPlan> plans;
  {
    Tracer::Span span(tracer, "campaign", "campaign.expand_grid");
    auto expanded = expand_grid(spec);
    if (!expanded.ok()) throw std::runtime_error("expand_grid: " + expanded.error().message);
    plans = std::move(expanded).value();
  }
  scenarios.assign(plans.size(), TracedScenario{});
  const BusParams params;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plans.size()) return;
      const ScenarioPlan& plan = plans[i];
      TracedScenario& slot = scenarios[i];
      const auto index = static_cast<std::int64_t>(i);
      Tracer::Span scenario_span(tracer, "bench", "scenario", index);
      Expected<Application> app = [&] {
        Tracer::Span span(tracer, "gen", "gen.generate_scenario", index);
        return generate_scenario(plan.scenario, params);
      }();
      if (!app.ok()) continue;
      Expected<SystemModel> model = [&] {
        Tracer::Span span(tracer, "model", "model.SystemModel::build", index);
        return SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
      }();
      if (!model.ok()) continue;
      slot.generated = true;
      for (const std::string& name : spec.algorithms) {
        Tracer::Span span(tracer, "core", "core.solve." + name, index);
        auto optimizer = OptimizerRegistry::create(name);
        if (!optimizer.ok()) continue;
        EvaluatorOptions evaluator_options;
        evaluator_options.threads = 1;
        CostEvaluator evaluator(model.value(), params, AnalysisOptions{}, evaluator_options);
        SolveRequest request;
        request.seed = plan.scenario.base.seed;
        request.max_evaluations = spec.max_evaluations;
        auto last_time = Clock::now();
        long last_evals = 0;
        request.progress = [&](const SolveProgress& progress) {
          const auto now = Clock::now();
          const long advanced = progress.evaluations - last_evals;
          if (advanced > 0) {
            const double us = std::chrono::duration<double, std::micro>(now - last_time).count();
            slot.eval_us.push_back(us / static_cast<double>(advanced));
          }
          last_time = now;
          last_evals = progress.evaluations;
          return true;
        };
        SolveReport report = optimizer.value()->solve(evaluator, request);
        slot.records.push_back(
            {report.outcome.cost.value, report.outcome.feasible, report.outcome.evaluations});
        report.outcome.system = {};  // only the counters are aggregated
        slot.reports.push_back(std::move(report));
      }
    }
  };
  const std::size_t threads =
      std::min<std::size_t>(static_cast<std::size_t>(options.threads), plans.size());
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  Pass pass;
  for (const TracedScenario& s : scenarios) {
    if (!s.generated) continue;
    ++pass.scenarios;
    pass.records.insert(pass.records.end(), s.records.begin(), s.records.end());
  }
  pass.wall = seconds_since(started);
  return pass;
}

}  // namespace

Outcome run_fig9_campaign(const RunOptions& options, Tracer* tracer) {
  Outcome out;
  const CampaignSpec spec = load_spec(options);
  const BusParams params;

  // Set-up: expand the grid, generate every scenario and project its model.
  std::vector<double> generate_ms;
  std::vector<double> project_ms;
  const auto setup = [&](int round) {
    auto plans = expand_grid(spec);
    if (!plans.ok()) throw std::runtime_error("expand_grid: " + plans.error().message);
    for (const ScenarioPlan& plan : plans.value()) {
      auto t0 = Clock::now();
      auto app = generate_scenario(plan.scenario, params);
      generate_ms.push_back(seconds_since(t0) * 1e3);
      if (round == 0) {
        out.check(app.ok(), "generate scenario " + std::to_string(plan.index) + ": " +
                                (app.ok() ? "" : app.error().message));
      }
      if (!app.ok()) continue;
      t0 = Clock::now();
      auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
      project_ms.push_back(seconds_since(t0) * 1e3);
      if (round == 0 && !model.ok()) out.fail("project scenario " + std::to_string(plan.index));
    }
  };
  setup(0);

  // Untraced passes: the campaign itself, repeated while time remains.
  std::vector<Pass> passes;
  CampaignResult reference;
  std::vector<double> report_ms;
  run_passes(options.trace ? options.seconds / 2 : options.seconds, [&](int p) {
    CampaignResult result;
    passes.push_back(campaign_pass(spec, options, out, result));
    if (p == 0) {
      out.records = passes.back().records;
    } else {
      out.compare_records(passes.back().records, "repeated campaign pass");
    }
    const auto t0 = Clock::now();
    const std::string json = write_campaign_json(result, /*include_timing=*/true);
    const std::string csv = write_campaign_csv(result, /*include_timing=*/true);
    report_ms.push_back(seconds_since(t0) * 1e3);
    out.check(!json.empty() && !csv.empty(), "campaign report writers returned nothing");
    if (p == 0) reference = std::move(result);
  });

  Pass all;
  double campaign_wall = 0.0;
  for (const Pass& pass : passes) {
    all.solve_ms.insert(all.solve_ms.end(), pass.solve_ms.begin(), pass.solve_ms.end());
    all.scenario_ms.insert(all.scenario_ms.end(), pass.scenario_ms.begin(),
                           pass.scenario_ms.end());
    for (const auto& [name, samples] : pass.solve_ms_by_algorithm) {
      auto& into = all.solve_ms_by_algorithm[name];
      into.insert(into.end(), samples.begin(), samples.end());
    }
    all.evaluations += pass.evaluations;
    all.solve_seconds += pass.solve_seconds;
    all.feasible += pass.feasible;
    all.solves += pass.solves;
    all.scenarios += pass.scenarios;
    campaign_wall += pass.wall;
  }

  out.add("setup_s", "s", "lower", Scope::EndToEnd, median_setup_seconds(setup));
  out.add("scenarios_per_s", "1/s", "higher", Scope::EndToEnd,
          ratio(static_cast<double>(all.scenarios), campaign_wall));
  out.add("scenario_ms_p50", "ms", "lower", Scope::EndToEnd, pct(all.scenario_ms, 50));
  out.add("scenario_ms_p90", "ms", "lower", Scope::EndToEnd, pct(all.scenario_ms, 90));
  out.add("solve_ms_p50", "ms", "lower", Scope::EndToEnd, pct(all.solve_ms, 50));
  out.add("solve_ms_p90", "ms", "lower", Scope::EndToEnd, pct(all.solve_ms, 90));
  out.add("evals_per_s", "1/s", "higher", Scope::EndToEnd,
          ratio(all.evaluations, all.solve_seconds));
  out.add("feasible_share", "ratio", "higher", Scope::EndToEnd,
          ratio(static_cast<double>(all.feasible), static_cast<double>(all.solves)));
  out.add("peak_rss_mb", "MB", "lower", Scope::EndToEnd, peak_rss_mb());

  out.add("gen.generate_ms", "ms", "lower", Scope::PerLayer, pct(generate_ms, 50));
  out.add("model.project_ms", "ms", "lower", Scope::PerLayer, pct(project_ms, 50));
  out.add("io.report_ms", "ms", "lower", Scope::PerLayer, pct(report_ms, 50));
  for (const auto& [name, samples] : all.solve_ms_by_algorithm) {
    out.add("core.solve_ms." + name, "ms", "lower", Scope::PerLayer, pct(samples, 50));
  }
  out.add("campaign.worker_busy_share", "ratio", "higher", Scope::PerLayer,
          ratio(all.solve_seconds,
                std::min<double>(options.threads,
                                 static_cast<double>(reference.scenarios.size())) *
                    campaign_wall));
  if (!options.trace) return out;

  // Traced pass: the same grid through the benchmark's own decomposition.
  std::vector<TracedScenario> scenarios;
  const Pass traced = traced_pass(spec, options, tracer, scenarios);
  out.compare_records(traced.records, "traced pass");
  {
    Tracer::Span span(tracer, "io", "io.write_campaign_report");
    (void)write_campaign_json(reference, true);
    (void)write_campaign_csv(reference, true);
  }

  EvaluatorWorkStats profile;
  double evaluations = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double reused = 0.0;
  double recomputed = 0.0;
  std::vector<double> eval_us;
  for (const TracedScenario& s : scenarios) {
    eval_us.insert(eval_us.end(), s.eval_us.begin(), s.eval_us.end());
    for (const SolveReport& report : s.reports) {
      profile += report.profile;
      evaluations += static_cast<double>(report.outcome.evaluations);
      hits += static_cast<double>(report.cache_hits);
      misses += static_cast<double>(report.cache_misses);
      reused += static_cast<double>(report.components_reused);
      recomputed += static_cast<double>(report.components_recomputed);
    }
  }
  tracer->count("core.evaluations", evaluations);
  tracer->count("core.cache_hits", hits);
  tracer->count("analysis.components", static_cast<double>(profile.analysis.components()));
  out.add("analysis.components_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(profile.analysis.components()), evaluations));
  out.add("analysis.schedule_builds_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(profile.analysis.schedule_builds), evaluations));
  out.add("analysis.fixed_point_iterations_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(profile.analysis.fixed_point_iterations), evaluations));
  out.add("analysis.holistic_iterations_per_eval", "count", "lower", Scope::PerLayer,
          ratio(static_cast<double>(profile.analysis.holistic_iterations), evaluations));
  out.add("core.cache_hit_ratio", "ratio", "higher", Scope::PerLayer, ratio(hits, hits + misses));
  out.add("core.delta_share", "ratio", "higher", Scope::PerLayer,
          ratio(static_cast<double>(profile.delta_evaluations),
                static_cast<double>(profile.delta_evaluations + profile.full_evaluations)));
  out.add("core.reuse_ratio", "ratio", "higher", Scope::PerLayer,
          ratio(reused, reused + recomputed));
  out.add("core.arena_reuse_ratio", "ratio", "higher", Scope::PerLayer,
          ratio(static_cast<double>(profile.arena_reuses),
                static_cast<double>(profile.arena_reuses + profile.arena_binds)));
  out.add("core.eval_us_p50", "us", "lower", Scope::PerLayer, pct(eval_us, 50));
  out.add("core.eval_us_p90", "us", "lower", Scope::PerLayer, pct(eval_us, 90));
  add_trace_metrics(out, *tracer, campaign_wall / static_cast<double>(passes.size()),
                    traced.wall);
  return out;
}

}  // namespace flexbench
