#include "flexopt/campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/util/parallel.hpp"

namespace flexopt {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

Expected<CampaignResult> CampaignRunner::run(const CampaignOptions& options) {
  auto plans = expand_grid(spec_);
  if (!plans.ok()) return plans.error();
  for (const std::string& name : spec_.algorithms) {
    if (!OptimizerRegistry::contains(name)) {
      return make_error("campaign: unknown algorithm '" + name + "' (see --algorithm list)");
    }
  }
  if (options.threads < 0) return make_error("campaign: threads must be >= 0");

  // Shared thread budget: scenario-level workers get first claim on the
  // budget; whatever is left over per worker goes to member-level
  // parallelism inside "portfolio" solves.  On wide grids that means
  // portfolios run their members serially (scenario parallelism already
  // saturates the machine); on narrow grids with many threads the members
  // race.  Neither split changes any record (see the determinism
  // contracts of CampaignRunner and PortfolioOptimizer).
  const auto budget = static_cast<std::size_t>(resolve_threads(options.threads));
  const std::size_t scenario_threads =
      std::min(budget, std::max<std::size_t>(1, plans.value().size()));
  const int portfolio_jobs =
      static_cast<int>(std::max<std::size_t>(1, budget / scenario_threads));

  PortfolioSpec portfolio_params;
  if (!spec_.portfolio_members.empty()) portfolio_params.members = spec_.portfolio_members;
  portfolio_params.jobs = portfolio_jobs;
  const bool uses_portfolio =
      std::find_if(spec_.algorithms.begin(), spec_.algorithms.end(), is_portfolio_algorithm) !=
      spec_.algorithms.end();
  if (uses_portfolio) {  // validate the member list up front — spec-level, like algorithms
    auto probe = OptimizerRegistry::create("portfolio", portfolio_params);
    if (!probe.ok()) return probe.error();
  }

  const auto started = std::chrono::steady_clock::now();
  CampaignResult result;
  result.spec = spec_;
  result.params = params_;
  result.scenarios.resize(plans.value().size());

  // Guarded by progress_mutex: counting inside the lock keeps delivered
  // (done, total) pairs monotonic across workers.
  std::size_t done = 0;
  std::mutex progress_mutex;

  auto solve_scenario = [&](std::size_t i, std::size_t) {
    const ScenarioPlan& plan = plans.value()[i];
    ScenarioRecord& record = result.scenarios[i];
    record.plan = plan;

    // Generate, then project: multi-cluster cells also need a valid
    // system projection, and a failure in either step is a generation
    // failure like any other (skip-and-record: a degenerate grid cell
    // must not sink the campaign, or crash it).
    SystemModel model;
    {
      auto app = generate_scenario(plan.scenario, params_);
      if (!app.ok()) {
        record.generated = false;
        record.error = app.error().message;
      } else {
        auto built =
            SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
        if (!built.ok()) {
          record.generated = false;
          record.error = built.error().message;
        } else {
          model = std::move(built).value();
        }
      }
    }
    if (model.global() != nullptr) {
      const Application& generated = *model.global();
      record.generated = true;
      record.task_count = generated.task_count();
      record.message_count = generated.message_count();
      record.graph_count = generated.graph_count();
      record.cluster_count = generated.cluster_count();
      // Multi-cluster systems report the most-loaded bus — the figure
      // comparable to the per-bus utilisation band of the grid cell.
      if (record.cluster_count > 1) {
        double worst = 0.0;
        for (std::size_t c = 0; c < record.cluster_count; ++c) {
          const auto cluster = static_cast<ClusterId>(static_cast<std::uint32_t>(c));
          worst = std::max(worst, bus_utilization(generated, params_, cluster));
        }
        record.bus_util_realized = worst;
      } else {
        record.bus_util_realized = bus_utilization(generated, params_);
      }
      record.runs.reserve(spec_.algorithms.size());
      for (const std::string& name : spec_.algorithms) {
        auto optimizer = is_portfolio_algorithm(name)
                             ? OptimizerRegistry::create(name, portfolio_params)
                             : OptimizerRegistry::create(name);
        if (!optimizer.ok()) {  // registered names were checked above
          record.error = optimizer.error().message;
          continue;
        }
        // One single-threaded evaluator per (scenario, algorithm):
        // campaign parallelism lives at the scenario level only, so the
        // per-solve evaluation sequence — and with it every recorded
        // count and cost — is independent of CampaignOptions::threads.
        EvaluatorOptions evaluator_options;
        evaluator_options.threads = 1;
        // The plan's analysis mode drives every evaluator bound of the
        // solve.
        AnalysisOptions analysis_options;
        analysis_options.mode = plan.analysis_mode;
        CostEvaluator evaluator(model, params_, analysis_options, evaluator_options);
        SolveRequest request;
        request.seed = plan.scenario.base.seed;
        request.max_evaluations = spec_.max_evaluations;
        request.max_wall_seconds = spec_.max_wall_seconds;
        const SolveReport report = optimizer.value()->solve(evaluator, request);

        AlgorithmRun run;
        run.algorithm = name;
        run.feasible = report.outcome.feasible;
        run.cost = report.outcome.cost.value;
        run.evaluations = report.outcome.evaluations;
        run.cache_hits = report.cache_hits;
        run.cache_misses = report.cache_misses;
        run.status = report.status;
        run.portfolio_winner = report.winner;
        run.wall_seconds = report.outcome.wall_seconds;
        run.analysis_mode = plan.analysis_mode;
        // Post-solve winner lanes.  sim_check: replay the winner on the
        // network simulator for one hyper-period.  The simulation is
        // single-threaded and seeded by nothing but the winning
        // configuration, so it preserves the thread-count determinism
        // contract.  An `exact` cell re-analyses the winner with the
        // schedule-space backend and records its holistic-vs-exact
        // pessimism.  A layout/analysis failure on the winner leaves the
        // lanes unrun rather than failing the scenario (the solve itself
        // already succeeded).
        const bool want_exact = plan.analysis_mode == AnalysisMode::Exact;
        if ((spec_.sim_check || want_exact) && report.outcome.cost.value < kInvalidConfigCost) {
          AnalysisOptions winner_options;
          winner_options.mode = plan.analysis_mode;
          auto layouts = build_system_layouts(model, params_, report.outcome.system);
          auto analysis = layouts.ok()
                              ? analyze_multicluster(model, layouts.value(), winner_options)
                              : Expected<MulticlusterResult>(layouts.error());
          if (want_exact && analysis.ok()) {
            std::vector<const Application*> apps;
            apps.reserve(model.cluster_count());
            for (std::size_t c = 0; c < model.cluster_count(); ++c) {
              apps.push_back(model.cluster_app(c).get());
            }
            const PessimismReport pessimism =
                make_pessimism_report(apps, analysis.value().clusters);
            run.exact_ran = true;
            run.exact_fallback = pessimism.any_fallback;
            run.exact_states = pessimism.explored_states;
            run.exact_refined = pessimism.refined;
            run.exact_gap_mean = pessimism.mean_gap;
            run.exact_gap_max = pessimism.max_gap;
          }
          if (spec_.sim_check) {
            // Exact cells simulate against the refined bounds: the
            // stronger observed <= exact check subsumes the holistic one.
            auto sim = analysis.ok()
                           ? simulate_network(model, layouts.value(), analysis.value())
                           : Expected<NetSimResult>(analysis.error());
            if (sim.ok()) {
              const SoundnessReport verdict = check_soundness(model, analysis.value(), sim.value());
              run.simulated = true;
              run.sim_sound = verdict.sound;
              run.sim_gap = verdict.mean_gap;
            }
          }
        }
        record.runs.push_back(std::move(run));
      }
    }

    if (options.progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      options.progress(++done, plans.value().size());
    }
  };
  parallel_for(plans.value().size(), static_cast<int>(scenario_threads), solve_scenario);

  result.wall_seconds = seconds_since(started);
  return result;
}

}  // namespace flexopt
