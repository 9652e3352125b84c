// Multi-cluster evaluation and solving: the SystemConfig evaluator surface
// (caching, focus substitution, cluster delta moves) and the coordinate-
// descent driver behind Optimizer::solve, for every registry optimizer.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

SystemConfig start_configs(const SystemModel& model, const BusParams& params) {
  SystemConfig config;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    config.clusters.push_back(
        ClusterConfig::flexray_bus(minimal_start_config(*model.cluster_app(c), params).config));
  }
  return config;
}

struct Fixture {
  testing::TwoClusterSystem sys;
  SystemModel model;
  SystemConfig config;

  Fixture() {
    auto built = SystemModel::build(std::make_shared<const Application>(sys.app));
    if (!built.ok()) throw std::runtime_error(built.error().message);
    model = std::move(built).value();
    config = start_configs(model, sys.params);
  }
};

TEST(MulticlusterEvaluator, EvaluateSystemCachesOnSystemConfig) {
  Fixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
  EXPECT_EQ(evaluator.cluster_count(), 2u);

  const auto first = evaluator.evaluate_system(f.config);
  ASSERT_TRUE(first.valid);
  EXPECT_EQ(first.cluster_analysis.size(), 2u);
  EXPECT_EQ(evaluator.evaluations(), 1);

  const auto again = evaluator.evaluate_system(f.config);
  EXPECT_EQ(again.cost.value, first.cost.value);
  EXPECT_EQ(evaluator.evaluations(), 1);  // served from the cache
  EXPECT_EQ(evaluator.cache_stats().hits, 1u);

  // A raw BusConfig is ambiguous on a multi-cluster evaluator.
  const auto ambiguous = evaluator.evaluate(f.config.clusters[0].flexray);
  EXPECT_FALSE(ambiguous.valid);
  EXPECT_NE(ambiguous.error.find("set_focus"), std::string::npos);
}

TEST(MulticlusterEvaluator, FocusSubstitutesIntoContext) {
  Fixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
  evaluator.set_focus(f.config, 1);
  EXPECT_TRUE(evaluator.focused());
  // application() is the focused cluster's projection (relay task included).
  EXPECT_EQ(evaluator.application().task_count(), f.model.cluster_app(1)->task_count());

  const auto focused = evaluator.evaluate(f.config.clusters[1].flexray);
  ASSERT_TRUE(focused.valid);
  // The focused evaluation scored the full substituted system: identical to
  // evaluating the SystemConfig directly.
  evaluator.clear_focus();
  const auto direct = evaluator.evaluate_system(f.config);
  EXPECT_EQ(focused.cost.value, direct.cost.value);
  // And the focused view surfaced cluster 1's per-activity completions.
  EXPECT_EQ(focused.analysis.task_completion,
            direct.cluster_analysis[1].task_completion);
}

TEST(MulticlusterEvaluator, ClusterMoveOnAWarmedEvaluatorMatchesAFreshOne) {
  Fixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
  ASSERT_TRUE(evaluator.evaluate_system(f.config).valid);  // warms the component caches

  // Move cluster 1's DYN segment length: substitute it and re-evaluate.
  SystemConfig substituted = f.config;
  substituted.clusters[1].flexray.minislot_count += 5;
  const auto warm = evaluator.evaluate_system(substituted);
  ASSERT_TRUE(warm.valid);
  // Cluster 0's schedule table came from the warmed component cache.
  EXPECT_GT(evaluator.work_stats().analysis.schedule_reuses, 0u);

  CostEvaluator reference(f.model, f.sys.params, AnalysisOptions{});
  const auto fresh = reference.evaluate_system(substituted);
  ASSERT_TRUE(fresh.valid);
  EXPECT_EQ(warm.cost.value, fresh.cost.value);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(warm.cluster_analysis[c].task_completion,
              fresh.cluster_analysis[c].task_completion);
    EXPECT_EQ(warm.cluster_analysis[c].message_completion,
              fresh.cluster_analysis[c].message_completion);
  }
  EXPECT_EQ(evaluator.work_stats().full_evaluations, 2u);

  // A configuration of the wrong width is rejected, not UB.
  SystemConfig bad = substituted;
  bad.clusters.push_back(bad.clusters[1]);
  EXPECT_FALSE(evaluator.evaluate_system(bad).valid);
}

TEST(MulticlusterSolve, EveryRegistryOptimizerSolvesATwoClusterSystem) {
  Fixture f;
  for (const OptimizerInfo& info : OptimizerRegistry::list()) {
    auto optimizer = OptimizerRegistry::create(info.name);
    ASSERT_TRUE(optimizer.ok()) << info.name;
    CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
    SolveRequest request;
    request.seed = 7;
    request.max_evaluations = 120;
    const SolveReport report = optimizer.value()->solve(evaluator, request);
    EXPECT_EQ(report.outcome.system.cluster_count(), 2u) << info.name;
    EXPECT_TRUE(report.outcome.feasible) << info.name;
    EXPECT_LT(report.outcome.cost.value, 0.0) << info.name;  // schedulable slack
    EXPECT_EQ(report.outcome.config, report.outcome.system.clusters[0].flexray) << info.name;
    // The chosen product must re-evaluate to the reported cost.
    CostEvaluator check(f.model, f.sys.params, AnalysisOptions{});
    const auto eval = check.evaluate_system(report.outcome.system);
    ASSERT_TRUE(eval.valid) << info.name;
    EXPECT_EQ(eval.cost.value, report.outcome.cost.value) << info.name;
  }
}

TEST(MulticlusterSolve, SingleClusterSolveFillsDegenerateSystemConfig) {
  testing::TinySystem tiny;
  auto optimizer = OptimizerRegistry::create("bbc");
  ASSERT_TRUE(optimizer.ok());
  CostEvaluator evaluator(tiny.app, tiny.params, AnalysisOptions{});
  const SolveReport report = optimizer.value()->solve(evaluator);
  ASSERT_EQ(report.outcome.system.cluster_count(), 1u);
  EXPECT_EQ(report.outcome.system.clusters[0].flexray, report.outcome.config);
}

/// A generated gateway-chained FlexRay system of `clusters` clusters.
SystemModel chained_system(int clusters, std::uint64_t seed, const BusParams& params) {
  ScenarioSpec scenario;
  scenario.topology = Topology::MultiCluster;
  scenario.traffic = TrafficMix::DynOnly;
  scenario.clusters = clusters;
  scenario.inter_cluster_share = 0.3;
  scenario.base.nodes = clusters * 2;
  scenario.base.tasks_per_node = 4;
  scenario.base.tasks_per_graph = 4;
  scenario.base.deadline_factor = 2.0;
  scenario.base.seed = seed;
  auto app = generate_scenario(scenario, params);
  if (!app.ok()) throw std::runtime_error(app.error().message);
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  return std::move(model).value();
}

TEST(MulticlusterSolve, PortfolioJobsDoNotChangeTheReport) {
  // The acceptance determinism check at solve level: a racing portfolio on
  // a generated multicluster scenario is byte-identical between jobs=1 and
  // a parallel run (the campaign test covers the campaign level).
  BusParams params;
  const SystemModel model = chained_system(2, 11, params);

  auto solve_with_jobs = [&](int jobs) {
    PortfolioSpec spec;
    spec.members = {"sa", "sa", "obc-cf", "bbc"};
    spec.jobs = jobs;
    auto optimizer = OptimizerRegistry::create("portfolio", spec);
    if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
    EvaluatorOptions options;
    options.threads = 1;
    CostEvaluator evaluator(model, params, AnalysisOptions{}, options);
    SolveRequest request;
    request.seed = 3;
    request.max_evaluations = 160;
    const SolveReport report = optimizer.value()->solve(evaluator, request);
    return write_solve_json(*model.global(), "portfolio", report);
  };

  const std::string serial = solve_with_jobs(1);
  const std::string parallel = solve_with_jobs(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("cluster_configs"), std::string::npos);
  EXPECT_NE(serial.find("flexopt-solve-report/6"), std::string::npos);
}

void expect_same_work(const EvaluatorWorkStats& a, const EvaluatorWorkStats& b) {
  EXPECT_EQ(a.analysis.components(), b.analysis.components());
  EXPECT_EQ(a.components_reused(), b.components_reused());
  EXPECT_EQ(a.analysis.holistic_iterations, b.analysis.holistic_iterations);
  EXPECT_EQ(a.analysis.exact_states_explored, b.analysis.exact_states_explored);
  EXPECT_EQ(a.analysis.exact_frontier_reused, b.analysis.exact_frontier_reused);
  EXPECT_EQ(a.full_evaluations, b.full_evaluations);
}

/// The descent's profile covers all of its work: the seed evaluation and
/// every pass.  On a 3-cluster exact-mode SA solve — all of it on the
/// caller's evaluator — it equals that evaluator's work delta, and the
/// exact-space store's payoff shows as replayed explorations.
TEST(MulticlusterSolve, ProfileCountsEveryPassAndTheSeed) {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  const SystemModel model = chained_system(3, 3001, params);
  AnalysisOptions exact;
  exact.mode = AnalysisMode::Exact;
  exact.exact.max_states = 1u << 13;
  CostEvaluator evaluator(model, params, exact);
  auto optimizer = OptimizerRegistry::create("sa");
  ASSERT_TRUE(optimizer.ok());
  SolveRequest request;
  request.seed = 5;
  request.max_evaluations = 60;
  const EvaluatorWorkStats before = evaluator.work_stats();
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  const EvaluatorWorkStats spent = evaluator.work_stats().since(before);

  EXPECT_GT(report.profile.analysis.components(), 0u);
  EXPECT_GT(report.profile.analysis.exact_states_explored, 0u);
  EXPECT_GT(report.profile.analysis.exact_frontier_reused, 0u);
  expect_same_work(report.profile, spent);
  EXPECT_EQ(report.components_recomputed, report.profile.analysis.components());
}

/// A portfolio descent races its members on sibling evaluators: its
/// profile is the members' profiles plus the work the descent ran on the
/// caller's evaluator itself (the seed evaluation).
TEST(MulticlusterSolve, PortfolioProfileSumsItsMembers) {
  BusParams params;
  const SystemModel model = chained_system(2, 11, params);
  PortfolioSpec spec;
  spec.members = {"sa", "obc-cf"};
  spec.jobs = 1;
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  ASSERT_TRUE(optimizer.ok());
  CostEvaluator evaluator(model, params, AnalysisOptions{});
  SolveRequest request;
  request.seed = 3;
  request.max_evaluations = 80;
  const EvaluatorWorkStats before = evaluator.work_stats();
  const SolveReport report = optimizer.value()->solve(evaluator, request);

  ASSERT_FALSE(report.members.empty());
  EvaluatorWorkStats sum = evaluator.work_stats().since(before);
  EXPECT_GT(sum.analysis.components(), 0u);  // the seed evaluation
  for (const MemberSolveReport& member : report.members) sum += member.profile;
  EXPECT_GT(report.profile.analysis.components(), 0u);
  expect_same_work(report.profile, sum);
}

TEST(MulticlusterSolve, EveryAlgorithmAnalysesAClusterWithoutBusTraffic) {
  // The 4-cluster member with alternating FlexRay/TSN clusters of the
  // grid MulticlusterProperty.SolvesMatchRecordedDigest pins: FlexRay
  // cluster 2 carries no frame, so its minimal start configuration has no
  // static slot and needs a one-minislot DYN segment for a non-empty cycle.
  auto spec = parse_campaign_text(R"(name no-traffic-cluster
nodes 6
topology multicluster
clusters 2 3 4
backend flexray mixed
traffic dyn-only
inter_share 0.25
node_util 0.20:0.35
bus_util 0.05:0.20
periods 20ms 40ms 80ms
replicates 1
tasks_per_node 4
tasks_per_graph 4
deadline_factor 2.0
seed 11
budget 48
)");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  const ScenarioPlan& plan = plans.value().at(5);
  ASSERT_EQ(plan.scenario.clusters, 4);
  ASSERT_EQ(plan.scenario.backend, BackendMix::Mixed);
  const BusParams params;
  auto app = generate_scenario(plan.scenario, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  ASSERT_TRUE(model.ok()) << model.error().message;

  const Application& quiet = *model.value().cluster_app(2);
  ASSERT_EQ(quiet.cluster_backend(ClusterId{0}), ClusterBackendKind::FlexRay);
  ASSERT_EQ(quiet.message_count(), 0u);
  const StartConfig start = minimal_start_config(quiet, params);
  EXPECT_EQ(start.config.static_slot_count, 0);
  EXPECT_EQ(start.config.minislot_count, 1);
  EXPECT_TRUE(BusLayout::build(quiet, params, start.config).ok());

  for (const char* algorithm : {"bbc", "obc-cf", "obc-ee", "sa"}) {
    auto optimizer = OptimizerRegistry::create(algorithm);
    ASSERT_TRUE(optimizer.ok()) << optimizer.error().message;
    EvaluatorOptions options;
    options.threads = 1;
    CostEvaluator evaluator(model.value(), params, AnalysisOptions{}, options);
    SolveRequest request;
    request.seed = plan.scenario.base.seed;
    request.max_evaluations = spec.value().max_evaluations;
    const SolveReport report = optimizer.value()->solve(evaluator, request);
    EXPECT_GT(report.outcome.evaluations, 0) << algorithm;
    EXPECT_LT(report.outcome.cost.value, kInvalidConfigCost) << algorithm;
    EXPECT_TRUE(report.outcome.error.empty()) << algorithm << ": " << report.outcome.error;
  }
}

}  // namespace
}  // namespace flexopt
