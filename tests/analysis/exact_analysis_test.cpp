// Exact schedule-space backend conformance: the refined bounds must stay
// under the holistic reference everywhere (the clamp makes exact <=
// holistic structural, these tests pin it empirically too), and every path
// that cannot refine must record its ExactFallback on the result — never
// silently return holistic numbers as "exact".  (That dominance pruning
// keeps the bounds is checked against the reference exploration in
// ExactProperty.LazyWalkMatchesEagerReference.)

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/incremental.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::TinySystem;
using testing::TwoClusterSystem;
using testing::analyze;
using testing::make_layout;

AnalysisOptions exact_options() {
  AnalysisOptions options;
  options.mode = AnalysisMode::Exact;
  return options;
}

/// A single bus as the one-cluster system analyze_multicluster — the only
/// exact entry point — analyses.
struct OneCluster {
  SystemModel model;
  std::vector<ClusterLayout> layouts;

  OneCluster(const Application& app, const BusParams& params, const BusConfig& config)
      : model(SystemModel::single(std::make_shared<const Application>(app))) {
    auto built = build_system_layouts(model, params, SystemConfig::single(config));
    if (!built.ok()) throw std::runtime_error("layout: " + built.error().message);
    layouts = std::move(built).value();
  }

  /// Cluster 0's result, or throws.
  [[nodiscard]] AnalysisResult analyze(const AnalysisOptions& options,
                                       std::span<AnalysisComponentCache* const> caches = {},
                                       AnalysisWorkCounters* counters = nullptr) const {
    auto result = analyze_multicluster(model, layouts, options, caches, counters);
    if (!result.ok()) throw std::runtime_error("analysis: " + result.error().message);
    return std::move(result).value().clusters[0];
  }
};

/// Entry-wise `lhs <= rhs` (infinite rhs covers everything).
void expect_bounded_by(const std::vector<Time>& lhs, const std::vector<Time>& rhs,
                       const char* what) {
  ASSERT_EQ(lhs.size(), rhs.size()) << what;
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_LE(lhs[i], rhs[i]) << what << "[" << i << "]";
  }
}

TEST(ExactAnalysis, TinySystemSandwichAndInfoAttached) {
  TinySystem tiny;
  const BusLayout layout = make_layout(tiny.app, tiny.params, tiny.config);
  const AnalysisResult holistic = analyze(layout);
  const AnalysisResult exact =
      OneCluster(tiny.app, tiny.params, tiny.config).analyze(exact_options());

  ASSERT_TRUE(exact.converged);
  ASSERT_NE(exact.exact, nullptr);
  EXPECT_EQ(exact.exact->fallback, ExactFallback::None);
  EXPECT_GT(exact.exact->explored_states, 0u);
  expect_bounded_by(exact.task_completion, holistic.task_completion, "task");
  expect_bounded_by(exact.message_completion, holistic.message_completion, "message");
  // The DYN message is analysable on this system; its exact bound is finite.
  EXPECT_LT(exact.message_completion[index_of(tiny.dyn_msg)], kTimeInfinity);
  // The info carries the holistic reference so reports need no re-analysis.
  EXPECT_EQ(exact.exact->holistic_task_completion, holistic.task_completion);
  EXPECT_EQ(exact.exact->holistic_message_completion, holistic.message_completion);
}

TEST(ExactAnalysis, HolisticModeAttachesNoInfo) {
  TinySystem tiny;
  const BusLayout layout = make_layout(tiny.app, tiny.params, tiny.config);
  EXPECT_EQ(analyze(layout).exact, nullptr);
}

/// analyze_system is holistic only: exact mode is a diagnostic naming the
/// exact entry point, never a holistic result passed off as exact.
TEST(ExactAnalysis, AnalyzeSystemRejectsExactMode) {
  TinySystem tiny;
  const BusLayout layout = make_layout(tiny.app, tiny.params, tiny.config);
  const auto result = analyze_system(layout, exact_options());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("analyze_multicluster"), std::string::npos)
      << result.error().message;
}

/// Section-7-style synthetic systems under their minimal start
/// configuration: exploration must refine some DYN bound strictly below
/// the holistic one (the nonzero-pessimism-gap acceptance criterion).
TEST(ExactAnalysis, SyntheticSystemsRefineUnderMinimalStart) {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  std::size_t refined_total = 0;
  std::size_t analysed = 0;
  for (int index = 0; index < 2; ++index) {
    SyntheticSpec spec;
    spec.nodes = 3;
    spec.deadline_factor = 0.7;
    spec.seed = 3000u + static_cast<std::uint64_t>(index);
    auto app = generate_synthetic(spec, params);
    ASSERT_TRUE(app.ok()) << app.error().message;
    const StartConfig start = minimal_start_config(app.value(), params);
    if (!start.bounds.feasible()) continue;
    const BusLayout layout = make_layout(app.value(), params, start.config);
    const AnalysisResult holistic = analyze(layout);
    const AnalysisResult exact =
        OneCluster(app.value(), params, start.config).analyze(exact_options());
    ASSERT_NE(exact.exact, nullptr);
    ASSERT_EQ(exact.exact->fallback, ExactFallback::None);
    expect_bounded_by(exact.task_completion, holistic.task_completion, "task");
    expect_bounded_by(exact.message_completion, holistic.message_completion, "message");
    refined_total += exact.exact->refined_messages;
    ++analysed;
  }
  ASSERT_GT(analysed, 0u);
  EXPECT_GT(refined_total, 0u);
}

TEST(ExactAnalysis, BudgetExceededFallsBackToHolisticAndRecords) {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  SyntheticSpec spec;
  spec.nodes = 3;
  spec.deadline_factor = 0.7;
  spec.seed = 3000;
  auto app = generate_synthetic(spec, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  const StartConfig start = minimal_start_config(app.value(), params);
  ASSERT_TRUE(start.bounds.feasible());
  const BusLayout layout = make_layout(app.value(), params, start.config);
  const AnalysisResult holistic = analyze(layout);
  AnalysisOptions options = exact_options();
  options.exact.max_states = 1;  // second frontier already over budget
  const AnalysisResult exact = OneCluster(app.value(), params, start.config).analyze(options);
  ASSERT_NE(exact.exact, nullptr);
  EXPECT_EQ(exact.exact->fallback, ExactFallback::BudgetExceeded);
  EXPECT_EQ(exact.exact->refined_messages, 0u);
  // Fallback keeps the holistic bounds exactly — no partial refinement.
  EXPECT_EQ(exact.task_completion, holistic.task_completion);
  EXPECT_EQ(exact.message_completion, holistic.message_completion);
}

/// A zero exploration budget is a configuration error, not an exploration
/// outcome: it must surface as the InvalidOptions diagnostic (before any
/// other fallback classification), never as a silently "converged" empty
/// exploration or a budget-exceeded run that did no work.
TEST(ExactAnalysis, ZeroBudgetsRecordInvalidOptions) {
  TinySystem tiny;
  const BusLayout layout = make_layout(tiny.app, tiny.params, tiny.config);
  const AnalysisResult holistic = analyze(layout);
  AnalysisOptions options = exact_options();
  options.exact.max_states = 0;
  const AnalysisResult exact = OneCluster(tiny.app, tiny.params, tiny.config).analyze(options);
  ASSERT_NE(exact.exact, nullptr);
  EXPECT_EQ(exact.exact->fallback, ExactFallback::InvalidOptions);
  EXPECT_EQ(exact.exact->explored_states, 0u);
  EXPECT_EQ(exact.exact->refined_messages, 0u);
  EXPECT_EQ(exact.task_completion, holistic.task_completion);
  EXPECT_EQ(exact.message_completion, holistic.message_completion);
  EXPECT_STREQ(to_string(ExactFallback::InvalidOptions), "invalid-options");
}

/// The validation outranks every other fallback reason: even a system the
/// exploration would skip anyway (no DYN messages) reports the bad options
/// first — the diagnostic points at the caller's mistake, not the workload.
TEST(ExactAnalysis, InvalidOptionsOutranksNoDynMessages) {
  TinySystem tiny;
  AnalysisOptions options = exact_options();
  options.exact.max_states = 0;
  const AnalysisResult exact = OneCluster(tiny.app, tiny.params, tiny.config).analyze(options);
  ASSERT_NE(exact.exact, nullptr);
  EXPECT_EQ(exact.exact->fallback, ExactFallback::InvalidOptions);
}

/// The exact-space store makes repeat analyses of unchanged DYN inputs
/// incremental: the second analysis through the same cache replays the
/// stored frontier (counted as a reuse, zero new states) and returns a
/// bit-identical result.
TEST(ExactAnalysis, ComponentCacheReusesExploration) {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  SyntheticSpec spec;
  spec.nodes = 3;
  spec.deadline_factor = 0.7;
  spec.seed = 3000;
  auto app = generate_synthetic(spec, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  const StartConfig start = minimal_start_config(app.value(), params);
  ASSERT_TRUE(start.bounds.feasible());
  const OneCluster one(app.value(), params, start.config);

  AnalysisComponentCache cache;
  AnalysisComponentCache* const caches[] = {&cache};
  AnalysisWorkCounters counters;
  const AnalysisResult first = one.analyze(exact_options(), caches, &counters);
  ASSERT_NE(first.exact, nullptr);
  ASSERT_EQ(first.exact->fallback, ExactFallback::None);
  EXPECT_EQ(counters.exact_frontier_reused, 0u);
  EXPECT_EQ(counters.exact_states_explored, first.exact->explored_states);

  const AnalysisWorkCounters cold = counters;
  const AnalysisResult second = one.analyze(exact_options(), caches, &counters);
  const AnalysisWorkCounters warm = counters.since(cold);
  EXPECT_EQ(warm.exact_frontier_reused, 1u);
  EXPECT_EQ(warm.exact_states_explored, 0u);
  ASSERT_NE(second.exact, nullptr);
  EXPECT_EQ(second.exact->explored_states, first.exact->explored_states);
  EXPECT_EQ(second.exact->merged_states, first.exact->merged_states);
  EXPECT_EQ(second.exact->transitions, first.exact->transitions);
  EXPECT_EQ(second.task_completion, first.task_completion);
  EXPECT_EQ(second.message_completion, first.message_completion);
}

TEST(ExactAnalysis, TtOnlySystemRecordsNoDynMessages) {
  // TT-only half of TinySystem: SCS producer/consumer plus one ST message.
  Application app;
  const BusParams params = didactic_params();
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId tt = app.add_graph("tt", timeunits::us(100), timeunits::us(100));
  const TaskId producer = app.add_task(tt, "producer", n0, timeunits::us(2), TaskPolicy::Scs);
  const TaskId consumer = app.add_task(tt, "consumer", n1, timeunits::us(2), TaskPolicy::Scs);
  app.add_message(tt, "st", producer, consumer, 4, MessageClass::Static);
  ASSERT_TRUE(app.finalize().ok());
  BusConfig config;
  config.static_slot_count = 2;
  config.static_slot_len = timeunits::us(5);
  config.static_slot_owner = {n0, n1};
  config.minislot_count = 8;
  config.frame_id.assign(app.message_count(), 0);

  const BusLayout layout = make_layout(app, params, config);
  const AnalysisResult holistic = analyze(layout);
  const AnalysisResult exact = OneCluster(app, params, config).analyze(exact_options());
  ASSERT_NE(exact.exact, nullptr);
  EXPECT_EQ(exact.exact->fallback, ExactFallback::NoDynMessages);
  EXPECT_EQ(exact.exact->explored_states, 0u);
  EXPECT_EQ(exact.task_completion, holistic.task_completion);
  EXPECT_EQ(exact.message_completion, holistic.message_completion);
}

/// The holistic fixed point's verdict is the exploration's last
/// precondition, at every cluster count: with one holistic sweep nothing
/// converges, yet a zero state budget still reports InvalidOptions and a
/// cluster without DYN traffic NoDynMessages.  Only a cluster the
/// exploration would otherwise run records NotConverged.
TEST(ExactAnalysis, NotConvergedRanksBelowInvalidOptionsAndNoDynMessages) {
  AnalysisOptions stalled = exact_options();
  stalled.max_holistic_iterations = 1;
  AnalysisOptions stalled_zero_budget = stalled;
  stalled_zero_budget.exact.max_states = 0;
  const BusParams params = didactic_params();

  // One cluster with DYN traffic.
  TinySystem tiny;
  const OneCluster dyn(tiny.app, tiny.params, tiny.config);
  const AnalysisResult dyn_stalled = dyn.analyze(stalled);
  ASSERT_FALSE(dyn_stalled.converged);
  ASSERT_NE(dyn_stalled.exact, nullptr);
  EXPECT_EQ(dyn_stalled.exact->fallback, ExactFallback::NotConverged);
  const AnalysisResult dyn_zero_budget = dyn.analyze(stalled_zero_budget);
  ASSERT_NE(dyn_zero_budget.exact, nullptr);
  EXPECT_EQ(dyn_zero_budget.exact->fallback, ExactFallback::InvalidOptions);

  // One cluster with an FPS task but no DYN message: it does not converge
  // either, and the missing DYN traffic outranks that.
  Application fps_only;
  const NodeId n0 = fps_only.add_node("N0");
  const NodeId n1 = fps_only.add_node("N1");
  const GraphId tt = fps_only.add_graph("tt", timeunits::us(100), timeunits::us(100));
  const TaskId producer = fps_only.add_task(tt, "producer", n0, timeunits::us(2), TaskPolicy::Scs);
  const TaskId consumer = fps_only.add_task(tt, "consumer", n1, timeunits::us(2), TaskPolicy::Scs);
  fps_only.add_message(tt, "st", producer, consumer, 4, MessageClass::Static);
  const GraphId et = fps_only.add_graph("et", timeunits::us(100), timeunits::us(100));
  fps_only.add_task(et, "fps", n1, timeunits::us(3), TaskPolicy::Fps, 1);
  ASSERT_TRUE(fps_only.finalize().ok());
  BusConfig config;
  config.static_slot_count = 2;
  config.static_slot_len = timeunits::us(5);
  config.static_slot_owner = {n0, n1};
  config.minislot_count = 8;
  config.frame_id.assign(fps_only.message_count(), 0);
  const AnalysisResult no_dyn = OneCluster(fps_only, params, config).analyze(stalled);
  ASSERT_FALSE(no_dyn.converged);
  ASSERT_NE(no_dyn.exact, nullptr);
  EXPECT_EQ(no_dyn.exact->fallback, ExactFallback::NoDynMessages);

  // Two clusters: cluster 0 carries DYN traffic, cluster 1 an ST message
  // and an FPS task.  Neither the system-wide verdict nor cluster 0's
  // changes what cluster 1 records.
  Application app;
  const NodeId a0 = app.add_node("N0");
  const NodeId a1 = app.add_node("N1");
  const NodeId a2 = app.add_node("N2");
  const NodeId a3 = app.add_node("N3");
  const NodeId gw = app.add_node("GW");
  app.set_node_cluster(a2, static_cast<ClusterId>(1));
  app.set_node_cluster(a3, static_cast<ClusterId>(1));
  app.add_gateway(gw, {static_cast<ClusterId>(1)});
  const GraphId g = app.add_graph("G", timeunits::ms(20), timeunits::ms(20));
  const TaskId src = app.add_task(g, "src", a0, timeunits::us(500), TaskPolicy::Fps, 1);
  const TaskId mid = app.add_task(g, "mid", a1, timeunits::us(400), TaskPolicy::Fps, 2);
  app.add_message(g, "m_local", src, mid, 8, MessageClass::Dynamic, 1);
  const GraphId h = app.add_graph("H", timeunits::ms(40), timeunits::ms(40));
  const TaskId send = app.add_task(h, "send", a2, timeunits::us(200), TaskPolicy::Scs);
  const TaskId recv = app.add_task(h, "recv", a3, timeunits::us(200), TaskPolicy::Scs);
  app.add_message(h, "m_st", send, recv, 8, MessageClass::Static);
  app.add_task(h, "local", a2, timeunits::us(200), TaskPolicy::Fps, 5);
  ASSERT_TRUE(app.finalize().ok());
  auto built = SystemModel::build(std::make_shared<const Application>(app));
  ASSERT_TRUE(built.ok()) << built.error().message;
  const SystemModel& model = built.value();
  ASSERT_EQ(model.cluster_count(), 2u);
  SystemConfig sys;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    const Application& capp = *model.cluster_app(c);
    sys.clusters.push_back(minimal_start_cluster_config(capp, params, ClusterBackendKind::FlexRay));
  }
  auto layouts = build_system_layouts(model, params, sys);
  ASSERT_TRUE(layouts.ok()) << layouts.error().message;

  auto two = analyze_multicluster(model, layouts.value(), stalled);
  ASSERT_TRUE(two.ok()) << two.error().message;
  ASSERT_FALSE(two.value().converged);
  ASSERT_NE(two.value().clusters[0].exact, nullptr);
  ASSERT_NE(two.value().clusters[1].exact, nullptr);
  EXPECT_EQ(two.value().clusters[0].exact->fallback, ExactFallback::NotConverged);
  EXPECT_EQ(two.value().clusters[1].exact->fallback, ExactFallback::NoDynMessages);

  auto two_zero_budget = analyze_multicluster(model, layouts.value(), stalled_zero_budget);
  ASSERT_TRUE(two_zero_budget.ok()) << two_zero_budget.error().message;
  for (const AnalysisResult& cluster : two_zero_budget.value().clusters) {
    ASSERT_NE(cluster.exact, nullptr);
    EXPECT_EQ(cluster.exact->fallback, ExactFallback::InvalidOptions);
  }
}

/// Mixed FlexRay+TSN system through the multicluster entry point: the TSN
/// cluster has no exact backend and must say so per cluster, while the
/// FlexRay cluster still carries an info record.
TEST(ExactAnalysis, TsnClusterRecordsUnsupportedBackend) {
  TwoClusterSystem sys;
  sys.app.set_cluster_backend(static_cast<ClusterId>(1), ClusterBackendKind::Tsn);
  ASSERT_TRUE(sys.app.finalize().ok());
  auto built = SystemModel::build(std::make_shared<const Application>(sys.app));
  ASSERT_TRUE(built.ok()) << built.error().message;
  const SystemModel& model = built.value();
  SystemConfig config;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    config.clusters.push_back(minimal_start_cluster_config(
        *model.cluster_app(c), sys.params,
        model.cluster_app(c)->cluster_backend(ClusterId{0})));
  }
  auto layouts = build_system_layouts(model, sys.params, config);
  ASSERT_TRUE(layouts.ok()) << layouts.error().message;

  auto holistic = analyze_multicluster(model, layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(holistic.ok()) << holistic.error().message;
  auto exact = analyze_multicluster(model, layouts.value(), exact_options());
  ASSERT_TRUE(exact.ok()) << exact.error().message;
  ASSERT_EQ(exact.value().clusters.size(), 2u);

  const AnalysisResult& flexray = exact.value().clusters[0];
  const AnalysisResult& tsn = exact.value().clusters[1];
  ASSERT_NE(flexray.exact, nullptr);
  ASSERT_NE(tsn.exact, nullptr);
  EXPECT_EQ(tsn.exact->fallback, ExactFallback::UnsupportedBackend);
  EXPECT_EQ(tsn.exact->explored_states, 0u);
  // The TSN cluster has no exploration of its own, but the FlexRay
  // refinement propagates tighter jitter across the gateway, so its bounds
  // may still tighten in the capped cross-cluster re-run — the sandwich
  // below is the invariant, not equality.
  for (std::size_t c = 0; c < 2; ++c) {
    expect_bounded_by(exact.value().clusters[c].task_completion,
                      holistic.value().clusters[c].task_completion, "task");
    expect_bounded_by(exact.value().clusters[c].message_completion,
                      holistic.value().clusters[c].message_completion, "message");
  }

  // The pessimism report surfaces the per-cluster fallback and flags it.
  std::vector<const Application*> apps;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    apps.push_back(model.cluster_app(c).get());
  }
  const PessimismReport report = make_pessimism_report(apps, exact.value().clusters);
  ASSERT_EQ(report.cluster_fallbacks.size(), 2u);
  EXPECT_EQ(report.cluster_fallbacks[1], ExactFallback::UnsupportedBackend);
  EXPECT_TRUE(report.any_fallback);
}

TEST(ExactAnalysis, ModeStringsRoundTrip) {
  for (const AnalysisMode mode : {AnalysisMode::Holistic, AnalysisMode::Exact}) {
    const auto parsed = parse_analysis_mode(to_string(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), mode);
  }
  EXPECT_FALSE(parse_analysis_mode("magic").ok());
  // Winner replay is the --simulate / sim_check switch, not a mode.
  EXPECT_FALSE(parse_analysis_mode("simulate").ok());
}

TEST(ExactAnalysis, ModeParseErrorSuggestsNearMiss) {
  const auto near = parse_analysis_mode("exat");
  ASSERT_FALSE(near.ok());
  EXPECT_NE(near.error().message.find("did you mean 'exact'?"), std::string::npos)
      << near.error().message;
  // A distant typo gets the plain error — no misleading suggestion.
  const auto far = parse_analysis_mode("magic");
  ASSERT_FALSE(far.ok());
  EXPECT_EQ(far.error().message.find("did you mean"), std::string::npos)
      << far.error().message;
}

}  // namespace
}  // namespace flexopt
