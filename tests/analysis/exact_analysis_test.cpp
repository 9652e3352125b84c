// Exact schedule-space backend conformance: the refined bounds must stay
// under the holistic reference everywhere (the clamp makes exact <=
// holistic structural, these tests pin it empirically too), and every path
// that cannot refine must record its ExactFallback on the result — never
// silently return holistic numbers as "exact".  (That dominance pruning
// keeps the bounds is checked against the reference exploration in
// ExactProperty.LazyWalkMatchesEagerReference.)

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

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
  const AnalysisResult exact = analyze(layout, exact_options());

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
    const AnalysisResult exact = analyze(layout, exact_options());
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
  const AnalysisResult exact = analyze(layout, options);
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
  const AnalysisResult exact = analyze(layout, options);
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
  const BusLayout layout = make_layout(tiny.app, tiny.params, tiny.config);
  AnalysisOptions options = exact_options();
  options.exact.max_states = 0;
  const AnalysisResult exact = analyze(layout, options);
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
  const BusLayout layout = make_layout(app.value(), params, start.config);

  AnalysisComponentCache cache;
  AnalysisWorkCounters counters;
  auto first = analyze_system_exact(layout, exact_options(), &counters, {}, &cache);
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_NE(first.value().exact, nullptr);
  ASSERT_EQ(first.value().exact->fallback, ExactFallback::None);
  EXPECT_EQ(counters.exact_frontier_reused, 0u);
  EXPECT_EQ(counters.exact_states_explored, first.value().exact->explored_states);

  const AnalysisWorkCounters cold = counters;
  auto second = analyze_system_exact(layout, exact_options(), &counters, {}, &cache);
  ASSERT_TRUE(second.ok()) << second.error().message;
  const AnalysisWorkCounters warm = counters.since(cold);
  EXPECT_EQ(warm.exact_frontier_reused, 1u);
  EXPECT_EQ(warm.exact_states_explored, 0u);
  ASSERT_NE(second.value().exact, nullptr);
  EXPECT_EQ(second.value().exact->explored_states, first.value().exact->explored_states);
  EXPECT_EQ(second.value().exact->merged_states, first.value().exact->merged_states);
  EXPECT_EQ(second.value().exact->transitions, first.value().exact->transitions);
  EXPECT_EQ(second.value().task_completion, first.value().task_completion);
  EXPECT_EQ(second.value().message_completion, first.value().message_completion);
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
  const AnalysisResult exact = analyze(layout, exact_options());
  ASSERT_NE(exact.exact, nullptr);
  EXPECT_EQ(exact.exact->fallback, ExactFallback::NoDynMessages);
  EXPECT_EQ(exact.exact->explored_states, 0u);
  EXPECT_EQ(exact.task_completion, holistic.task_completion);
  EXPECT_EQ(exact.message_completion, holistic.message_completion);
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
