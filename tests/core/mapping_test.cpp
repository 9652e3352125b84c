// Task-mapping outer loop: logical-application materialisation and the
// hill-climbing exploration around the bus access optimiser.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "flexopt/core/mapping.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/figures.hpp"

namespace flexopt {
namespace {

/// Two graphs (one TT, one ET), six tasks, a flow chain in each.
LogicalApplication small_logical() {
  LogicalApplication l;
  l.node_count = 3;
  l.graphs.push_back({"tt", timeunits::ms(10), timeunits::ms(10), true});
  l.graphs.push_back({"et", timeunits::ms(20), timeunits::ms(20), false});
  for (int i = 0; i < 3; ++i) {
    const std::string index = std::to_string(i);
    l.tasks.push_back({std::string("t").append(index), 0, timeunits::us(300 + 100 * i), i});
  }
  for (int i = 0; i < 3; ++i) {
    const std::string index = std::to_string(i);
    l.tasks.push_back({std::string("e").append(index), 1, timeunits::us(200 + 100 * i), i});
  }
  l.flows.push_back({0, 1, 8, 0});
  l.flows.push_back({1, 2, 8, 1});
  l.flows.push_back({3, 4, 6, 0});
  l.flows.push_back({4, 5, 6, 1});
  return l;
}

TEST(LogicalApplication, ValidatesStructure) {
  EXPECT_TRUE(small_logical().validate().ok());

  LogicalApplication no_nodes = small_logical();
  no_nodes.node_count = 1;
  EXPECT_FALSE(no_nodes.validate().ok());

  LogicalApplication cross_graph = small_logical();
  cross_graph.flows.push_back({0, 3, 4, 0});  // tt -> et
  EXPECT_FALSE(cross_graph.validate().ok());

  LogicalApplication bad_flow = small_logical();
  bad_flow.flows.push_back({0, 99, 4, 0});
  EXPECT_FALSE(bad_flow.validate().ok());
}

TEST(LogicalApplication, MaterializeTurnsCrossingsIntoMessages) {
  const LogicalApplication l = small_logical();
  // Mapping: t0,t1 on node0 (local flow), t2 on node1 (crossing);
  // e0,e1,e2 on nodes 0,1,2 (two crossings).
  const std::vector<int> mapping{0, 0, 1, 0, 1, 2};
  auto app = l.materialize(mapping);
  ASSERT_TRUE(app.ok()) << app.error().message;
  EXPECT_EQ(app.value().message_count(), 3u);
  EXPECT_EQ(app.value().task_count(), 6u);
  // Message classes follow the graph trigger.
  for (const auto& m : app.value().messages()) {
    const bool tt = app.value().task(m.sender).policy == TaskPolicy::Scs;
    EXPECT_EQ(m.cls == MessageClass::Static, tt);
  }
}

TEST(LogicalApplication, MaterializeAllOnOneNodePlusPeerHasNoMessages) {
  const LogicalApplication l = small_logical();
  const std::vector<int> mapping{0, 0, 0, 0, 0, 0};
  auto app = l.materialize(mapping);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app.value().message_count(), 0u);
}

TEST(LogicalApplication, MaterializeRejectsBadMapping) {
  const LogicalApplication l = small_logical();
  EXPECT_FALSE(l.materialize(std::vector<int>{0, 0}).ok());           // size
  EXPECT_FALSE(l.materialize(std::vector<int>{0, 0, 0, 0, 0, 9}).ok());  // range
}

TEST(LogicalApplication, BalancedMappingUsesAllNodesAndBalancesLoad) {
  LogicalApplication l = small_logical();
  const std::vector<int> mapping = l.balanced_mapping();
  ASSERT_EQ(mapping.size(), l.tasks.size());
  std::vector<double> load(static_cast<std::size_t>(l.node_count), 0.0);
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    load[static_cast<std::size_t>(mapping[i])] +=
        static_cast<double>(l.tasks[i].wcet) /
        static_cast<double>(l.graphs[l.tasks[i].graph].period);
  }
  const double max_load = *std::max_element(load.begin(), load.end());
  const double min_load = *std::min_element(load.begin(), load.end());
  EXPECT_GT(min_load, 0.0);  // every node used
  EXPECT_LT(max_load - min_load, 0.1);
}

TEST(MappingOptimizer, FindsFeasibleMappingForSmallSystem) {
  const LogicalApplication l = small_logical();
  CurveFitDynSearch strategy;
  MappingOptions options;
  options.moves_per_restart = 10;
  auto outcome = optimize_mapping(l, didactic_params(), AnalysisOptions{}, strategy, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_TRUE(outcome.value().bus.feasible);
  EXPECT_GE(outcome.value().mappings_tried, 1);
  EXPECT_GT(outcome.value().evaluations, 0);
}

TEST(MappingOptimizer, DeterministicPerSeed) {
  const LogicalApplication l = small_logical();
  CurveFitDynSearch s1;
  CurveFitDynSearch s2;
  MappingOptions options;
  options.moves_per_restart = 6;
  options.stop_at_first_feasible = false;
  auto a = optimize_mapping(l, didactic_params(), AnalysisOptions{}, s1, options);
  auto b = optimize_mapping(l, didactic_params(), AnalysisOptions{}, s2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().mapping, b.value().mapping);
  EXPECT_DOUBLE_EQ(a.value().bus.cost.value, b.value().bus.cost.value);
}

TEST(MappingOptimizer, NeverWorseThanBalancedStart) {
  const LogicalApplication l = small_logical();
  CurveFitDynSearch strategy;
  // Score the balanced mapping directly.
  auto app = l.materialize(l.balanced_mapping());
  ASSERT_TRUE(app.ok());
  auto baseline_optimizer = OptimizerRegistry::create("obc-cf");
  ASSERT_TRUE(baseline_optimizer.ok());
  CostEvaluator evaluator(app.value(), didactic_params(), AnalysisOptions{});
  const OptimizationOutcome baseline = baseline_optimizer.value()->solve(evaluator).outcome;

  MappingOptions options;
  options.moves_per_restart = 8;
  options.stop_at_first_feasible = false;
  auto outcome = optimize_mapping(l, didactic_params(), AnalysisOptions{}, strategy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.value().bus.cost.value, baseline.cost.value + 1e-9);
}

TEST(MappingOptimizer, RejectsInvalidLogicalApplication) {
  LogicalApplication bad = small_logical();
  bad.node_count = 0;
  CurveFitDynSearch strategy;
  EXPECT_FALSE(
      optimize_mapping(bad, didactic_params(), AnalysisOptions{}, strategy).ok());
}

}  // namespace
}  // namespace flexopt
