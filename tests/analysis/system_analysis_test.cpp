// Holistic system analysis: TT completions from the table, ET completions
// via jitter propagation, cost integration, and divergence handling.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/io/system_format.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::make_layout;
using testing::TinySystem;

/// A two-graph system (TT control chain, ET telemetry pair) whose graphs
/// both have period `period`, in the text format the CLI reads.
ParsedSystem two_graph_system(const std::string& period) {
  auto parsed = parse_system_text(
      "node engine\nnode brake\n"
      "graph control tt period=" + period + " deadline=10ms\n"
      "task sample graph=control node=engine wcet=400us\n"
      "task compute graph=control node=brake wcet=900us\n"
      "task actuate graph=control node=engine wcet=300us\n"
      "message setpoint from=sample to=compute bytes=8\n"
      "message torque from=compute to=actuate bytes=6\n"
      "graph telemetry et period=" + period + " deadline=20ms\n"
      "task collect graph=telemetry node=brake wcet=500us prio=1\n"
      "task display graph=telemetry node=engine wcet=700us prio=2\n"
      "message speed from=collect to=display bytes=16\n");
  if (!parsed.ok()) throw std::runtime_error(parsed.error().message);
  return std::move(parsed).value();
}

// A hyper-period of 2.5e18 ns fits Time, but the response horizon, four
// times it, does not.  Unchecked, the product wrapped and every FPS bound
// came out unbounded, so a schedulable system read as unschedulable.
TEST(SystemAnalysis, OverflowingHorizonFailsNamingTheHyperPeriod) {
  const ParsedSystem sys = two_graph_system("2500000000s");
  const std::string hyperperiod = "hyper-period 2500000000000000000 ns";
  const auto horizon = analysis_horizon(sys.app);
  ASSERT_FALSE(horizon.ok());
  EXPECT_NE(horizon.error().message.find(hyperperiod), std::string::npos)
      << horizon.error().message;

  const StartConfig start = minimal_start_config(sys.app, sys.params);
  const BusLayout layout = make_layout(sys.app, sys.params, start.config);
  const auto result = analyze_system(layout);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find(hyperperiod), std::string::npos)
      << result.error().message;
  const auto schedule = build_static_schedule(layout);
  ASSERT_FALSE(schedule.ok());
  EXPECT_NE(schedule.error().message.find("list scheduler: " + hyperperiod), std::string::npos)
      << schedule.error().message;
}

// 2e18 ns: four times it (8e18 ns) still fits, and the analysis bounds the
// FPS task the overflowing variant reported unbounded.
TEST(SystemAnalysis, LongestFittingHorizonIsAnalysed) {
  const ParsedSystem sys = two_graph_system("2000000000s");
  ASSERT_TRUE(analysis_horizon(sys.app).ok());
  const StartConfig start = minimal_start_config(sys.app, sys.params);
  const BusLayout layout = make_layout(sys.app, sys.params, start.config);
  const auto result = analyze_system(layout);
  ASSERT_TRUE(result.ok()) << result.error().message;
  std::size_t collect = 0;
  while (collect < sys.app.task_count() && sys.app.tasks()[collect].name != "collect") ++collect;
  ASSERT_LT(collect, sys.app.task_count());
  EXPECT_EQ(result.value().task_completion[collect], timeunits::us(1400));
}

TEST(SystemAnalysis, TinySystemIsSchedulable) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  const auto result = analyze_system(layout);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_TRUE(result.value().schedulable());
  EXPECT_LE(result.value().cost.value, 0.0);
}

TEST(SystemAnalysis, TtCompletionsComeFromTable) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  const auto result = analyze_system(layout);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  EXPECT_EQ(r.task_completion[index_of(sys.producer)],
            r.schedule().task_wcrt(sys.producer));
  EXPECT_EQ(r.message_completion[index_of(sys.st_msg)],
            r.schedule().message_wcrt(sys.st_msg));
}

TEST(SystemAnalysis, EtCompletionsChainThroughJitter) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  const auto result = analyze_system(layout);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  // fps -> dyn -> fps_sink: completions strictly increase along the chain.
  EXPECT_LT(r.task_completion[index_of(sys.fps_task)],
            r.message_completion[index_of(sys.dyn_msg)]);
  EXPECT_LT(r.message_completion[index_of(sys.dyn_msg)],
            r.task_completion[index_of(sys.fps_sink)]);
  // The message inherits the sender's completion as jitter.
  EXPECT_EQ(r.message_jitter[index_of(sys.dyn_msg)],
            r.task_completion[index_of(sys.fps_task)]);
}

TEST(SystemAnalysis, OverloadedNodeReportsUnschedulable) {
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId et = app.add_graph("et", timeunits::us(100), timeunits::us(100));
  // Two FPS tasks with 120% combined utilisation on one node.
  app.add_task(et, "f1", n0, timeunits::us(70), TaskPolicy::Fps, 0);
  app.add_task(et, "f2", n0, timeunits::us(50), TaskPolicy::Fps, 1);
  app.add_task(et, "peer", n1, timeunits::us(1), TaskPolicy::Fps, 0);
  ASSERT_TRUE(app.finalize().ok());
  BusConfig config;
  config.minislot_count = 10;
  config.frame_id.assign(app.message_count(), 0);
  const BusLayout layout = make_layout(app, didactic_params(), config);
  const auto result = analyze_system(layout);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().schedulable());
  EXPECT_GT(result.value().cost.value, 0.0);
  EXPECT_EQ(result.value().task_completion[1], kTimeInfinity);
}

TEST(SystemAnalysis, UntransmittableDynMessagePoisonsItsChain) {
  // DYN message with FrameID beyond pLatestTx: its receiver must also be
  // reported unbounded.
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId et = app.add_graph("et", timeunits::us(100), timeunits::us(100));
  const TaskId s = app.add_task(et, "s", n0, 1, TaskPolicy::Fps, 0);
  const TaskId r = app.add_task(et, "r", n1, 1, TaskPolicy::Fps, 1);
  const MessageId m = app.add_message(et, "m", s, r, 4, MessageClass::Dynamic, 0);
  ASSERT_TRUE(app.finalize().ok());
  BusConfig config;
  config.minislot_count = 4;       // frame needs 4 minislots -> pLTx = 1
  config.frame_id.assign(app.message_count(), 0);
  config.frame_id[index_of(m)] = 3;  // 3 > pLTx: never transmittable
  const BusLayout layout = make_layout(app, didactic_params(), config);
  const auto result = analyze_system(layout);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().message_completion[index_of(m)], kTimeInfinity);
  EXPECT_EQ(result.value().task_completion[index_of(r)], kTimeInfinity);
  EXPECT_FALSE(result.value().schedulable());
}

TEST(SystemAnalysis, ReleaseOffsetShiftsEtCompletion) {
  TinySystem plain;
  const BusLayout layout0 = make_layout(plain.app, plain.params, plain.config);
  const auto base = analyze_system(layout0);
  ASSERT_TRUE(base.ok());

  TinySystem offset;
  offset.app.set_task_release_offset(offset.fps_task, timeunits::us(20));
  const BusLayout layout1 = make_layout(offset.app, offset.params, offset.config);
  const auto shifted = analyze_system(layout1);
  ASSERT_TRUE(shifted.ok());
  EXPECT_GE(shifted.value().task_completion[index_of(offset.fps_task)],
            base.value().task_completion[index_of(plain.fps_task)] + timeunits::us(20));
}

TEST(SystemAnalysis, CostMatchesCompletions) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  const auto result = analyze_system(layout);
  ASSERT_TRUE(result.ok());
  const Cost recomputed = evaluate_cost(sys.app, result.value().task_completion,
                                        result.value().message_completion);
  EXPECT_DOUBLE_EQ(recomputed.value, result.value().cost.value);
  EXPECT_EQ(recomputed.schedulable, result.value().cost.schedulable);
}

}  // namespace
}  // namespace flexopt
