// Unit tests of the multi-cluster network simulator: single-cluster
// degeneration to simulate(), end-to-end relay chains over the gateway,
// router queue accounting, observed-vs-bound soundness and the
// deterministic flexopt-netsim-trace/1 serialization.

#include <gtest/gtest.h>

#include <memory>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/netsim/trace_json.hpp"
#include "flexopt/sim/simulator.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::TinySystem;
using testing::TwoClusterSystem;

SystemConfig start_configs(const SystemModel& model, const BusParams& params) {
  SystemConfig config;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    config.clusters.push_back(
        ClusterConfig::flexray_bus(minimal_start_config(*model.cluster_app(c), params).config));
  }
  return config;
}

struct Network {
  SystemModel model;
  std::vector<ClusterLayout> layouts;
  MulticlusterResult analysis;
};

Network prepare(const Application& app, const BusParams& params) {
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  const SystemConfig config = start_configs(model.value(), params);
  auto layouts = build_system_layouts(model.value(), params, config);
  if (!layouts.ok()) throw std::runtime_error(layouts.error().message);
  auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  if (!analysis.ok()) throw std::runtime_error(analysis.error().message);
  return Network{std::move(model).value(), std::move(layouts).value(),
                 std::move(analysis).value()};
}

TEST(NetSim, SingleClusterDegeneratesToSimulate) {
  TinySystem tiny;
  auto model = SystemModel::build(std::make_shared<const Application>(tiny.app));
  ASSERT_TRUE(model.ok());
  auto layouts =
      build_system_layouts(model.value(), tiny.params, SystemConfig::single(tiny.config));
  ASSERT_TRUE(layouts.ok());
  auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(analysis.ok());

  NetSimOptions options;
  options.record_trace = true;
  auto net = simulate_network(model.value(), layouts.value(), analysis.value(), options);
  ASSERT_TRUE(net.ok()) << net.error().message;

  SimOptions sim_options;
  sim_options.record_trace = true;
  auto sim = simulate(layouts.value()[0].flexray(), analysis.value().clusters[0].schedule(),
                      sim_options);
  ASSERT_TRUE(sim.ok());

  EXPECT_EQ(net.value().task_worst_completion, sim.value().task_worst_completion);
  EXPECT_EQ(net.value().message_worst_completion, sim.value().message_worst_completion);
  EXPECT_EQ(net.value().unfinished_jobs, sim.value().unfinished_jobs);
  EXPECT_EQ(net.value().clusters[0].trace.size(), sim.value().trace.size());
  EXPECT_TRUE(net.value().gateways.empty());
  EXPECT_GT(net.value().events, 0u);
}

TEST(NetSim, TwoClusterChainDeliversEndToEnd) {
  TwoClusterSystem sys;
  const Network net = prepare(sys.app, sys.params);
  auto result = simulate_network(net.model, net.layouts, net.analysis);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const NetSimResult& r = result.value();

  EXPECT_EQ(r.unfinished_jobs, 0);
  EXPECT_EQ(r.precedence_violations, 0);
  // src -> m_local -> mid -> m_cross -> sink, strictly ordered.
  const Time src_done = r.task_worst_completion[index_of(sys.src)];
  const Time local_done = r.message_worst_completion[index_of(sys.local_msg)];
  const Time mid_done = r.task_worst_completion[index_of(sys.mid)];
  const Time cross_done = r.message_worst_completion[index_of(sys.cross_msg)];
  const Time sink_done = r.task_worst_completion[index_of(sys.sink)];
  ASSERT_NE(sink_done, kTimeNone);
  EXPECT_LT(src_done, local_done);
  EXPECT_LT(local_done, mid_done);
  EXPECT_LT(mid_done, cross_done);
  EXPECT_LT(cross_done, sink_done);

  // One gateway transition; every instance crossed it without overflow.
  ASSERT_EQ(r.gateways.size(), 1u);
  EXPECT_EQ(r.gateways[0].from_cluster, 0u);
  EXPECT_EQ(r.gateways[0].to_cluster, 1u);
  const Time period = sys.app.period_of(ActivityRef::message(sys.cross_msg));
  EXPECT_EQ(r.gateways[0].forwarded, r.horizon / period);
  EXPECT_GE(r.gateways[0].max_queue_depth, 1);
  EXPECT_EQ(r.gateways[0].overflows, 0);

  // Latency distributions carry one sample per delivered instance.
  const LatencyStat& cross = r.message_latency[index_of(sys.cross_msg)];
  EXPECT_EQ(cross.count, static_cast<std::size_t>(r.horizon / period));
  EXPECT_LE(cross.min, cross.p50);
  EXPECT_LE(cross.p50, cross.p99);
  EXPECT_LE(cross.p99, cross.max);
  EXPECT_EQ(static_cast<Time>(cross.max), cross_done);
}

TEST(NetSim, LatencyStatsDegenerateDistributions) {
  // TinySystem's graphs all share the 100us hyperperiod, so every task has
  // one instance per hyperperiod and the deterministic table repeats
  // exactly: the observed latency distribution is fully degenerate.  The
  // percentile edges this pins down: a single sample (hyperperiods = 1)
  // and an all-equal sample (hyperperiods = 4) must both collapse every
  // statistic to that one latency, with no interpolation noise.
  TinySystem tiny;
  auto model = SystemModel::build(std::make_shared<const Application>(tiny.app));
  ASSERT_TRUE(model.ok());
  auto layouts =
      build_system_layouts(model.value(), tiny.params, SystemConfig::single(tiny.config));
  ASSERT_TRUE(layouts.ok());
  auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(analysis.ok());

  for (const int hyperperiods : {1, 4}) {
    NetSimOptions options;
    options.hyperperiods = hyperperiods;
    auto net = simulate_network(model.value(), layouts.value(), analysis.value(), options);
    ASSERT_TRUE(net.ok()) << net.error().message;
    const LatencyStat& stat = net.value().task_latency[index_of(tiny.producer)];
    // The horizon is aligned to the bus cycle as well as the graph
    // hyperperiod, so the instance count only scales with (not equals)
    // `hyperperiods` — what matters here is single vs many samples.
    ASSERT_GE(stat.count, static_cast<std::size_t>(hyperperiods));
    EXPECT_DOUBLE_EQ(stat.min, stat.max);
    EXPECT_DOUBLE_EQ(stat.p50, stat.min);
    EXPECT_DOUBLE_EQ(stat.p99, stat.min);
    EXPECT_DOUBLE_EQ(stat.mean, stat.min);
  }
}

TEST(NetSim, ObservationsStayWithinAnalysedBounds) {
  TwoClusterSystem sys;
  const Network net = prepare(sys.app, sys.params);
  auto result = simulate_network(net.model, net.layouts, net.analysis);
  ASSERT_TRUE(result.ok());
  const SoundnessReport report = check_soundness(net.model, net.analysis, result.value());
  EXPECT_TRUE(report.sound);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_GT(report.checked, 0u);
  EXPECT_GT(report.gap_samples, 0u);
  EXPECT_GE(report.mean_gap, 0.0);
  EXPECT_GE(report.mean_gap, report.min_gap);
}

TEST(NetSim, CrossClusterTraceRecordsBothHops) {
  TwoClusterSystem sys;
  const Network net = prepare(sys.app, sys.params);
  NetSimOptions options;
  options.record_trace = true;
  auto result = simulate_network(net.model, net.layouts, net.analysis, options);
  ASSERT_TRUE(result.ok());

  bool saw_cross = false;
  for (const MessageTrace& trace : result.value().traces) {
    if (index_of(trace.message) != index_of(sys.cross_msg)) continue;
    saw_cross = true;
    ASSERT_EQ(trace.hops.size(), 2u);
    EXPECT_EQ(trace.hops[0].cluster, 0u);
    EXPECT_EQ(trace.hops[0].hop_index, 0);
    EXPECT_EQ(trace.hops[0].gateway_wait, 0);
    EXPECT_EQ(trace.hops[1].cluster, 1u);
    EXPECT_EQ(trace.hops[1].hop_index, 1);
    // The frame entered cluster 1 when hop 0 finished on bus 0, waited in
    // the gateway for the forwarding relay, then hit bus 1.
    EXPECT_EQ(trace.hops[1].enter, trace.hops[0].bus_finish);
    EXPECT_GT(trace.hops[1].gateway_wait, 0);
    EXPECT_GE(trace.hops[1].bus_start, trace.hops[1].enter + trace.hops[1].gateway_wait);
    EXPECT_LT(trace.hops[1].bus_start, trace.hops[1].bus_finish);
  }
  EXPECT_TRUE(saw_cross);

  // Per-cluster transmission records carry the cluster / hop stamps.
  bool saw_hop1_record = false;
  for (const TransmissionRecord& rec : result.value().clusters[1].trace) {
    if (rec.hop_index == 1) {
      saw_hop1_record = true;
      EXPECT_EQ(rec.cluster, 1u);
    }
  }
  EXPECT_TRUE(saw_hop1_record);
}

TEST(NetSim, MultiHyperperiodHorizonIsSharedAndAligned) {
  TwoClusterSystem sys;
  const Network net = prepare(sys.app, sys.params);
  NetSimOptions options;
  options.hyperperiods = 2;
  auto result = simulate_network(net.model, net.layouts, net.analysis, options);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const Time H = net.analysis.clusters[0].schedule().hyperperiod();
  EXPECT_GE(result.value().horizon, 2 * H);
  EXPECT_EQ(result.value().horizon % H, 0);
  for (const ClusterLayout& layout : net.layouts) {
    EXPECT_EQ(result.value().horizon % layout.cycle_len(), 0);
  }
  EXPECT_EQ(result.value().unfinished_jobs, 0);
  const SoundnessReport report = check_soundness(net.model, net.analysis, result.value());
  EXPECT_TRUE(report.sound);
}

TEST(NetSim, TraceJsonIsByteIdenticalAcrossRuns) {
  TwoClusterSystem sys;
  const Network net = prepare(sys.app, sys.params);
  NetSimOptions options;
  options.record_trace = true;
  auto json = [&] {
    auto result = simulate_network(net.model, net.layouts, net.analysis, options);
    if (!result.ok()) throw std::runtime_error(result.error().message);
    const SoundnessReport report = check_soundness(net.model, net.analysis, result.value());
    return write_netsim_trace_json(net.model, net.analysis, result.value(), report);
  };
  const std::string first = json();
  const std::string second = json();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"schema\": \"flexopt-netsim-trace/1\""), std::string::npos);
  EXPECT_NE(first.find("\"sound\": true"), std::string::npos);
}

}  // namespace
}  // namespace flexopt
