// Cross-cluster fixed-point analysis: degenerate bit-identity with
// analyze_system, gateway jitter coupling, end-to-end bounds, and the
// global Eq. 5 switch.

#include <gtest/gtest.h>

#include <memory>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/core/config_builder.hpp"
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

TEST(Multicluster, SingleClusterIsBitIdenticalToAnalyzeSystem) {
  testing::TinySystem tiny;
  auto model = SystemModel::build(std::make_shared<const Application>(tiny.app));
  ASSERT_TRUE(model.ok());
  auto layouts = build_system_layouts(model.value(), tiny.params,
                                      SystemConfig::single(tiny.config));
  ASSERT_TRUE(layouts.ok());

  auto combined = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(combined.ok());
  const AnalysisResult reference =
      testing::analyze(testing::make_layout(tiny.app, tiny.params, tiny.config));

  const AnalysisResult& cluster = combined.value().clusters[0];
  EXPECT_EQ(cluster.task_completion, reference.task_completion);
  EXPECT_EQ(cluster.message_completion, reference.message_completion);
  EXPECT_EQ(cluster.task_jitter, reference.task_jitter);
  EXPECT_EQ(cluster.message_jitter, reference.message_jitter);
  EXPECT_EQ(combined.value().cost.value, reference.cost.value);
  EXPECT_EQ(combined.value().cost.schedulable, reference.cost.schedulable);
  EXPECT_EQ(combined.value().converged, reference.converged);
}

TEST(Multicluster, GatewayJitterGatesDownstreamDelivery) {
  testing::TwoClusterSystem sys;
  auto model = SystemModel::build(std::make_shared<const Application>(sys.app));
  ASSERT_TRUE(model.ok());
  const SystemModel& m = model.value();
  const SystemConfig config = start_configs(m, sys.params);
  auto layouts = build_system_layouts(m, sys.params, config);
  ASSERT_TRUE(layouts.ok());

  auto result = analyze_multicluster(m, layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(result.ok());
  const MulticlusterResult& r = result.value();
  ASSERT_TRUE(r.converged);
  // The coupling needs at least one extra sweep to propagate upstream
  // completions into cluster 1.
  EXPECT_GE(r.cross_iterations, 2);
  // Only cluster 1 receives injected jitter, so after the first sweep only
  // cluster 1 is analysed again.
  EXPECT_EQ(r.cluster_analyses, r.cross_iterations + 1);

  const RelayLink& link = m.relay_links()[0];
  const Time recv_done = r.clusters[0].task_completion[index_of(link.upstream_recv)];
  const Time send_jitter = r.clusters[1].task_jitter[index_of(link.downstream_send)];
  const Time send_done = r.clusters[1].task_completion[index_of(link.downstream_send)];
  ASSERT_FALSE(is_infinite(recv_done));
  // The forwarding relay's release jitter is floored at the upstream
  // receive relay's completion bound, and its own completion includes the
  // forwarding WCET on top.
  EXPECT_GE(send_jitter, recv_done);
  EXPECT_GE(send_done, send_jitter + m.options().relay_forward_wcet);

  // End-to-end: the final delivery hop completes after the upstream chain.
  const auto& hops = m.message_hops(sys.cross_msg);
  const Time hop0_done = r.clusters[0].message_completion[hops[0].index];
  const Time hop1_done = r.clusters[1].message_completion[hops[1].index];
  EXPECT_GT(hop1_done, hop0_done);
  EXPECT_GE(hop1_done, send_done);
}

TEST(Multicluster, CostAppliesGlobalSwitch) {
  // Make cluster 1's delivery miss its deadline by shrinking the graph
  // deadline; the *system* cost must flip to the overshoot sum even though
  // cluster 0 alone stays schedulable.
  testing::TwoClusterSystem sys;
  auto model0 = SystemModel::build(std::make_shared<const Application>(sys.app));
  ASSERT_TRUE(model0.ok());
  const SystemConfig config = start_configs(model0.value(), sys.params);
  auto layouts0 = build_system_layouts(model0.value(), sys.params, config);
  ASSERT_TRUE(layouts0.ok());
  auto healthy = analyze_multicluster(model0.value(), layouts0.value(), AnalysisOptions{});
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(healthy.value().cost.schedulable);

  // Tighten the deadline below the healthy end-to-end bound of the chain.
  const auto& hops = model0.value().message_hops(sys.cross_msg);
  const Time e2e = healthy.value().clusters[1].message_completion[hops[1].index];
  Application tightened = sys.app;
  tightened.set_graph_deadline(static_cast<GraphId>(0), e2e - timeunits::us(1));
  ASSERT_TRUE(tightened.finalize().ok());
  auto model1 = SystemModel::build(std::make_shared<const Application>(tightened));
  ASSERT_TRUE(model1.ok());
  auto layouts1 = build_system_layouts(model1.value(), sys.params, config);
  ASSERT_TRUE(layouts1.ok());
  auto missed = analyze_multicluster(model1.value(), layouts1.value(), AnalysisOptions{});
  ASSERT_TRUE(missed.ok());
  EXPECT_FALSE(missed.value().cost.schedulable);
  EXPECT_GT(missed.value().cost.value, 0.0);
}

TEST(Multicluster, ComponentCachesDoNotChangeResults) {
  testing::TwoClusterSystem sys;
  auto model = SystemModel::build(std::make_shared<const Application>(sys.app));
  ASSERT_TRUE(model.ok());
  const SystemConfig config = start_configs(model.value(), sys.params);
  auto layouts = build_system_layouts(model.value(), sys.params, config);
  ASSERT_TRUE(layouts.ok());

  AnalysisComponentCache cache0;
  AnalysisComponentCache cache1;
  AnalysisComponentCache* caches[] = {&cache0, &cache1};
  AnalysisWorkCounters counters;
  auto cached = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{},
                                     caches, &counters);
  auto fresh = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(fresh.ok());
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(cached.value().clusters[c].task_completion,
              fresh.value().clusters[c].task_completion);
    EXPECT_EQ(cached.value().clusters[c].message_completion,
              fresh.value().clusters[c].message_completion);
  }
  EXPECT_EQ(cached.value().cost.value, fresh.value().cost.value);
  // Schedule tables are jitter-independent: every cross sweep after the
  // first reuses them from the per-cluster caches.
  EXPECT_GT(counters.schedule_reuses, 0u);
}

}  // namespace
}  // namespace flexopt
