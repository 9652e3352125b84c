// Campaign spec-file parser tests: keyword coverage, axis replacement and
// extension semantics, and line-numbered errors.

#include <gtest/gtest.h>

#include "flexopt/campaign/spec_format.hpp"

namespace flexopt {
namespace {

TEST(CampaignSpecFormat, ParsesEveryKeyword) {
  auto spec = parse_campaign_text(
      "# full-keyword example\n"
      "name demo\n"
      "nodes 2 3 4\n"
      "topology random-dag gateway\n"
      "traffic mixed st-only\n"
      "node_util 0.25:0.45 0.5:0.7\n"
      "bus_util 0.1:0.4\n"
      "periods 20ms 40ms\n"
      "periods 10ms 30ms 50ms\n"
      "message_bytes 16 32\n"
      "replicates 4\n"
      "tasks_per_node 8\n"
      "tasks_per_graph 4\n"
      "tt_share 0.6\n"
      "deadline_factor 0.8\n"
      "seed 99\n"
      "algorithms bbc obc-cf\n"
      "budget 500\n"
      "time_limit 1.5\n"
      "sim_check on\n");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  const CampaignSpec& s = spec.value();
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.node_counts, (std::vector<int>{2, 3, 4}));
  ASSERT_EQ(s.topologies.size(), 2u);
  EXPECT_EQ(s.topologies[1], Topology::GatewayHeavy);
  ASSERT_EQ(s.traffic_mixes.size(), 2u);
  EXPECT_EQ(s.traffic_mixes[1], TrafficMix::StOnly);
  ASSERT_EQ(s.node_util_bands.size(), 2u);
  EXPECT_DOUBLE_EQ(s.node_util_bands[1].lo, 0.5);
  ASSERT_EQ(s.period_sets.size(), 2u);  // repeated `periods` adds an axis value
  EXPECT_EQ(s.period_sets[0], (std::vector<Time>{timeunits::ms(20), timeunits::ms(40)}));
  EXPECT_EQ(s.period_sets[1].size(), 3u);
  EXPECT_EQ(s.message_size_caps, (std::vector<int>{16, 32}));
  EXPECT_EQ(s.replicates, 4);
  EXPECT_EQ(s.tasks_per_node, 8);
  EXPECT_EQ(s.tasks_per_graph, 4);
  EXPECT_DOUBLE_EQ(s.tt_share, 0.6);
  EXPECT_DOUBLE_EQ(s.deadline_factor, 0.8);
  EXPECT_EQ(s.base_seed, 99u);
  EXPECT_EQ(s.algorithms, (std::vector<std::string>{"bbc", "obc-cf"}));
  EXPECT_EQ(s.max_evaluations, 500);
  EXPECT_DOUBLE_EQ(s.max_wall_seconds, 1.5);
  EXPECT_TRUE(s.sim_check);
}

TEST(CampaignSpecFormat, SimCheckIsAStrictBoolean) {
  EXPECT_FALSE(parse_campaign_text("sim_check maybe\n").ok());
  EXPECT_FALSE(parse_campaign_text("sim_check on off\n").ok());  // scalar keyword
  auto off = parse_campaign_text("sim_check off\n");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().sim_check);
  auto numeric = parse_campaign_text("sim_check 1\n");
  ASSERT_TRUE(numeric.ok());
  EXPECT_TRUE(numeric.value().sim_check);
}

TEST(CampaignSpecFormat, FirstAxisUseReplacesTheDefault) {
  auto spec = parse_campaign_text("nodes 5\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().node_counts, (std::vector<int>{5}));
  // Untouched axes keep their defaults.
  EXPECT_EQ(spec.value().topologies, (std::vector<Topology>{Topology::RandomDag}));
}

TEST(CampaignSpecFormat, ErrorsCarryTheLineNumber) {
  auto bad_keyword = parse_campaign_text("name ok\nfrobnicate 3\n");
  ASSERT_FALSE(bad_keyword.ok());
  EXPECT_NE(bad_keyword.error().message.find("line 2"), std::string::npos);

  auto bad_band = parse_campaign_text("node_util 0.25-0.45\n");
  ASSERT_FALSE(bad_band.ok());
  EXPECT_NE(bad_band.error().message.find("line 1"), std::string::npos);

  auto bad_duration = parse_campaign_text("name ok\n\nperiods 20parsecs\n");
  ASSERT_FALSE(bad_duration.ok());
  EXPECT_NE(bad_duration.error().message.find("line 3"), std::string::npos);

  // A period whose nanosecond scale overflows int64 is rejected, not wrapped.
  auto overflowing_period = parse_campaign_text("name ok\nperiods 20ms 9223372036854775807us\n");
  ASSERT_FALSE(overflowing_period.ok());
  EXPECT_NE(overflowing_period.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(overflowing_period.error().message.find("overflow"), std::string::npos);

  auto missing_value = parse_campaign_text("replicates\n");
  EXPECT_FALSE(missing_value.ok());

  auto bad_topology = parse_campaign_text("topology moebius\n");
  ASSERT_FALSE(bad_topology.ok());
  EXPECT_NE(bad_topology.error().message.find("moebius"), std::string::npos);

  // Scalar keywords must reject surplus values instead of silently running
  // a different experiment.
  auto surplus_scalar = parse_campaign_text("replicates 7 10\n");
  ASSERT_FALSE(surplus_scalar.ok());
  EXPECT_NE(surplus_scalar.error().message.find("single value"), std::string::npos);
  EXPECT_FALSE(parse_campaign_text("budget 600 800\n").ok());
}

TEST(CampaignSpecFormat, ParsesClusterKeywords) {
  auto spec = parse_campaign_text(
      "topology multicluster\n"
      "clusters 2 3\n"
      "inter_share 0.4\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().topologies, std::vector<Topology>{Topology::MultiCluster});
  EXPECT_EQ(spec.value().cluster_counts, (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(spec.value().inter_cluster_share, 0.4);
  // inter_share is a scalar: surplus values must error.
  EXPECT_FALSE(parse_campaign_text("inter_share 0.2 0.3\n").ok());
}

TEST(CampaignSpecFormat, ParsesBackendAxis) {
  auto spec = parse_campaign_text(
      "topology multicluster\n"
      "clusters 2\n"
      "backend flexray tsn mixed\n");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_EQ(spec.value().backends,
            (std::vector<BackendMix>{BackendMix::Flexray, BackendMix::Tsn, BackendMix::Mixed}));
  // Untouched: the axis defaults to pure FlexRay (pre-backend behaviour).
  auto plain = parse_campaign_text("nodes 4\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().backends, std::vector<BackendMix>{BackendMix::Flexray});

  // Unknown backend values fail with the line and the valid set.
  auto bad = parse_campaign_text("name ok\nbackend ethernet\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(bad.error().message.find("expected flexray, tsn or mixed"), std::string::npos);

  // A typo on the keyword itself gets the did-you-mean hint.
  auto typo = parse_campaign_text("backned tsn\n");
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.error().message.find("did you mean 'backend'"), std::string::npos);
}

TEST(CampaignSpecFormat, ParsesAnalysisModeAxis) {
  auto spec = parse_campaign_text("analysis_mode holistic exact\n");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_EQ(spec.value().analysis_modes,
            (std::vector<AnalysisMode>{AnalysisMode::Holistic, AnalysisMode::Exact}));
  // Untouched: the axis defaults to the holistic backend only.
  auto plain = parse_campaign_text("nodes 4\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().analysis_modes, std::vector<AnalysisMode>{AnalysisMode::Holistic});

  // Unknown mode values fail with the line and the valid set.
  auto bad = parse_campaign_text("name ok\nanalysis_mode oracle\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(bad.error().message.find("holistic"), std::string::npos);
  // Winner replay is the sim_check switch, not an analysis mode.
  auto simulate = parse_campaign_text("analysis_mode simulate\n");
  ASSERT_FALSE(simulate.ok());
  EXPECT_NE(simulate.error().message.find("unknown analysis mode 'simulate'"),
            std::string::npos);
}

TEST(CampaignSpecFormat, BackendAxisRejectsSingleBusFamilies) {
  // tsn/mixed require every swept topology to be multicluster: the grid is
  // rejected at expansion (spec-level, not N per-cell skips).
  auto spec = parse_campaign_text(
      "topology pipeline multicluster\n"
      "clusters 2\n"
      "backend tsn\n"
      "tasks_per_node 6\n"
      "tasks_per_graph 3\n");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  auto plans = expand_grid(spec.value());
  ASSERT_FALSE(plans.ok());
  EXPECT_NE(plans.error().message.find("requires every topology to be multicluster"),
            std::string::npos);

  // Pure-FlexRay backends stay valid with any family (the default path).
  auto flexray = parse_campaign_text(
      "topology pipeline\n"
      "backend flexray\n"
      "tasks_per_node 6\n"
      "tasks_per_graph 3\n");
  ASSERT_TRUE(flexray.ok());
  EXPECT_TRUE(expand_grid(flexray.value()).ok());
}

TEST(CampaignSpecFormat, BackendAxisMultipliesTheGrid) {
  auto spec = parse_campaign_text(
      "nodes 4\n"
      "topology multicluster\n"
      "clusters 2\n"
      "backend flexray tsn\n"
      "tasks_per_node 6\n"
      "tasks_per_graph 3\n"
      "algorithms bbc\n");
  ASSERT_TRUE(spec.ok());
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  ASSERT_EQ(plans.value().size(), 2u);
  EXPECT_EQ(plans.value()[0].scenario.backend, BackendMix::Flexray);
  EXPECT_EQ(plans.value()[1].scenario.backend, BackendMix::Tsn);
}

TEST(CampaignSpecFormat, UnknownKeywordsSuggestTheNearestSpelling) {
  // Typos fail loudly with the line number AND a "did you mean" hint.
  auto typo = parse_campaign_text("name ok\nclustres 2\n");
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(typo.error().message.find("did you mean 'clusters'"), std::string::npos);

  auto near_scalar = parse_campaign_text("tt_shore 0.5\n");
  ASSERT_FALSE(near_scalar.ok());
  EXPECT_NE(near_scalar.error().message.find("did you mean 'tt_share'"), std::string::npos);

  // Nothing close: no misleading suggestion.
  auto far = parse_campaign_text("zzzzzzzzzz 1\n");
  ASSERT_FALSE(far.ok());
  EXPECT_EQ(far.error().message.find("did you mean"), std::string::npos);
}

TEST(CampaignSpecFormat, RejectsOutOfRangeIntegers) {
  // Values past int range must error, not wrap to a different experiment.
  EXPECT_FALSE(parse_campaign_text("replicates 4294967297\n").ok());
  EXPECT_FALSE(parse_campaign_text("nodes 2 4294967298\n").ok());
}

TEST(CampaignSpecFormat, SeedCoversTheFullUnsignedRange) {
  // 2^63 is a valid uint64 seed; negatives must be rejected, not wrapped.
  auto big = parse_campaign_text("seed 9223372036854775808\n");
  ASSERT_TRUE(big.ok()) << big.error().message;
  EXPECT_EQ(big.value().base_seed, 9223372036854775808ull);
  EXPECT_FALSE(parse_campaign_text("seed -5\n").ok());
}

TEST(CampaignSpecFormat, ParsedSpecExpandsToARunnableGrid) {
  auto spec = parse_campaign_text(
      "nodes 2\n"
      "topology pipeline\n"
      "replicates 2\n"
      "tasks_per_node 6\n"
      "tasks_per_graph 3\n"
      "algorithms bbc\n");
  ASSERT_TRUE(spec.ok());
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  EXPECT_EQ(plans.value().size(), 2u);
}

}  // namespace
}  // namespace flexopt
