// Property suite for the multi-cluster pipeline: across random
// MultiCluster ScenarioSpecs (2-4 clusters, varying inter-cluster share),
// (a) the coordinate-descent solve with a racing portfolio is
// byte-identical between jobs=1 and a parallel run — the acceptance
// determinism contract — (b) an evaluator whose component caches a walk of
// random cluster moves has warmed matches a fresh evaluator bit for bit,
// and so do the same moves through the BusConfig forms on the worker slots
// of a warm memo-off evaluator (tests/property/slot_forms.hpp), and (c) a
// recorded digest pins the solves of every algorithm over a small 2-4
// cluster grid.  The population size is sized for the sanitize CI lane
// (Debug + ASan re-runs every evaluation on call-local caches through the
// in-tree bit-identity assertions, a ~100x multiplier over Release).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "flexopt/util/rng.hpp"
#include "property/slot_forms.hpp"

namespace flexopt {
namespace {

constexpr int kScenarios = 12;
constexpr long kBudget = 72;

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.topology = Topology::MultiCluster;
  spec.traffic = TrafficMix::DynOnly;
  spec.clusters = static_cast<int>(rng.uniform_int(2, 4));
  spec.inter_cluster_share = rng.uniform_real(0.1, 0.5);
  SyntheticSpec& base = spec.base;
  base.nodes = spec.clusters * static_cast<int>(rng.uniform_int(1, 2));
  base.tasks_per_graph = 4;
  base.tasks_per_node = 4 * static_cast<int>(rng.uniform_int(1, 2));
  base.deadline_factor = rng.uniform_real(1.5, 2.5);
  base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

SystemModel make_model(const ScenarioSpec& spec, const BusParams& params) {
  auto app = generate_scenario(spec, params);
  if (!app.ok()) throw std::runtime_error(app.error().message);
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  return std::move(model).value();
}

TEST(MulticlusterProperty, PortfolioDescentIsJobCountInvariant) {
  Rng rng(20260730);
  const BusParams params;
  for (int i = 0; i < kScenarios; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    const SystemModel model = make_model(spec, params);
    auto solve = [&](int jobs) {
      PortfolioSpec portfolio;
      portfolio.members = {"sa", "obc-cf", "bbc"};
      portfolio.jobs = jobs;
      auto optimizer = OptimizerRegistry::create("portfolio", portfolio);
      if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
      EvaluatorOptions options;
      options.threads = 1;
      CostEvaluator evaluator(model, params, AnalysisOptions{}, options);
      SolveRequest request;
      request.seed = spec.base.seed;
      request.max_evaluations = kBudget;
      const SolveReport report = optimizer.value()->solve(evaluator, request);
      return write_solve_json(*model.global(), "portfolio", report);
    };
    const std::string serial = solve(1);
    EXPECT_EQ(serial, solve(8)) << "scenario " << i << " seed " << spec.base.seed;
  }
}

TEST(MulticlusterProperty, ClusterMovesOnAWarmedEvaluatorMatchAFreshOne) {
  Rng rng(424242);
  const BusParams params;
  for (int i = 0; i < kScenarios; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    const SystemModel model = make_model(spec, params);
    CostEvaluator evaluator(model, params, AnalysisOptions{});
    CostEvaluator slots(model, params, AnalysisOptions{}, testing::slot_forms_options());

    // Start from a solved-ish product (one cheap bbc descent), then walk a
    // short random chain of cluster moves comparing warmed vs fresh.
    auto bbc = OptimizerRegistry::create("bbc");
    ASSERT_TRUE(bbc.ok());
    SolveRequest request;
    request.max_evaluations = 32;
    SystemConfig base = bbc.value()->solve(evaluator, request).outcome.system;
    ASSERT_EQ(base.cluster_count(), model.cluster_count());

    for (int step = 0; step < 4; ++step) {
      const int cluster = static_cast<int>(rng.index(model.cluster_count()));
      BusConfig next = base.clusters[static_cast<std::size_t>(cluster)].flexray;
      // Random admissible mutation: DYN length nudge or a FrameID swap
      // between two DYN messages (an inadmissible swap makes both
      // evaluations invalid, which the equality assertions below still
      // cover).
      std::vector<std::size_t> dyn_slots;
      for (std::size_t m = 0; m < next.frame_id.size(); ++m) {
        if (next.frame_id[m] > 0) dyn_slots.push_back(m);
      }
      if (rng.chance(0.5) || dyn_slots.size() < 2) {
        next.minislot_count += static_cast<int>(rng.uniform_int(1, 8));
      } else {
        const std::size_t a = dyn_slots[rng.index(dyn_slots.size())];
        const std::size_t b = dyn_slots[rng.index(dyn_slots.size())];
        std::swap(next.frame_id[a], next.frame_id[b]);
        if (a == b) next.minislot_count += 1;  // degenerate swap: still move
      }
      SystemConfig substituted = base;
      substituted.clusters[static_cast<std::size_t>(cluster)] = ClusterConfig::flexray_bus(next);

      const auto warm = evaluator.evaluate_system(substituted);
      CostEvaluator fresh(model, params, AnalysisOptions{});
      const auto full = fresh.evaluate_system(substituted);
      testing::expect_slot_forms_match(
          slots, base, static_cast<std::size_t>(cluster), next, full, fresh.evaluate_system(base),
          "scenario " + std::to_string(i) + " step " + std::to_string(step));
      ASSERT_EQ(warm.valid, full.valid) << "scenario " << i << " step " << step;
      if (!warm.valid) continue;
      EXPECT_EQ(warm.cost.value, full.cost.value) << "scenario " << i << " step " << step;
      EXPECT_EQ(warm.cost.schedulable, full.cost.schedulable);
      for (std::size_t c = 0; c < model.cluster_count(); ++c) {
        EXPECT_EQ(warm.cluster_analysis[c].task_completion,
                  full.cluster_analysis[c].task_completion);
        EXPECT_EQ(warm.cluster_analysis[c].message_completion,
                  full.cluster_analysis[c].message_completion);
      }
      base = std::move(substituted);
    }
  }
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

/// A small multi-cluster grid: 2, 3 and 4 gateway-connected clusters, each
/// with FlexRay buses only and with alternating FlexRay/TSN backends.
constexpr const char* kDigestGrid = R"(name multicluster-digest
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
)";

/// Pins the multi-cluster solve pipeline bit for bit: (cost bits, feasible,
/// evaluations, cache hits, and the solve report's `profile` work counters)
/// of bbc, obc-cf, obc-ee and sa over kDigestGrid.  Each solve runs the way
/// CampaignRunner runs it: one single-threaded evaluator per (scenario,
/// algorithm), seeded with the scenario seed.  A change to the
/// cross-cluster fixed point, the per-cluster analyses, the memo cache or a
/// solver trajectory moves the digest.
TEST(MulticlusterProperty, SolvesMatchRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 0xa5c8cc083a4028e8ull;
  auto spec = parse_campaign_text(kDigestGrid);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  const BusParams params;
  Digest digest;
  int solves = 0;
  for (const ScenarioPlan& plan : plans.value()) {
    const SystemModel model = make_model(plan.scenario, params);
    for (const char* algorithm : {"bbc", "obc-cf", "obc-ee", "sa"}) {
      auto optimizer = OptimizerRegistry::create(algorithm);
      ASSERT_TRUE(optimizer.ok()) << optimizer.error().message;
      EvaluatorOptions options;
      options.threads = 1;
      CostEvaluator evaluator(model, params, AnalysisOptions{}, options);
      SolveRequest request;
      request.seed = plan.scenario.base.seed;
      request.max_evaluations = spec.value().max_evaluations;
      const SolveReport report = optimizer.value()->solve(evaluator, request);
      const AnalysisWorkCounters& work = report.profile.analysis;
      digest.mix(plan.index);
      digest.mix(std::bit_cast<std::uint64_t>(report.outcome.cost.value));
      digest.mix(report.outcome.feasible ? 1u : 0u);
      digest.mix(static_cast<std::uint64_t>(report.outcome.evaluations));
      digest.mix(report.cache_hits);
      digest.mix(work.holistic_iterations);
      digest.mix(work.fixed_point_iterations);
      digest.mix(work.fps_analyses);
      digest.mix(work.fps_skipped);
      digest.mix(work.dyn_analyses);
      digest.mix(work.dyn_skipped);
      digest.mix(work.schedule_builds);
      digest.mix(work.schedule_reuses);
      digest.mix(work.exact_states_explored);
      digest.mix(work.exact_states_deduped);
      digest.mix(work.exact_frontier_reused);
      digest.mix(report.profile.full_evaluations);
      digest.mix(report.profile.components_per_evaluation.count());
      digest.mix(report.profile.components_per_evaluation.sum());
      ++solves;
    }
  }
  EXPECT_EQ(solves, 24);
  EXPECT_EQ(digest.h, kRecordedDigest) << std::hex << "0x" << digest.h;
}

}  // namespace
}  // namespace flexopt
