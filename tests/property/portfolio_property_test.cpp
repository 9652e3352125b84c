// Property suite for the portfolio determinism contract: across ~50 random
// ScenarioSpecs spanning every topology family, the winning BusConfig, its
// cost, the winner id, and every member sub-report must be bit-identical
// for jobs in {1, 2, 8} and for shuffled worker claim orders (the proxy
// for member completion order: claims decide which members race first, so
// permuting them reorders every completion).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "flexopt/core/portfolio.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kScenarios = 50;
constexpr long kBudget = 72;  // split over the members below

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.topology = static_cast<Topology>(rng.index(4));
  spec.traffic = TrafficMix::Mixed;
  SyntheticSpec& base = spec.base;
  base.nodes = static_cast<int>(rng.uniform_int(2, 4));
  base.tasks_per_graph = static_cast<int>(rng.uniform_int(2, 4));
  base.tasks_per_node = base.tasks_per_graph * static_cast<int>(rng.uniform_int(1, 2));
  base.tt_share = rng.uniform_real(0.2, 0.8);
  base.deadline_factor = rng.uniform_real(0.6, 1.2);
  base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

SolveReport solve_portfolio(const Application& app, const BusParams& params, int jobs,
                            std::vector<int> claim_order, std::uint64_t seed) {
  PortfolioSpec spec;
  spec.members = {"sa", "sa", "obc-cf", "bbc"};
  spec.jobs = jobs;
  spec.seed = seed;
  spec.claim_order = std::move(claim_order);
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
  CostEvaluator evaluator(app, params, AnalysisOptions{});
  SolveRequest request;
  request.max_evaluations = kBudget;
  return optimizer.value()->solve(evaluator, request);
}

/// Everything except wall_seconds (the one documented observational field)
/// must match bit-for-bit.
void expect_identical(const SolveReport& a, const SolveReport& b, const std::string& label) {
  EXPECT_EQ(a.outcome.config, b.outcome.config) << label;
  EXPECT_EQ(a.outcome.cost.value, b.outcome.cost.value) << label;
  EXPECT_EQ(a.outcome.feasible, b.outcome.feasible) << label;
  EXPECT_EQ(a.outcome.evaluations, b.outcome.evaluations) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << label;
  EXPECT_EQ(a.components_recomputed, b.components_recomputed) << label;
  ASSERT_EQ(a.members.size(), b.members.size()) << label;
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    const MemberSolveReport& ma = a.members[i];
    const MemberSolveReport& mb = b.members[i];
    const std::string member_label = label + " member " + ma.member;
    EXPECT_EQ(ma.member, mb.member) << member_label;
    EXPECT_EQ(ma.seed, mb.seed) << member_label;
    EXPECT_EQ(ma.budget, mb.budget) << member_label;
    EXPECT_EQ(ma.winner, mb.winner) << member_label;
    EXPECT_EQ(ma.cost, mb.cost) << member_label;
    EXPECT_EQ(ma.feasible, mb.feasible) << member_label;
    EXPECT_EQ(ma.evaluations, mb.evaluations) << member_label;
    EXPECT_EQ(ma.status, mb.status) << member_label;
    ASSERT_EQ(ma.improvements.size(), mb.improvements.size()) << member_label;
    for (std::size_t e = 0; e < ma.improvements.size(); ++e) {
      EXPECT_EQ(ma.improvements[e].evaluations, mb.improvements[e].evaluations) << member_label;
      EXPECT_EQ(ma.improvements[e].cost, mb.improvements[e].cost) << member_label;
    }
  }
}

TEST(PortfolioProperty, WinnerIsBitIdenticalAcrossJobsAndClaimOrders) {
  BusParams params;
  Rng rng(0x90f7f0110u);
  int raced = 0;
  for (int trial = 0; trial < kScenarios; ++trial) {
    const ScenarioSpec spec = random_spec(rng);
    const std::string where = "trial " + std::to_string(trial) + " (" +
                              to_string(spec.topology) + ", seed " +
                              std::to_string(spec.base.seed) + ")";
    auto app = generate_scenario(spec, params);
    ASSERT_TRUE(app.ok()) << where << ": " << app.error().message;
    const std::uint64_t base_seed = spec.base.seed;

    const SolveReport reference =
        solve_portfolio(app.value(), params, /*jobs=*/1, /*claim_order=*/{}, base_seed);

    // Thread-count sweep: oversubscribed (8 on small machines) included.
    for (const int jobs : {2, 8}) {
      const SolveReport parallel =
          solve_portfolio(app.value(), params, jobs, {}, base_seed);
      expect_identical(reference, parallel, where + " jobs=" + std::to_string(jobs));
    }
    // Claim-order shuffles: reversed, and one derived permutation.
    const SolveReport reversed =
        solve_portfolio(app.value(), params, 2, {3, 2, 1, 0}, base_seed);
    expect_identical(reference, reversed, where + " reversed claims");
    const SolveReport shuffled =
        solve_portfolio(app.value(), params, 8, {2, 0, 3, 1}, base_seed);
    expect_identical(reference, shuffled, where + " shuffled claims");
    ++raced;
  }
  // The generator must not silently degenerate the suite.
  EXPECT_EQ(raced, kScenarios);
}

}  // namespace
}  // namespace flexopt
