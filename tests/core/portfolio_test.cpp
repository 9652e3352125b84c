// The "portfolio" meta-optimizer: member-list parsing, spec validation,
// deterministic seed/budget fan-out, winner selection (cost argmin, index
// tie-break), aggregation, cancellation plumbing, and the campaign
// integration (nested thread budget, spec keyword, byte-identical
// summaries with portfolio runs).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "flexopt/campaign/report.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "flexopt/util/seed_mix.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::TinySystem;

// ---- member-list parsing ---------------------------------------------------

TEST(PortfolioMembers, ParsesSeparatorsAndRepetition) {
  auto members = parse_portfolio_members("4xsa,obc-ee bbc+obc-cf");
  ASSERT_TRUE(members.ok()) << members.error().message;
  EXPECT_EQ(members.value(),
            (std::vector<std::string>{"sa", "sa", "sa", "sa", "obc-ee", "bbc", "obc-cf"}));
  EXPECT_EQ(format_portfolio_members(members.value()), "4xsa+obc-ee+bbc+obc-cf");
}

TEST(PortfolioMembers, RejectsBadLists) {
  EXPECT_FALSE(parse_portfolio_members("").ok());
  EXPECT_FALSE(parse_portfolio_members(" , ").ok());
  EXPECT_FALSE(parse_portfolio_members("sa,warp-drive").ok());
  EXPECT_FALSE(parse_portfolio_members("0xsa").ok());
  EXPECT_FALSE(parse_portfolio_members("3x").ok());
  // No nesting, in any registry spelling.
  EXPECT_FALSE(parse_portfolio_members("sa,portfolio").ok());
  EXPECT_FALSE(parse_portfolio_members("PORTFOLIO").ok());
}

// ---- registry + spec validation --------------------------------------------

TEST(PortfolioRegistry, CreatesWithDefaultsAndValidatesSpecs) {
  EXPECT_TRUE(OptimizerRegistry::contains("portfolio"));
  auto with_defaults = OptimizerRegistry::create("portfolio");
  ASSERT_TRUE(with_defaults.ok()) << with_defaults.error().message;
  EXPECT_EQ(with_defaults.value()->name(), "portfolio");

  PortfolioSpec empty;
  empty.members.clear();
  EXPECT_FALSE(OptimizerRegistry::create("portfolio", empty).ok());

  PortfolioSpec negative_jobs;
  negative_jobs.jobs = -1;
  EXPECT_FALSE(OptimizerRegistry::create("portfolio", negative_jobs).ok());

  PortfolioSpec nested;
  nested.members = {"sa", "portfolio"};
  EXPECT_FALSE(OptimizerRegistry::create("portfolio", nested).ok());

  PortfolioSpec bad_claim;
  bad_claim.members = {"sa", "bbc"};
  bad_claim.claim_order = {0, 0};
  EXPECT_FALSE(OptimizerRegistry::create("portfolio", bad_claim).ok());
  bad_claim.claim_order = {1};
  EXPECT_FALSE(OptimizerRegistry::create("portfolio", bad_claim).ok());
  bad_claim.claim_order = {1, 0};
  EXPECT_TRUE(OptimizerRegistry::create("portfolio", bad_claim).ok());

  // The payload type must match, like for every other registry key.
  EXPECT_FALSE(OptimizerRegistry::create("portfolio", SaOptions{}).ok());
}

// ---- winner selection with scripted members --------------------------------

/// Test-only member with a scripted outcome; registered under a unique key
/// so the portfolio races deterministic stand-ins instead of real solvers.
class ScriptedOptimizer final : public Optimizer {
 public:
  ScriptedOptimizer(std::string name, double cost, long evaluations)
      : name_(std::move(name)), cost_(cost), evaluations_(evaluations) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  SolveReport solve_cluster(CostEvaluator&, const SolveRequest&) override {
    SolveReport report;
    report.outcome.cost = Cost{cost_, cost_ <= 0.0, 0};
    report.outcome.feasible = cost_ <= 0.0;
    report.outcome.evaluations = evaluations_;
    report.outcome.algorithm = name_;
    report.cache_hits = 1;
    report.components_recomputed = 2;
    return report;
  }

 private:
  std::string name_;
  double cost_;
  long evaluations_;
};

void register_scripted(const std::string& key, double cost, long evaluations) {
  OptimizerRegistry::register_optimizer(
      key, "scripted test member", [key, cost, evaluations](const OptimizerParams&) {
        return Expected<std::unique_ptr<Optimizer>>(
            std::make_unique<ScriptedOptimizer>(key, cost, evaluations));
      });
}

TEST(PortfolioSolve, PicksCostArgminAndBreaksTiesByMemberIndex) {
  register_scripted("scripted-worse", 40.0, 3);
  register_scripted("scripted-tie-a", -5.0, 4);
  register_scripted("scripted-tie-b", -5.0, 5);

  TinySystem tiny;
  CostEvaluator evaluator(tiny.app, tiny.params, AnalysisOptions{});
  PortfolioSpec spec;
  spec.members = {"scripted-worse", "scripted-tie-b", "scripted-tie-a"};
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  ASSERT_TRUE(optimizer.ok()) << optimizer.error().message;
  const SolveReport report = optimizer.value()->solve(evaluator, SolveRequest{});

  // -5 twice: the tie goes to the lower member index regardless of claim
  // or completion order.
  EXPECT_EQ(report.winner, "scripted-tie-b#1");
  ASSERT_EQ(report.members.size(), 3u);
  EXPECT_FALSE(report.members[0].winner);
  EXPECT_TRUE(report.members[1].winner);
  EXPECT_FALSE(report.members[2].winner);
  EXPECT_EQ(report.outcome.cost.value, -5.0);
  EXPECT_EQ(report.outcome.algorithm, "PORTFOLIO");
  // Aggregates are sums over the members.
  EXPECT_EQ(report.outcome.evaluations, 3 + 5 + 4);
  EXPECT_EQ(report.cache_hits, 3u);
  EXPECT_EQ(report.components_recomputed, 6u);
  EXPECT_EQ(report.status, SolveStatus::Complete);
}

// ---- seed + budget fan-out -------------------------------------------------

TEST(PortfolioSolve, DerivesSeedsAndSplitsBudgetDeterministically) {
  TinySystem tiny;
  CostEvaluator evaluator(tiny.app, tiny.params, AnalysisOptions{});
  PortfolioSpec spec;
  spec.members = {"sa", "sa", "bbc"};
  spec.seed = 99;
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  ASSERT_TRUE(optimizer.ok());
  SolveRequest request;
  request.max_evaluations = 10;
  const SolveReport report = optimizer.value()->solve(evaluator, request);

  ASSERT_EQ(report.members.size(), 3u);
  EXPECT_EQ(report.members[0].member, "sa#0");
  EXPECT_EQ(report.members[1].member, "sa#1");
  EXPECT_EQ(report.members[2].member, "bbc#2");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(report.members[i].seed, derive_seed(99, i)) << i;
  }
  // 10 over 3 members: 4, 3, 3 — front-loaded remainder.
  EXPECT_EQ(report.members[0].budget, 4);
  EXPECT_EQ(report.members[1].budget, 3);
  EXPECT_EQ(report.members[2].budget, 3);
  // Distinct seeds: the two SA multi-starts walk different trajectories.
  EXPECT_NE(report.members[0].seed, report.members[1].seed);
  EXPECT_EQ(report.status, SolveStatus::BudgetExhausted);

  // SolveRequest::seed overrides the spec's base seed, like for "sa".
  SolveRequest reseeded = request;
  reseeded.seed = 1234;
  const SolveReport report2 = optimizer.value()->solve(evaluator, reseeded);
  EXPECT_EQ(report2.members[0].seed, derive_seed(1234, 0));
}

// ---- cancellation + progress ----------------------------------------------

TEST(PortfolioSolve, ParentCancelFlagStopsEveryMember) {
  TinySystem tiny;
  CostEvaluator evaluator(tiny.app, tiny.params, AnalysisOptions{});
  PortfolioSpec spec;
  spec.members = {"sa", "sa"};
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  ASSERT_TRUE(optimizer.ok());
  SolveRequest request;
  request.max_evaluations = 10000;
  request.cancel = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  EXPECT_EQ(report.status, SolveStatus::Cancelled);
  for (const MemberSolveReport& member : report.members) {
    EXPECT_EQ(member.status, SolveStatus::Cancelled) << member.member;
  }
}

TEST(PortfolioSolve, AggregatedProgressReportsPortfolioAndCanCancel) {
  TinySystem tiny;
  CostEvaluator evaluator(tiny.app, tiny.params, AnalysisOptions{});
  PortfolioSpec spec;
  spec.members = {"sa", "sa"};
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  ASSERT_TRUE(optimizer.ok());

  int calls = 0;
  SolveRequest request;
  request.max_evaluations = 60;
  request.progress = [&](const SolveProgress& p) {
    ++calls;
    EXPECT_EQ(p.algorithm, "PORTFOLIO");
    EXPECT_EQ(p.max_evaluations, 60);
    return true;
  };
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(report.status, SolveStatus::BudgetExhausted);

  // Returning false from the aggregated callback cancels the whole race.
  SolveRequest cancelling;
  cancelling.max_evaluations = 100000;
  cancelling.progress = [](const SolveProgress&) { return false; };
  const SolveReport cancelled = optimizer.value()->solve(evaluator, cancelling);
  EXPECT_EQ(cancelled.status, SolveStatus::Cancelled);
}

// ---- real members: incumbent timeline + racing cut -------------------------

Expected<Application> small_system() {
  SyntheticSpec spec;
  spec.nodes = 3;
  spec.tasks_per_node = 6;
  spec.tasks_per_graph = 3;
  spec.deadline_factor = 0.7;
  spec.seed = 7;
  BusParams params;
  params.gd_minislot = timeunits::us(5);
  return generate_synthetic(spec, params);
}

TEST(PortfolioSolve, RecordsMemberImprovementTimelines) {
  auto app = small_system();
  ASSERT_TRUE(app.ok()) << app.error().message;
  BusParams params;
  params.gd_minislot = timeunits::us(5);
  CostEvaluator evaluator(app.value(), params, AnalysisOptions{});
  PortfolioSpec spec;
  spec.members = {"sa", "obc-cf"};
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  ASSERT_TRUE(optimizer.ok());
  SolveRequest request;
  request.max_evaluations = 120;
  const SolveReport report = optimizer.value()->solve(evaluator, request);

  ASSERT_EQ(report.members.size(), 2u);
  for (const MemberSolveReport& member : report.members) {
    if (member.cost >= kInvalidConfigCost) continue;
    ASSERT_FALSE(member.improvements.empty()) << member.member;
    // Timelines are monotone: evaluation stamps non-decreasing, costs
    // strictly improving, and the last entry is the member's final best.
    for (std::size_t i = 1; i < member.improvements.size(); ++i) {
      EXPECT_GE(member.improvements[i].evaluations, member.improvements[i - 1].evaluations);
      EXPECT_LT(member.improvements[i].cost, member.improvements[i - 1].cost);
    }
    EXPECT_EQ(member.improvements.back().cost, member.cost) << member.member;
  }
  // The winner's final improvement is the portfolio's reported cost.
  EXPECT_EQ(report.outcome.cost.value,
            report.members[report.members[0].winner ? 0 : 1].cost);
}

TEST(PortfolioSolve, RacingCutKeepsAValidWinner) {
  auto app = small_system();
  ASSERT_TRUE(app.ok()) << app.error().message;
  BusParams params;
  params.gd_minislot = timeunits::us(5);
  CostEvaluator evaluator(app.value(), params, AnalysisOptions{});
  PortfolioSpec spec;
  spec.members = {"sa", "sa", "obc-cf"};
  spec.racing_cut = true;
  auto optimizer = OptimizerRegistry::create("portfolio", spec);
  ASSERT_TRUE(optimizer.ok());
  SolveRequest request;
  request.max_evaluations = 150;
  const SolveReport report = optimizer.value()->solve(evaluator, request);

  // Cut members report Cancelled, but a member-local cut never bubbles up
  // to the portfolio status, and the winner is still the member argmin.
  EXPECT_NE(report.status, SolveStatus::Cancelled);
  double best = kInvalidConfigCost;
  for (const MemberSolveReport& member : report.members) best = std::min(best, member.cost);
  EXPECT_EQ(report.outcome.cost.value, best);
  EXPECT_FALSE(report.winner.empty());
}

// ---- campaign integration --------------------------------------------------

TEST(PortfolioCampaign, SpecKeywordAndByteIdenticalSummariesAcrossThreads) {
  auto spec = parse_campaign_text(
      "name pf\n"
      "nodes 2\n"
      "replicates 2\n"
      "tasks_per_node 6\n"
      "tasks_per_graph 3\n"
      "deadline_factor 0.7\n"
      "seed 42\n"
      "algorithms bbc portfolio\n"
      "portfolio_members 2xsa obc-cf\n"
      "budget 90\n");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_EQ(spec.value().portfolio_members,
            (std::vector<std::string>{"sa", "sa", "obc-cf"}));

  BusParams params;
  CampaignRunner runner(spec.value(), params);
  CampaignOptions serial;
  serial.threads = 1;
  auto a = runner.run(serial);
  ASSERT_TRUE(a.ok()) << a.error().message;
  CampaignOptions wide;
  wide.threads = 4;  // scenario workers + member-level jobs share this budget
  auto b = runner.run(wide);
  ASSERT_TRUE(b.ok()) << b.error().message;

  EXPECT_EQ(write_campaign_json(a.value()), write_campaign_json(b.value()));
  EXPECT_EQ(write_campaign_csv(a.value()), write_campaign_csv(b.value()));

  // Portfolio rows carry the winning member id; singles stay blank.
  for (const ScenarioRecord& record : a.value().scenarios) {
    ASSERT_TRUE(record.generated) << record.error;
    for (const AlgorithmRun& run : record.runs) {
      if (run.algorithm == "portfolio") {
        EXPECT_FALSE(run.portfolio_winner.empty());
      } else {
        EXPECT_TRUE(run.portfolio_winner.empty());
      }
    }
  }
}

TEST(PortfolioCampaign, BadMemberListIsASpecLevelError) {
  auto spec = parse_campaign_text("algorithms portfolio\nportfolio_members sa,nope\n");
  EXPECT_FALSE(spec.ok());  // rejected at parse time already

  CampaignSpec direct;
  direct.algorithms = {"portfolio"};
  direct.portfolio_members = {"sa", "nope"};
  direct.node_counts = {2};
  BusParams params;
  CampaignRunner runner(direct, params);
  auto result = runner.run(CampaignOptions{});
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace flexopt
