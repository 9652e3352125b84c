// Bit pins of the Fig. 9 hot path: the list scheduler (Fig. 2) with its
// FPS-aware placement ranking, the FPS busy-window kernel and the OBC-CF
// interpolated candidate scan (Fig. 8).  Two recorded digests:
//
//  * every build_static_schedule table — task and message entries plus the
//    per-node busy profiles — over a fig9-shaped population, under the
//    minimal start configuration and a chain of random SA moves;
//  * (cost bits, feasible, evaluations) of bbc, obc-cf, obc-ee and sa
//    solves over 16 fig9 scenarios (every node count x topology) at an
//    evaluation budget of 200.
//
// A third pins one table whose FPS analyses crawl into the fixed-point
// iteration cap, where reusing a ranking's responses as the next seeds is
// exact only with the scheduler's iteration bound.
//
// The expected values were recorded before the scheduler's ranking was
// pruned and its base responses reused, before the curve-fit scan was
// memoised, and before that scan became one batched curve family refreshed
// only between a new point's neighbours; those are pure speed-ups, so any
// change to placement choice, profile construction, interpolation or solver
// trajectories moves a digest.  The solve digest was re-recorded once since,
// when every evaluation moved onto the one holistic engine: the Jacobi fixed
// point that served full evaluations until then pinned to infinity some
// bounds the engine resolves (its sweep cap, and an FPS recurrence capped on
// its trajectory only), which changed the trajectories of scenarios that
// visit such configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "flexopt/analysis/list_scheduler.hpp"
#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

/// The axes of specs/fig9.campaign (nodes x topology, seed 1).
constexpr const char* kFig9Axes = R"(name fig9-digest
nodes 2 3 4 5
topology random-dag pipeline fan-in-out gateway
traffic mixed
node_util 0.25:0.45
bus_util 0.10:0.40
periods 20ms 40ms 80ms
tasks_per_node 10
tasks_per_graph 5
deadline_factor 0.7
seed 1
algorithms bbc obc-cf obc-ee sa
)";

/// The fig9 grid with `replicates` replicates per (node count, topology)
/// cell and the given evaluation budget.
CampaignSpec fig9_grid(int replicates, int budget) {
  std::string text = kFig9Axes;
  text += "replicates " + std::to_string(replicates) + "\n";
  text += "budget " + std::to_string(budget) + "\n";
  auto spec = parse_campaign_text(text);
  if (!spec.ok()) throw std::runtime_error(spec.error().message);
  return std::move(spec).value();
}

void mix_schedule(Digest& digest, const Application& app, const StaticSchedule& schedule) {
  digest.mix_signed(schedule.hyperperiod());
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    for (const ScheduledTask& e : schedule.task_entries(static_cast<TaskId>(t))) {
      digest.mix(t);
      digest.mix_signed(e.instance);
      digest.mix_signed(e.release);
      digest.mix_signed(e.start);
      digest.mix_signed(e.finish);
    }
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    for (const ScheduledMessage& e : schedule.message_entries(static_cast<MessageId>(m))) {
      digest.mix(m);
      digest.mix_signed(e.instance);
      digest.mix_signed(e.release);
      digest.mix_signed(e.cycle);
      digest.mix_signed(e.slot);
      digest.mix_signed(e.start);
      digest.mix_signed(e.finish);
    }
  }
  for (std::size_t n = 0; n < app.node_count(); ++n) {
    const BusyProfile& profile = schedule.node_profile(n);
    digest.mix_signed(profile.period());
    digest.mix(profile.intervals().size());
    for (const Interval& iv : profile.intervals()) {
      digest.mix_signed(iv.start);
      digest.mix_signed(iv.end);
    }
  }
}

TEST(Fig9Digest, StaticSchedulesMatchRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 0x3a8d9de51fa1f1b6ull;
  constexpr int kMovesPerScenario = 10;
  const BusParams params;
  auto plans = expand_grid(fig9_grid(/*replicates=*/7, /*budget=*/200));
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  Digest digest;
  int built = 0;
  for (const ScenarioPlan& plan : plans.value()) {
    auto app_result = generate_scenario(plan.scenario, params);
    ASSERT_TRUE(app_result.ok()) << app_result.error().message;
    const Application& app = app_result.value();
    const StartConfig start = minimal_start_config(app, params);
    if (!start.bounds.feasible()) continue;
    BusConfig config = start.config;
    Rng rng(plan.scenario.base.seed ^ 0x5c4ed01eull);
    for (int step = 0; step <= kMovesPerScenario; ++step) {
      if (step > 0) {
        bool moved = false;
        for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
          moved = random_neighbour_move(config, app, params, rng, start.st_senders,
                                        start.bounds.min_minislots, SpecLimits::kMaxMinislots);
        }
        if (!moved) break;
      }
      digest.mix(plan.index);
      digest.mix_signed(step);
      auto layout = BusLayout::build(app, params, config);
      if (!layout.ok()) {
        digest.mix(0xbadu);
        continue;
      }
      auto schedule = build_static_schedule(layout.value());
      if (!schedule.ok()) {
        digest.mix(0xdeadu);
        continue;
      }
      mix_schedule(digest, app, schedule.value());
      ++built;
    }
  }
  EXPECT_GE(built, 500);
  EXPECT_EQ(digest.h, kRecordedDigest) << std::hex << "0x" << digest.h;
}

/// Applies `moves` random SA moves to `config`; false when a move failed.
bool apply_moves(BusConfig& config, const Application& app, const BusParams& params,
                 const StartConfig& start, Rng& rng, int moves) {
  for (int step = 0; step < moves; ++step) {
    bool moved = false;
    for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
      moved = random_neighbour_move(config, app, params, rng, start.st_senders,
                                    start.bounds.min_minislots, SpecLimits::kMaxMinislots);
    }
    if (!moved) return false;
  }
  return true;
}

TEST(Fig9Digest, StaticScheduleMatchesRecordedDigestWhereTheFpsCapBinds) {
  constexpr std::uint64_t kRecordedDigest = 0x11345c6cd436eda2ull;
  // Scenario 389 of the fig9 grid with 40 replicates and base seed 101,
  // 1801 random moves from its minimal start: of 790k such tables searched
  // (base seeds 101, 202, 303), the one that seed reuse without the
  // iteration bound changes.
  CampaignSpec spec = fig9_grid(/*replicates=*/40, /*budget=*/200);
  spec.base_seed = 101;
  auto plans = expand_grid(spec);
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  const auto plan = std::find_if(plans.value().begin(), plans.value().end(),
                                 [](const ScenarioPlan& p) { return p.index == 389; });
  ASSERT_NE(plan, plans.value().end());
  const BusParams params;
  auto app = generate_scenario(plan->scenario, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  const StartConfig start = minimal_start_config(app.value(), params);
  ASSERT_TRUE(start.bounds.feasible());
  BusConfig config = start.config;
  Rng rng(plan->scenario.base.seed ^ 0x5c4ed01eull);
  ASSERT_TRUE(apply_moves(config, app.value(), params, start, rng, 1801));
  auto layout = BusLayout::build(app.value(), params, config);
  ASSERT_TRUE(layout.ok()) << layout.error().message;
  auto schedule = build_static_schedule(layout.value());
  ASSERT_TRUE(schedule.ok()) << schedule.error().message;
  Digest digest;
  mix_schedule(digest, app.value(), schedule.value());
  EXPECT_EQ(digest.h, kRecordedDigest) << std::hex << "0x" << digest.h;
}

TEST(Fig9Digest, SolvesMatchRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 0x29f2c17bce8f588cull;
  CampaignRunner runner(fig9_grid(/*replicates=*/1, /*budget=*/200), BusParams{});
  CampaignOptions options;
  options.threads = 2;
  auto result = runner.run(options);
  ASSERT_TRUE(result.ok()) << result.error().message;
  Digest digest;
  int solves = 0;
  for (const ScenarioRecord& scenario : result.value().scenarios) {
    ASSERT_TRUE(scenario.generated) << scenario.error;
    ASSERT_EQ(scenario.runs.size(), 4u);
    for (const AlgorithmRun& run : scenario.runs) {
      digest.mix(std::bit_cast<std::uint64_t>(run.cost));
      digest.mix(run.feasible ? 1u : 0u);
      digest.mix_signed(run.evaluations);
      ++solves;
    }
  }
  EXPECT_EQ(solves, 64);
  EXPECT_EQ(digest.h, kRecordedDigest) << std::hex << "0x" << digest.h;
}

}  // namespace
}  // namespace flexopt
