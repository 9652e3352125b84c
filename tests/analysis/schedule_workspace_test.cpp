// ScheduleWorkspace reuse: a table built on a workspace that served other
// builds — of another application, or of other geometries in any order —
// equals a fresh build's entry for entry (task entries, message entries and
// node profiles).  The first test is built so that state carried over from
// the previous build shows: its two applications share node 0's last
// winning ranking profile and an ST slot in the same bus cycle.

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "flexopt/analysis/list_scheduler.hpp"
#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/rng.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::make_layout;
using timeunits::us;

void expect_same_table(const Application& app, const StaticSchedule& reused,
                       const StaticSchedule& fresh, const std::string& what) {
  ASSERT_EQ(reused.hyperperiod(), fresh.hyperperiod()) << what;
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    EXPECT_EQ(reused.task_entries(static_cast<TaskId>(t)),
              fresh.task_entries(static_cast<TaskId>(t)))
        << what << ": task " << app.tasks()[t].name;
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    EXPECT_EQ(reused.message_entries(static_cast<MessageId>(m)),
              fresh.message_entries(static_cast<MessageId>(m)))
        << what << ": message " << app.messages()[m].name;
  }
  for (std::size_t n = 0; n < app.node_count(); ++n) {
    EXPECT_EQ(reused.node_profile(n).period(), fresh.node_profile(n).period()) << what;
    EXPECT_EQ(reused.node_profile(n).intervals(), fresh.node_profile(n).intervals())
        << what << ": node " << n;
  }
}

/// Builds `layout` on `workspace` and on a fresh one and compares them.
void expect_reuse_matches_fresh(const BusLayout& layout, ScheduleWorkspace& workspace,
                                const std::string& what) {
  auto reused = build_static_schedule(layout, SchedulerOptions{}, workspace);
  auto fresh = build_static_schedule(layout);
  ASSERT_EQ(reused.ok(), fresh.ok()) << what;
  if (!fresh.ok()) {
    EXPECT_EQ(reused.error().message, fresh.error().message) << what;
    return;
  }
  expect_same_table(layout.application(), reused.value(), fresh.value(), what);
}

/// One of two small applications over the same three nodes and one ST slot
/// owned by N1.  Both send one ST message N1 -> N2 at the start of the
/// hyper-period, so a build that kept the previous build's slot occupancy
/// would pack its message behind a stale one.
///
/// `first`: SCS task a0 (10 us, with laxity) shares N0 with a 30 us FPS
/// task.  All of a0's candidates give that task the same response, so the
/// ranking keeps the earliest, 0, and node 0's last winning profile is
/// [0, 10 us) with response 40 us.
///
/// Otherwise: SCS task b1 (10 us, no laxity) is placed at 0 without a
/// ranking, then SCS task b2 (10 us, with laxity) is ranked against the base
/// [0, 10 us) for a 5 us FPS task.  Fresh, the ranking places b2 apart from
/// b1 (response 15 us instead of 25 us).  Seeded with the stale 40 us of
/// the first application, every candidate's recurrence would fall from its
/// seed, report unbounded, and the tie would keep b2 adjacent to b1.
Application two_build_application(bool first) {
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const NodeId n2 = app.add_node("N2");
  if (first) {
    const GraphId a = app.add_graph("a", us(100), us(100));
    app.add_task(a, "a0", n0, us(10), TaskPolicy::Scs);
  } else {
    const GraphId b1 = app.add_graph("b1", us(100), us(10));
    app.add_task(b1, "b1", n0, us(10), TaskPolicy::Scs);
    const GraphId b2 = app.add_graph("b2", us(100), us(100));
    app.add_task(b2, "b2", n0, us(10), TaskPolicy::Scs);
  }
  const GraphId chain = app.add_graph("chain", us(100), us(100));
  const TaskId send = app.add_task(chain, "send", n1, us(first ? 2 : 3), TaskPolicy::Scs);
  const TaskId receive = app.add_task(chain, "receive", n2, us(1), TaskPolicy::Scs);
  app.add_message(chain, "st", send, receive, 4, MessageClass::Static);
  const GraphId et = app.add_graph("et", us(100), us(100));
  app.add_task(et, "fps", n0, us(first ? 30 : 5), TaskPolicy::Fps, 1);
  const auto fin = app.finalize();
  if (!fin.ok()) throw std::runtime_error(fin.error().message);
  return app;
}

BusConfig two_build_config(const Application& app) {
  BusConfig config;
  config.static_slot_count = 1;
  config.static_slot_len = us(5);
  config.static_slot_owner = {static_cast<NodeId>(1)};
  config.minislot_count = 8;
  config.frame_id.assign(app.message_count(), 0);
  return config;
}

TEST(ScheduleWorkspace, AlternatingApplicationsMatchFreshBuilds) {
  const Application a = two_build_application(true);
  const Application b = two_build_application(false);
  const BusLayout layout_a = make_layout(a, didactic_params(), two_build_config(a));
  const BusLayout layout_b = make_layout(b, didactic_params(), two_build_config(b));

  // The premise: fresh, b2 is ranked away from b1.
  auto fresh_b = build_static_schedule(layout_b);
  ASSERT_TRUE(fresh_b.ok()) << fresh_b.error().message;
  const auto& b2 = fresh_b.value().task_entries(static_cast<TaskId>(1));
  ASSERT_EQ(b2.size(), 1u);
  EXPECT_GT(b2.front().start, us(10));

  ScheduleWorkspace workspace;
  for (int round = 0; round < 3; ++round) {
    expect_reuse_matches_fresh(layout_a, workspace, "a, round " + std::to_string(round));
    expect_reuse_matches_fresh(layout_b, workspace, "b, round " + std::to_string(round));
  }
}

TEST(ScheduleWorkspace, ShuffledFig9GeometriesMatchFreshBuilds) {
  std::ifstream spec_file(FLEXOPT_SOURCE_DIR "/specs/fig9.campaign");
  ASSERT_TRUE(spec_file) << "specs/fig9.campaign";
  auto spec = parse_campaign(spec_file);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;

  // One scenario per (node count, topology) cell of the grid, each with the
  // geometries of a walk over valid neighbours of its minimal start; all of
  // them are built on one workspace, in shuffled order.
  const BusParams params;
  std::vector<Application> apps;
  std::vector<std::pair<std::size_t, BusConfig>> builds;  // (app index, config)
  for (std::size_t p = 0; p < plans.value().size(); p += 7) {
    const ScenarioPlan& plan = plans.value()[p];
    auto app = generate_scenario(plan.scenario, params);
    ASSERT_TRUE(app.ok()) << app.error().message;
    const StartConfig start = minimal_start_config(app.value(), params);
    if (!start.bounds.feasible()) continue;
    apps.push_back(std::move(app).value());
    const Application& a = apps.back();
    Rng rng(plan.scenario.base.seed);
    BusConfig config = start.config;
    builds.emplace_back(apps.size() - 1, config);
    for (int step = 0; step < 8; ++step) {
      BusConfig neighbour = config;
      if (random_neighbour_move(neighbour, a, params, rng, start.st_senders,
                                start.bounds.min_minislots, SpecLimits::kMaxMinislots) &&
          BusLayout::build(a, params, neighbour).ok()) {
        config = neighbour;
        builds.emplace_back(apps.size() - 1, config);
      }
    }
  }
  Rng order(0x5eed);
  order.shuffle(builds);

  ScheduleWorkspace workspace;
  for (std::size_t i = 0; i < builds.size(); ++i) {
    const Application& app = apps[builds[i].first];
    const BusLayout layout = make_layout(app, params, builds[i].second);
    expect_reuse_matches_fresh(layout, workspace,
                               "scenario " + std::to_string(builds[i].first) + ", build " +
                                   std::to_string(i));
  }
  EXPECT_EQ(apps.size(), 16u);
  EXPECT_GE(builds.size(), 80u);
}

}  // namespace
}  // namespace flexopt
