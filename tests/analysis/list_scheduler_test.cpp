// List scheduler (Fig. 2): precedence, slot placement, packing, critical
// path ordering, and multi-instance behaviour over the hyper-period.

#include <gtest/gtest.h>

#include <string>

#include "flexopt/analysis/list_scheduler.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::make_layout;
using testing::TinySystem;

TEST(ListScheduler, SchedulesAllInstancesOverHyperperiod) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  auto schedule = build_static_schedule(layout);
  ASSERT_TRUE(schedule.ok()) << schedule.error().message;
  // Hyper-period 100us, period 100us: one instance each.
  EXPECT_EQ(schedule.value().task_entries(sys.producer).size(), 1u);
  EXPECT_EQ(schedule.value().message_entries(sys.st_msg).size(), 1u);
}

TEST(ListScheduler, RespectsPrecedence) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  auto schedule = build_static_schedule(layout);
  ASSERT_TRUE(schedule.ok());
  const auto& producer = schedule.value().task_entries(sys.producer)[0];
  const auto& message = schedule.value().message_entries(sys.st_msg)[0];
  const auto& consumer = schedule.value().task_entries(sys.consumer)[0];
  EXPECT_LE(producer.finish, message.start);
  EXPECT_LE(message.finish, consumer.start);
}

TEST(ListScheduler, MessageUsesOwnedSlot) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  auto schedule = build_static_schedule(layout);
  ASSERT_TRUE(schedule.ok());
  const auto& entry = schedule.value().message_entries(sys.st_msg)[0];
  EXPECT_EQ(entry.slot, 0);  // N0's slot
  // Delivery at the slot end.
  const Time slot_start = entry.cycle * layout.cycle_len() + layout.static_slot_start(entry.slot);
  EXPECT_EQ(entry.finish, slot_start + layout.config().static_slot_len);
}

TEST(ListScheduler, PacksMessagesIntoOneSlotWhenTheyFit) {
  const FigureBundle bundle = build_fig3();
  const BusLayout layout = make_layout(bundle.app, bundle.params, bundle.configs[2]);
  auto schedule = build_static_schedule(layout);
  ASSERT_TRUE(schedule.ok());
  // Scenario (c): m2 (3us) and m3 (2us) share N2's 5us slot in cycle 0.
  const auto& m2 = schedule.value().message_entries(MessageId{1})[0];
  const auto& m3 = schedule.value().message_entries(MessageId{2})[0];
  EXPECT_EQ(m2.cycle, m3.cycle);
  EXPECT_EQ(m2.slot, m3.slot);
  EXPECT_LT(m2.start, m3.start);
}

TEST(ListScheduler, OverflowsToNextCycleWhenSlotFull) {
  const FigureBundle bundle = build_fig3();
  const BusLayout layout = make_layout(bundle.app, bundle.params, bundle.configs[0]);
  auto schedule = build_static_schedule(layout);
  ASSERT_TRUE(schedule.ok());
  const auto& m2 = schedule.value().message_entries(MessageId{1})[0];
  const auto& m3 = schedule.value().message_entries(MessageId{2})[0];
  EXPECT_EQ(m3.cycle, m2.cycle + 1);
}

TEST(ListScheduler, MultipleInstancesForShorterPeriods) {
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId fast = app.add_graph("fast", timeunits::us(50), timeunits::us(50));
  const GraphId slow = app.add_graph("slow", timeunits::us(100), timeunits::us(100));
  const TaskId f = app.add_task(fast, "f", n0, timeunits::us(2), TaskPolicy::Scs);
  const TaskId fr = app.add_task(fast, "fr", n1, timeunits::us(2), TaskPolicy::Scs);
  app.add_message(fast, "fm", f, fr, 2, MessageClass::Static);
  app.add_task(slow, "s", n0, timeunits::us(2), TaskPolicy::Scs);
  ASSERT_TRUE(app.finalize().ok());

  BusConfig config;
  config.static_slot_count = 1;
  config.static_slot_len = timeunits::us(4);
  config.static_slot_owner = {n0};
  config.minislot_count = 6;
  config.frame_id.assign(app.message_count(), 0);
  const BusLayout layout = make_layout(app, didactic_params(), config);
  auto schedule = build_static_schedule(layout);
  ASSERT_TRUE(schedule.ok()) << schedule.error().message;
  EXPECT_EQ(schedule.value().hyperperiod(), timeunits::us(100));
  EXPECT_EQ(schedule.value().task_entries(f).size(), 2u);
  EXPECT_EQ(schedule.value().message_entries(MessageId{0}).size(), 2u);
  // Second instance must be released and scheduled in the second half.
  const auto& second = schedule.value().task_entries(f)[1];
  EXPECT_EQ(second.release, timeunits::us(50));
  EXPECT_GE(second.start, timeunits::us(50));
}

TEST(ListScheduler, HonoursReleaseOffsets) {
  TinySystem sys;
  sys.app = {};
  // Rebuild tiny system with an offset on the producer.
  TinySystem fresh;
  fresh.app.set_task_release_offset(fresh.producer, timeunits::us(30));
  const BusLayout layout = make_layout(fresh.app, fresh.params, fresh.config);
  auto schedule = build_static_schedule(layout);
  ASSERT_TRUE(schedule.ok());
  EXPECT_GE(schedule.value().task_entries(fresh.producer)[0].start, timeunits::us(30));
}

TEST(ListScheduler, AsapAndMinimizeFpsImpactBothProduceValidTables) {
  TinySystem sys;
  const BusLayout layout = make_layout(sys.app, sys.params, sys.config);
  for (const Placement placement : {Placement::Asap, Placement::MinimizeFpsImpact}) {
    SchedulerOptions options;
    options.placement = placement;
    auto schedule = build_static_schedule(layout, options);
    ASSERT_TRUE(schedule.ok());
    const auto& producer = schedule.value().task_entries(sys.producer)[0];
    const auto& message = schedule.value().message_entries(sys.st_msg)[0];
    EXPECT_LE(producer.finish, message.start);
  }
}

TEST(ListScheduler, FailsWhenSlotsHopelesslyOversubscribed) {
  // 20 ST messages of 4us per 100us period through a single 4us slot per
  // 100us cycle: cannot fit; the bounded search must fail loudly.
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId g = app.add_graph("g", timeunits::us(100), timeunits::us(100));
  for (int i = 0; i < 20; ++i) {
    const std::string index = std::to_string(i);
    const TaskId s = app.add_task(g, std::string("s").append(index), n0, 1, TaskPolicy::Scs);
    const TaskId r = app.add_task(g, std::string("r").append(index), n1, 1, TaskPolicy::Scs);
    app.add_message(g, std::string("m").append(index), s, r, 4, MessageClass::Static);
  }
  ASSERT_TRUE(app.finalize().ok());
  BusConfig config;
  config.static_slot_count = 1;
  config.static_slot_len = timeunits::us(4);
  config.static_slot_owner = {n0};
  config.minislot_count = 90;
  config.frame_id.assign(app.message_count(), 0);
  const BusLayout layout = make_layout(app, didactic_params(), config);
  SchedulerOptions options;
  options.max_slot_search_cycles = 16;
  EXPECT_FALSE(build_static_schedule(layout, options).ok());
}

}  // namespace
}  // namespace flexopt
