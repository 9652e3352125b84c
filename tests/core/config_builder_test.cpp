// Configuration building blocks: criticality FrameID order (Eq. 4), quota
// round-robin slot assignment, DYN bounds.

#include <gtest/gtest.h>

#include <algorithm>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

TEST(FrameIdAssignment, UniqueAndCriticalityOrdered) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  const auto fids = assign_frame_ids_by_criticality(app, params);

  std::vector<Time> costs(app.message_count());
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    costs[m] = params.frame_duration(app.messages()[m].size_bytes);
  }
  std::vector<int> seen;
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Static) {
      EXPECT_EQ(fids[m], 0);
      continue;
    }
    EXPECT_GE(fids[m], 1);
    seen.push_back(fids[m]);
    // Criticality order: any message with a smaller FrameID is at least as
    // critical (smaller CP).
    for (std::uint32_t o = 0; o < app.message_count(); ++o) {
      if (app.messages()[o].cls != MessageClass::Dynamic || o == m) continue;
      if (fids[o] < fids[m]) {
        EXPECT_LE(app.criticality(static_cast<MessageId>(o), costs),
                  app.criticality(static_cast<MessageId>(m), costs));
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int>(i) + 1);  // dense unique 1..N
  }
}

TEST(FrameIdAssignment, SharedPerNodeGroupsBySender) {
  const Application app = build_cruise_controller();
  const auto fids = assign_frame_ids_shared_per_node(app);
  for (std::uint32_t a = 0; a < app.message_count(); ++a) {
    for (std::uint32_t b = 0; b < app.message_count(); ++b) {
      if (app.messages()[a].cls != MessageClass::Dynamic ||
          app.messages()[b].cls != MessageClass::Dynamic) {
        continue;
      }
      const NodeId na = app.task(app.messages()[a].sender).node;
      const NodeId nb = app.task(app.messages()[b].sender).node;
      if (na == nb) {
        EXPECT_EQ(fids[a], fids[b]);
      } else {
        EXPECT_NE(fids[a], fids[b]);
      }
    }
  }
}

TEST(SlotAssignment, EverySenderGetsASlot) {
  const Application app = build_cruise_controller();
  const auto senders = st_sender_nodes(app);
  const auto owners = assign_static_slots(app, static_cast<int>(senders.size()) + 3);
  ASSERT_EQ(owners.size(), senders.size() + 3);
  for (const NodeId s : senders) {
    EXPECT_NE(std::find(owners.begin(), owners.end(), s), owners.end());
  }
}

TEST(SlotAssignment, QuotaFollowsMessageCounts) {
  const Application app = build_cruise_controller();
  const auto counts = st_message_count_per_node(app);
  const auto senders = st_sender_nodes(app);
  const int total = static_cast<int>(senders.size()) * 3;
  const auto owners = assign_static_slots(app, total);
  // The node with the most ST messages must own at least as many slots as
  // the node with the fewest.
  auto slots_of = [&](NodeId n) {
    return std::count(owners.begin(), owners.end(), n);
  };
  const auto busiest = *std::max_element(senders.begin(), senders.end(), [&](NodeId a, NodeId b) {
    return counts[index_of(a)] < counts[index_of(b)];
  });
  const auto quietest = *std::min_element(senders.begin(), senders.end(), [&](NodeId a, NodeId b) {
    return counts[index_of(a)] < counts[index_of(b)];
  });
  EXPECT_GE(slots_of(busiest), slots_of(quietest));
}

TEST(SlotAssignment, TooFewSlotsYieldsEmpty) {
  const Application app = build_cruise_controller();
  const auto senders = st_sender_nodes(app);
  EXPECT_TRUE(assign_static_slots(app, static_cast<int>(senders.size()) - 1).empty());
}

TEST(DynBounds, CoversLargestFrameAndUniqueIds) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  const DynBounds bounds = dyn_segment_bounds(app, params, timeunits::us(500));
  ASSERT_TRUE(bounds.feasible());
  int dyn_msgs = 0;
  int largest = 0;
  for (const auto& m : app.messages()) {
    if (m.cls != MessageClass::Dynamic) continue;
    ++dyn_msgs;
    largest = std::max(largest, params.frame_minislots(m.size_bytes));
  }
  // The highest unique FrameID (== dyn_msgs) must still pass the pLatestTx
  // gate: count >= dyn_msgs + largest - 1.
  EXPECT_EQ(bounds.min_minislots, dyn_msgs + largest - 1);
  EXPECT_GE(bounds.min_minislots, largest);
  EXPECT_LE(bounds.max_minislots, SpecLimits::kMaxMinislots);
  // 16 ms cycle limit respected.
  EXPECT_LE(timeunits::us(500) +
                static_cast<Time>(bounds.max_minislots) * params.gd_minislot,
            SpecLimits::kMaxCycle);
}

TEST(DynBounds, NoDynMessagesMeansEmptySegment) {
  const FigureBundle bundle = build_fig3();
  const DynBounds bounds = dyn_segment_bounds(bundle.app, bundle.params, timeunits::us(100));
  EXPECT_TRUE(bounds.feasible());
  EXPECT_EQ(bounds.min_minislots, 0);
  EXPECT_EQ(bounds.max_minislots, 0);
}

TEST(DynBounds, NoBusTrafficMeansAOneMinislotCycle) {
  // Neither ST slots nor DYN frames: the cycle still needs one minislot.
  Application app;
  const NodeId n0 = app.add_node("N0");
  const GraphId g = app.add_graph("g", timeunits::ms(10), timeunits::ms(10));
  app.add_task(g, "t", n0, timeunits::us(100), TaskPolicy::Fps, 1);
  ASSERT_TRUE(app.finalize().ok());
  const BusParams params;
  const DynBounds bounds = dyn_segment_bounds(app, params, 0);
  EXPECT_EQ(bounds.min_minislots, 1);
  EXPECT_EQ(bounds.max_minislots, 1);
  const StartConfig start = minimal_start_config(app, params);
  EXPECT_EQ(start.config.static_slot_count, 0);
  EXPECT_EQ(start.config.minislot_count, 1);
  auto layout = BusLayout::build(app, params, start.config);
  ASSERT_TRUE(layout.ok()) << layout.error().message;
  EXPECT_EQ(layout.value().cycle_len(), params.gd_minislot);
}

TEST(MinStaticSlotLen, CoversLargestStFrame) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  const Time len = min_static_slot_len(app, params);
  for (const auto& m : app.messages()) {
    if (m.cls == MessageClass::Static) {
      EXPECT_GE(len, params.frame_duration(m.size_bytes));
    }
  }
  EXPECT_EQ(len % params.gd_macrotick, 0);
}

}  // namespace
}  // namespace flexopt
