// Focused FTDMA arbitration tests: multiple instances per hyper-period,
// CHI queue ordering, readiness-at-slot-boundary semantics, and the edges
// of the DYN segment walker, which takes idle minislot steps in bulk: a
// frame queued exactly at its slot instant, the per-step event count up to
// a horizon that cuts a segment, and a gateway relay released by another
// cluster while the downstream walk is idle.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/sim/engine.hpp"
#include "flexopt/sim/simulator.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::analyze;
using testing::make_layout;

/// One DYN sender with a fast period, sharing the bus with a slow one.
struct ArbFixture {
  Application app;
  BusParams params = didactic_params();
  MessageId fast_msg{};
  MessageId slow_msg{};
  NodeId n0{};
  NodeId n1{};

  ArbFixture() {
    n0 = app.add_node("N0");
    n1 = app.add_node("N1");
    const GraphId fast = app.add_graph("fast", timeunits::us(40), timeunits::us(40));
    const GraphId slow = app.add_graph("slow", timeunits::us(120), timeunits::us(120));
    const TaskId fs = app.add_task(fast, "fs", n0, timeunits::us(1), TaskPolicy::Fps, 0);
    const TaskId fr = app.add_task(fast, "fr", n1, timeunits::us(1), TaskPolicy::Fps, 5);
    fast_msg = app.add_message(fast, "fm", fs, fr, 2, MessageClass::Dynamic, 0);
    const TaskId ss = app.add_task(slow, "ss", n1, timeunits::us(1), TaskPolicy::Fps, 1);
    const TaskId sr = app.add_task(slow, "sr", n0, timeunits::us(1), TaskPolicy::Fps, 5);
    slow_msg = app.add_message(slow, "sm", ss, sr, 3, MessageClass::Dynamic, 0);
    if (!app.finalize().ok()) throw std::runtime_error("fixture");
  }

  BusConfig config() const {
    BusConfig c;
    c.static_slot_count = 0;
    c.minislot_count = 10;  // cycle = 10us; hyper-period 120us = 12 cycles
    c.frame_id.assign(app.message_count(), 0);
    c.frame_id[index_of(fast_msg)] = 1;
    c.frame_id[index_of(slow_msg)] = 2;
    return c;
  }
};

TEST(DynArbitration, EveryInstanceDelivered) {
  ArbFixture f;
  const BusLayout layout = make_layout(f.app, f.params, f.config());
  const AnalysisResult analysis = analyze(layout);
  SimOptions options;
  options.record_trace = true;
  auto sim = simulate(layout, analysis.schedule(), options);
  ASSERT_TRUE(sim.ok()) << sim.error().message;
  EXPECT_EQ(sim.value().unfinished_jobs, 0);
  // 3 instances of the fast message, 1 of the slow one.
  int fast_count = 0;
  int slow_count = 0;
  for (const TransmissionRecord& r : sim.value().trace) {
    if (r.message == f.fast_msg) ++fast_count;
    if (r.message == f.slow_msg) ++slow_count;
  }
  EXPECT_EQ(fast_count, 3);
  EXPECT_EQ(slow_count, 1);
}

TEST(DynArbitration, InstancesTransmitInOrder) {
  ArbFixture f;
  const BusLayout layout = make_layout(f.app, f.params, f.config());
  const AnalysisResult analysis = analyze(layout);
  SimOptions options;
  options.record_trace = true;
  auto sim = simulate(layout, analysis.schedule(), options);
  ASSERT_TRUE(sim.ok());
  std::vector<TransmissionRecord> fast;
  for (const TransmissionRecord& r : sim.value().trace) {
    if (r.message == f.fast_msg) fast.push_back(r);
  }
  std::sort(fast.begin(), fast.end(),
            [](const TransmissionRecord& a, const TransmissionRecord& b) {
              return a.start < b.start;
            });
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].instance, static_cast<int>(i));
    // Each instance transmits no earlier than its release.
    EXPECT_GE(fast[i].start, timeunits::us(40) * static_cast<Time>(i));
  }
}

TEST(DynArbitration, MessageNotReadyBeforeSlotWaitsForNextCycle) {
  // Sender with a release offset that lands just after its DYN slot has
  // passed in cycle 0: the frame must go out in cycle 1.
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId g = app.add_graph("g", timeunits::us(60), timeunits::us(60));
  const TaskId s = app.add_task(g, "s", n0, timeunits::us(1), TaskPolicy::Fps, 0);
  const TaskId r = app.add_task(g, "r", n1, timeunits::us(1), TaskPolicy::Fps, 1);
  const MessageId m = app.add_message(g, "m", s, r, 2, MessageClass::Dynamic, 0);
  // DYN segment = cycle [0, 10); slot 1 at t=0.  Offset 2 -> ready at 3.
  app.set_task_release_offset(s, timeunits::us(2));
  ASSERT_TRUE(app.finalize().ok());

  BusConfig config;
  config.static_slot_count = 0;
  config.minislot_count = 10;
  config.frame_id.assign(app.message_count(), 0);
  config.frame_id[index_of(m)] = 1;
  const BusLayout layout = make_layout(app, didactic_params(), config);
  const AnalysisResult analysis = analyze(layout);
  SimOptions options;
  options.record_trace = true;
  auto sim = simulate(layout, analysis.schedule(), options);
  ASSERT_TRUE(sim.ok());
  ASSERT_FALSE(sim.value().trace.empty());
  const TransmissionRecord& first = sim.value().trace.front();
  EXPECT_EQ(first.cycle, 1);  // missed cycle 0's slot
  EXPECT_GE(first.start, timeunits::us(10));
}

TEST(DynArbitration, SamePriorityFifoWithinFrameId) {
  // Two same-priority messages of one node on one FrameID: the one queued
  // first transmits first.
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId g = app.add_graph("g", timeunits::us(100), timeunits::us(100));
  const TaskId s1 = app.add_task(g, "s1", n0, timeunits::us(1), TaskPolicy::Fps, 0);
  const TaskId s2 = app.add_task(g, "s2", n0, timeunits::us(2), TaskPolicy::Fps, 1);
  const TaskId r1 = app.add_task(g, "r1", n1, timeunits::us(1), TaskPolicy::Fps, 5);
  const TaskId r2 = app.add_task(g, "r2", n1, timeunits::us(1), TaskPolicy::Fps, 6);
  const MessageId early = app.add_message(g, "early", s1, r1, 2, MessageClass::Dynamic, 3);
  const MessageId late = app.add_message(g, "late", s2, r2, 2, MessageClass::Dynamic, 3);
  ASSERT_TRUE(app.finalize().ok());

  BusConfig config;
  config.static_slot_count = 0;
  config.minislot_count = 10;
  config.frame_id.assign(app.message_count(), 0);
  config.frame_id[index_of(early)] = 1;
  config.frame_id[index_of(late)] = 1;
  const BusLayout layout = make_layout(app, didactic_params(), config);
  const AnalysisResult analysis = analyze(layout);
  SimOptions options;
  options.record_trace = true;
  auto sim = simulate(layout, analysis.schedule(), options);
  ASSERT_TRUE(sim.ok());
  Time t_early = kTimeNone;
  Time t_late = kTimeNone;
  for (const TransmissionRecord& r : sim.value().trace) {
    if (r.message == early) t_early = r.start;
    if (r.message == late) t_late = r.start;
  }
  ASSERT_NE(t_early, kTimeNone);
  ASSERT_NE(t_late, kTimeNone);
  EXPECT_LT(t_early, t_late);
}

/// The first transmission of frame m on a bus of ten 1 us minislots and no
/// static segment (cycle 10 us): m's sender runs `wcet` from its release at
/// 0 and sends one 1-minislot frame on FrameID 3, whose slot instant in
/// cycle c is c * 10 us + 2 us when no frame before it is sent.  With
/// `leader`, another node's frame on FrameID 1 is queued at 10 us and sent
/// at once, so the walk is inside cycle 1's segment when m is queued.
TransmissionRecord first_transmission_of_m(Time wcet, bool leader) {
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const NodeId n2 = app.add_node("N2");
  const GraphId g = app.add_graph("g", timeunits::us(40), timeunits::us(40));
  const TaskId s = app.add_task(g, "s", n0, wcet, TaskPolicy::Fps, 0);
  const TaskId r = app.add_task(g, "r", n1, timeunits::us(1), TaskPolicy::Fps, 1);
  const MessageId m = app.add_message(g, "m", s, r, 1, MessageClass::Dynamic, 0);
  MessageId lead{};
  if (leader) {
    const TaskId ls = app.add_task(g, "ls", n2, timeunits::us(10), TaskPolicy::Fps, 2);
    const TaskId lr = app.add_task(g, "lr", n1, timeunits::us(1), TaskPolicy::Fps, 3);
    lead = app.add_message(g, "lead", ls, lr, 1, MessageClass::Dynamic, 0);
  }
  if (!app.finalize().ok()) throw std::runtime_error("fixture");
  BusConfig config;
  config.static_slot_count = 0;
  config.minislot_count = 10;
  config.frame_id.assign(app.message_count(), 0);
  config.frame_id[index_of(m)] = 3;
  if (leader) config.frame_id[index_of(lead)] = 1;
  const BusLayout layout = make_layout(app, didactic_params(), config);
  const AnalysisResult analysis = analyze(layout);
  SimOptions options;
  options.record_trace = true;
  auto sim = simulate(layout, analysis.schedule(), options);
  if (!sim.ok()) throw std::runtime_error(sim.error().message);
  for (const TransmissionRecord& record : sim.value().trace) {
    if (record.message == m) return record;
  }
  throw std::runtime_error("m never transmitted");
}

TEST(DynArbitration, SenderFinishingAtItsSlotInstantSendsInThatSlot) {
  // FrameID 3's slot instant in cycle 1 is 12 us: a sender finishing right
  // then has its frame queued before that step (completions rank first).
  // One nanosecond later the step has passed and the frame waits for
  // cycle 2.  Without the leader the walk reaches cycle 1 from cycle 0's
  // start, with it from inside cycle 1's segment.
  for (const bool leader : {false, true}) {
    const TransmissionRecord on_time = first_transmission_of_m(timeunits::us(12), leader);
    EXPECT_EQ(on_time.slot, 3) << leader;
    EXPECT_EQ(on_time.cycle, 1) << leader;
    EXPECT_EQ(on_time.start, timeunits::us(12)) << leader;
    const TransmissionRecord late = first_transmission_of_m(timeunits::us(12) + 1, leader);
    EXPECT_EQ(late.cycle, 2) << leader;
    EXPECT_EQ(late.start, timeunits::us(22)) << leader;
  }
}

TEST(DynArbitration, AfterASendTheWalkResumesAtTheNextFrameId) {
  // Cycle 1 (10 us on): N0 queues two frames on FrameID 1 at 10 us, N2's
  // frame on FrameID 2 waits since 5 us.  FrameID 1 sends one frame per
  // cycle, so the walk goes on at FrameID 2 one minislot later and the
  // second FrameID 1 frame waits for cycle 2.
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const NodeId n2 = app.add_node("N2");
  const GraphId g = app.add_graph("g", timeunits::us(40), timeunits::us(40));
  const TaskId a = app.add_task(g, "a", n0, timeunits::us(10), TaskPolicy::Fps, 0);
  const TaskId b = app.add_task(g, "b", n2, timeunits::us(5), TaskPolicy::Fps, 0);
  const TaskId r1 = app.add_task(g, "r1", n1, timeunits::us(1), TaskPolicy::Fps, 1);
  const TaskId r2 = app.add_task(g, "r2", n1, timeunits::us(1), TaskPolicy::Fps, 2);
  const TaskId r3 = app.add_task(g, "r3", n1, timeunits::us(1), TaskPolicy::Fps, 3);
  const MessageId a1 = app.add_message(g, "a1", a, r1, 1, MessageClass::Dynamic, 0);
  const MessageId a2 = app.add_message(g, "a2", a, r2, 1, MessageClass::Dynamic, 1);
  const MessageId bm = app.add_message(g, "b", b, r3, 1, MessageClass::Dynamic, 0);
  ASSERT_TRUE(app.finalize().ok());
  BusConfig config;
  config.static_slot_count = 0;
  config.minislot_count = 10;
  config.frame_id.assign(app.message_count(), 0);
  config.frame_id[index_of(a1)] = 1;
  config.frame_id[index_of(a2)] = 1;
  config.frame_id[index_of(bm)] = 2;
  const BusLayout layout = make_layout(app, didactic_params(), config);
  const AnalysisResult analysis = analyze(layout);
  SimOptions options;
  options.record_trace = true;
  auto sim = simulate(layout, analysis.schedule(), options);
  ASSERT_TRUE(sim.ok()) << sim.error().message;
  const auto start_of = [&](MessageId m) {
    for (const TransmissionRecord& r : sim.value().trace) {
      if (r.message == m) return r.start;
    }
    return kTimeNone;
  };
  EXPECT_EQ(start_of(a1), timeunits::us(10));
  EXPECT_EQ(start_of(bm), timeunits::us(11));
  EXPECT_EQ(start_of(a2), timeunits::us(20));
}

TEST(DynArbitration, IdleWalkCountsOneEventPerMinislotStepUpToTheHorizon) {
  // FrameID 10 of 10 minislots: every cycle has 10 FrameID steps and the
  // step that ends the segment at the cycle boundary.  The sender is gated
  // and never released, so every DYN queue stays empty.
  Application app;
  const NodeId n0 = app.add_node("N0");
  const NodeId n1 = app.add_node("N1");
  const GraphId g = app.add_graph("g", timeunits::us(35), timeunits::us(35));
  const TaskId s = app.add_task(g, "s", n0, timeunits::us(1), TaskPolicy::Fps, 0);
  const TaskId r = app.add_task(g, "r", n1, timeunits::us(1), TaskPolicy::Fps, 1);
  const MessageId m = app.add_message(g, "m", s, r, 1, MessageClass::Dynamic, 0);
  ASSERT_TRUE(app.finalize().ok());
  BusConfig config;
  config.static_slot_count = 0;
  config.minislot_count = 10;
  config.frame_id.assign(app.message_count(), 0);
  config.frame_id[index_of(m)] = 10;
  const BusLayout layout = make_layout(app, didactic_params(), config);
  const AnalysisResult analysis = analyze(layout);
  const Time cycle = layout.cycle_len();
  const Time gd = layout.params().gd_minislot;

  // Hyper-period 35 us is not a multiple of the 10 us cycle: one
  // hyper-period cuts cycle 3's segment after 5 steps; two align up to
  // lcm = 70 us, where cycle 6's segment-ending step falls on the horizon.
  for (const auto& [hyperperiods, expected_steps] : {std::pair{1, 38}, std::pair{2, 76}}) {
    EngineOptions options;
    options.hyperperiods = hyperperiods;
    auto engine = ClusterEngine::create(layout, analysis.schedule(), options);
    ASSERT_TRUE(engine.ok()) << engine.error().message;
    ClusterEngine& e = *engine.value();
    e.gate_task(s);
    while (!e.done()) e.process_next();
    std::uint64_t steps = 0;
    for (Time c = 0; c * cycle < e.horizon(); ++c) {
      for (int i = 0; i <= layout.max_frame_id(); ++i) {
        if (c * cycle + layout.st_segment_len() + i * gd < e.horizon()) ++steps;
      }
    }
    EXPECT_EQ(steps, static_cast<std::uint64_t>(expected_steps));
    EXPECT_EQ(e.events_processed(), e.queued_events() + steps) << hyperperiods;
    const SimResult result = e.finish();
    EXPECT_TRUE(result.trace.empty());
  }
}

TEST(DynArbitration, RelayReleasedWhileTheDownstreamWalkIsIdleSendsInItsFirstEligibleSlot) {
  // TwoClusterSystem: cluster 1 carries no DYN frame but m_cross's second
  // hop, which the gateway's forwarding relay queues once the upstream
  // receive relay (another engine) has released it.
  testing::TwoClusterSystem sys;
  auto model = SystemModel::build(std::make_shared<const Application>(sys.app));
  ASSERT_TRUE(model.ok()) << model.error().message;
  SystemConfig config;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    config.clusters.push_back(ClusterConfig::flexray_bus(
        minimal_start_config(*model.value().cluster_app(c), sys.params).config));
  }
  auto layouts = build_system_layouts(model.value(), sys.params, config);
  ASSERT_TRUE(layouts.ok()) << layouts.error().message;
  auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;
  NetSimOptions options;
  options.record_trace = true;
  auto net = simulate_network(model.value(), layouts.value(), analysis.value(), options);
  ASSERT_TRUE(net.ok()) << net.error().message;

  const LocalActivity hop = model.value().message_hops(sys.cross_msg).at(1);
  const BusLayout& down = layouts.value()[hop.cluster].flexray();
  const auto local = static_cast<MessageId>(hop.index);
  ASSERT_EQ(down.max_frame_id(), down.frame_id(local));  // the only DYN FrameID
  const Time gd = down.params().gd_minislot;
  int checked = 0;
  for (const MessageTrace& trace : net.value().traces) {
    if (trace.message != sys.cross_msg || trace.hops.size() != 2) continue;
    const HopRecord& second = trace.hops[1];
    const Time relay_done = second.enter + second.gateway_wait;
    // First slot instant of the hop's FrameID at or after the relay's
    // completion; nothing else is queued, so its counter equals its FrameID.
    const Time offset = down.st_segment_len() + (down.frame_id(local) - 1) * gd;
    const Time cycle = relay_done <= offset ? 0 : ceil_div(relay_done - offset, down.cycle_len());
    EXPECT_EQ(second.bus_start, cycle * down.cycle_len() + offset) << "instance " << trace.instance;
    EXPECT_EQ(second.slot, down.frame_id(local));
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace flexopt
