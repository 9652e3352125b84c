// Text system-description format: parsing, validation errors with line
// numbers, duration literals, and write/parse round trips.

#include <gtest/gtest.h>

#include <string>

#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/io/system_format.hpp"

namespace flexopt {
namespace {

constexpr const char* kMinimal = R"(
# two nodes, one TT loop, one ET path
param gd_minislot=2us
node a
node b
graph loop tt period=10ms deadline=8ms
task t0 graph=loop node=a wcet=300us prio=0
task t1 graph=loop node=b wcet=500us prio=1
message m0 from=t0 to=t1 bytes=8 prio=0
graph evt et period=20ms
task e0 graph=evt node=b wcet=200us prio=2 offset=1ms
task e1 graph=evt node=a wcet=100us prio=3
message m1 from=e0 to=e1 bytes=4 prio=1
)";

TEST(SystemFormat, ParsesMinimalSystem) {
  auto parsed = parse_system_text(kMinimal);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Application& app = parsed.value().app;
  EXPECT_EQ(app.node_count(), 2u);
  EXPECT_EQ(app.graph_count(), 2u);
  EXPECT_EQ(app.task_count(), 4u);
  EXPECT_EQ(app.message_count(), 2u);
  EXPECT_EQ(parsed.value().params.gd_minislot, timeunits::us(2));
  // Policy / class follow the graph trigger.
  EXPECT_EQ(app.tasks()[0].policy, TaskPolicy::Scs);
  EXPECT_EQ(app.tasks()[2].policy, TaskPolicy::Fps);
  EXPECT_EQ(app.messages()[0].cls, MessageClass::Static);
  EXPECT_EQ(app.messages()[1].cls, MessageClass::Dynamic);
  // Attributes round through.
  EXPECT_EQ(app.tasks()[2].release_offset, timeunits::ms(1));
  EXPECT_EQ(app.graphs()[0].deadline, timeunits::ms(8));
  EXPECT_EQ(app.graphs()[1].deadline, timeunits::ms(20));  // default = period
}

TEST(SystemFormat, DurationLiterals) {
  EXPECT_EQ(parse_duration("250").value(), 250);
  EXPECT_EQ(parse_duration("250ns").value(), 250);
  EXPECT_EQ(parse_duration("3us").value(), timeunits::us(3));
  EXPECT_EQ(parse_duration("10ms").value(), timeunits::ms(10));
  EXPECT_EQ(parse_duration("2s").value(), timeunits::sec(2));
  EXPECT_FALSE(parse_duration("").ok());
  EXPECT_FALSE(parse_duration("ms").ok());
  EXPECT_FALSE(parse_duration("10parsec").ok());
}

/// Scaling a literal to nanoseconds used to overflow int64 (signed-overflow
/// UB) for values such as 9223372036854775807us; the scale is now checked
/// and the literal rejected, with the line number inside a system file.
TEST(SystemFormat, RejectsDurationsThatOverflow) {
  EXPECT_EQ(parse_duration("0s").value(), 0);
  EXPECT_EQ(parse_duration("9223372036854775us").value(), 9'223'372'036'854'775'000);
  EXPECT_EQ(parse_duration("9223372036s").value(), timeunits::sec(9'223'372'036));
  const auto expect_overflow = [](const char* text) {
    auto parsed = parse_duration(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.error().message.find("overflow"), std::string::npos) << parsed.error().message;
  };
  expect_overflow("9223372036854775807us");
  expect_overflow("9223372036854776us");
  expect_overflow("9223372036855ms");
  expect_overflow("9223372037s");

  const auto expect_rejected_at = [](const std::string& text, const std::string& line) {
    auto parsed = parse_system_text(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.error().message.find(line), std::string::npos) << parsed.error().message;
  };
  expect_rejected_at("node a\ngraph g tt period=9223372036854775807us\n", "line 2");
  expect_rejected_at("node a\nparam gd_bit=9223372037s\n", "line 2");
  const std::string graph = "node a\ngraph g tt period=10ms\n";
  expect_rejected_at(graph + "task t graph=g node=a wcet=9223372036855ms\n", "line 3");
}

TEST(SystemFormat, ErrorsCarryLineNumbers) {
  auto bad = parse_system_text("node a\nbogus keyword here\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("line 2"), std::string::npos);
}

/// A zero bus duration used to crash the analysis with a division by zero
/// (gd_minislot, gd_macrotick) or silently leave nothing analysable
/// (gd_bit); the parser now rejects all three with the line number.
TEST(SystemFormat, RejectsZeroBusDurations) {
  for (const char* key : {"gd_bit", "gd_macrotick", "gd_minislot"}) {
    for (const char* zero : {"0", "0ns", "0us"}) {
      auto bad = parse_system_text(std::string("param ") + key + "=" + zero + kMinimal);
      ASSERT_FALSE(bad.ok()) << key << "=" << zero;
      EXPECT_NE(bad.error().message.find("line 1"), std::string::npos) << bad.error().message;
      EXPECT_NE(bad.error().message.find(key), std::string::npos) << bad.error().message;
    }
    auto positive = parse_system_text(std::string("param ") + key + "=1us" + kMinimal);
    EXPECT_TRUE(positive.ok()) << key << ": " << positive.error().message;
  }
}

TEST(SystemFormat, RejectsUnknownReferences) {
  EXPECT_FALSE(parse_system_text("node a\ngraph g tt period=1ms\n"
                                 "task t graph=nope node=a wcet=1us\n")
                   .ok());
  EXPECT_FALSE(parse_system_text("node a\ngraph g tt period=1ms\n"
                                 "task t graph=g node=nope wcet=1us\n")
                   .ok());
  EXPECT_FALSE(parse_system_text("node a\nnode b\ngraph g tt period=1ms\n"
                                 "task t graph=g node=a wcet=1us\n"
                                 "message m from=t to=ghost bytes=2\n")
                   .ok());
}

TEST(SystemFormat, RejectsDuplicates) {
  EXPECT_FALSE(parse_system_text("node a\nnode a\n").ok());
  EXPECT_FALSE(parse_system_text("node a\ngraph g tt period=1ms\ngraph g et period=2ms\n").ok());
}

TEST(SystemFormat, ModelRulesStillApply) {
  // Intra-node message -> model validation error surfaces through finalize.
  auto bad = parse_system_text(
      "node a\nnode b\ngraph g tt period=1ms\n"
      "task t0 graph=g node=a wcet=1us\ntask t1 graph=g node=a wcet=1us\n"
      "message m from=t0 to=t1 bytes=2\n");
  EXPECT_FALSE(bad.ok());
}

TEST(SystemFormat, WriteParseRoundTrip) {
  auto parsed = parse_system_text(kMinimal);
  ASSERT_TRUE(parsed.ok());
  const std::string dumped = write_system(parsed.value().app, parsed.value().params);
  auto reparsed = parse_system_text(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message << "\n" << dumped;
  const Application& a = parsed.value().app;
  const Application& b = reparsed.value().app;
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.message_count(), b.message_count());
  for (std::uint32_t t = 0; t < a.task_count(); ++t) {
    EXPECT_EQ(a.tasks()[t].wcet, b.tasks()[t].wcet);
    EXPECT_EQ(a.tasks()[t].policy, b.tasks()[t].policy);
    EXPECT_EQ(a.tasks()[t].release_offset, b.tasks()[t].release_offset);
  }
  for (std::uint32_t m = 0; m < a.message_count(); ++m) {
    EXPECT_EQ(a.messages()[m].size_bytes, b.messages()[m].size_bytes);
    EXPECT_EQ(a.messages()[m].cls, b.messages()[m].cls);
  }
  EXPECT_EQ(parsed.value().params.gd_minislot, reparsed.value().params.gd_minislot);
}

TEST(SystemFormat, ClusteredSystemRoundTrip) {
  const char* text =
      "node A\n"
      "node B cluster=1\n"
      "gateway GW cluster=0 bridges=1\n"
      "graph G et period=20ms deadline=20ms\n"
      "task t0 graph=G node=A wcet=500us prio=1\n"
      "task t1 graph=G node=B wcet=400us prio=2\n"
      "message m from=t0 to=t1 bytes=8 prio=1\n";
  auto parsed = parse_system_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Application& a = parsed.value().app;
  EXPECT_EQ(a.cluster_count(), 2u);
  EXPECT_TRUE(a.has_cross_cluster_messages());
  ASSERT_EQ(a.route_of(static_cast<MessageId>(0)).gateways.size(), 1u);

  const std::string dumped = write_system(a, parsed.value().params);
  EXPECT_NE(dumped.find("node B cluster=1"), std::string::npos);
  EXPECT_NE(dumped.find("gateway GW cluster=0 bridges=1"), std::string::npos);
  auto reparsed = parse_system_text(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message << "\n" << dumped;
  EXPECT_EQ(reparsed.value().app.cluster_count(), 2u);

  // Cluster-aware parse errors, including trailing garbage: a mistyped
  // separator must fail loudly, not silently drop bridged clusters.
  EXPECT_FALSE(parse_system_text("node A cluster=-1\n").ok());
  EXPECT_FALSE(parse_system_text("node A cluster=1x\n").ok());
  EXPECT_FALSE(parse_system_text("gateway GW cluster=0\n").ok());
  EXPECT_FALSE(parse_system_text("gateway GW bridges=1\n").ok());
  EXPECT_FALSE(parse_system_text("gateway GW cluster=0 bridges=1;2\n").ok());
}

TEST(SystemFormat, BackendKeywordRoundTrips) {
  const char* text =
      "node A\n"
      "node B cluster=1\n"
      "gateway GW cluster=0 bridges=1\n"
      "backend 1 tsn\n"
      "graph G et period=20ms deadline=20ms\n"
      "task t0 graph=G node=A wcet=500us prio=1\n"
      "task t1 graph=G node=B wcet=400us prio=2\n"
      "message m from=t0 to=t1 bytes=8 prio=1\n";
  auto parsed = parse_system_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Application& a = parsed.value().app;
  EXPECT_EQ(a.cluster_backend(static_cast<ClusterId>(0)), ClusterBackendKind::FlexRay);
  EXPECT_EQ(a.cluster_backend(static_cast<ClusterId>(1)), ClusterBackendKind::Tsn);

  // The writer emits backend lines only for non-FlexRay clusters, and the
  // declaration survives a round trip.
  const std::string dumped = write_system(a, parsed.value().params);
  EXPECT_NE(dumped.find("backend 1 tsn"), std::string::npos);
  EXPECT_EQ(dumped.find("backend 0"), std::string::npos);
  auto reparsed = parse_system_text(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message << "\n" << dumped;
  EXPECT_EQ(reparsed.value().app.cluster_backend(static_cast<ClusterId>(1)),
            ClusterBackendKind::Tsn);

  // Pure-FlexRay systems keep emitting pre-backend text (byte compatibility).
  auto plain = parse_system_text(kMinimal);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(write_system(plain.value().app, plain.value().params).find("backend"),
            std::string::npos);

  // Malformed backend lines fail with the line number and the valid set.
  auto bad_kind = parse_system_text("node A\nbackend 0 ethernet\n");
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(bad_kind.error().message.find("expected flexray or tsn"), std::string::npos);
  EXPECT_FALSE(parse_system_text("node A\nbackend tsn\n").ok());
  EXPECT_FALSE(parse_system_text("node A\nbackend -1 tsn\n").ok());
  // Declaring a backend for a cluster that never materializes must be
  // rejected by finalize, not silently dropped.
  EXPECT_FALSE(parse_system_text("node A\nbackend 3 tsn\n"
                                 "graph G et period=20ms\n"
                                 "task t graph=G node=A wcet=10us prio=1\n")
                   .ok());
}

TEST(SystemFormat, CruiseControllerRoundTrip) {
  const Application cc = build_cruise_controller();
  const std::string dumped = write_system(cc, cruise_controller_params());
  auto reparsed = parse_system_text(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed.value().app.task_count(), cc.task_count());
  EXPECT_EQ(reparsed.value().app.message_count(), cc.message_count());
  EXPECT_EQ(reparsed.value().app.graph_count(), cc.graph_count());
  // Topology preserved: same adjacency sizes per activity.
  for (std::uint32_t t = 0; t < cc.task_count(); ++t) {
    EXPECT_EQ(
        reparsed.value().app.successors(ActivityRef::task(static_cast<TaskId>(t))).size(),
        cc.successors(ActivityRef::task(static_cast<TaskId>(t))).size());
  }
}

}  // namespace
}  // namespace flexopt
