// Solve-report v5 pessimism block serialization, end to end from a real
// analysis: a gate-starved TSN egress port pins an ET bound to infinity,
// and that infinity must reach the JSON as `null` — never as the
// kTimeInfinity sentinel integer, which downstream tooling would read as a
// (very large) finite bound.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "flexopt/model/system_model.hpp"

namespace flexopt {
namespace {

/// A single-cluster TSN system whose only ET message is starved: the ST
/// gate window leaves a gap shorter than the ET frame, so guard banding
/// blocks it forever (mirrors the tsn_analysis starvation fixture).
struct StarvedTsnSystem {
  Application app;
  SystemConfig config;
  MessageId dyn{};

  StarvedTsnSystem() {
    const NodeId a = app.add_node("A");
    const NodeId b = app.add_node("B");
    const GraphId tt = app.add_graph("tt", timeunits::us(100), timeunits::us(100));
    const GraphId et = app.add_graph("et", timeunits::us(100), timeunits::us(100));
    const TaskId p = app.add_task(tt, "p", a, timeunits::us(1), TaskPolicy::Scs);
    const TaskId c = app.add_task(tt, "c", b, timeunits::us(1), TaskPolicy::Scs);
    const MessageId st = app.add_message(tt, "st", p, c, 4, MessageClass::Static);
    const TaskId e = app.add_task(et, "e", a, timeunits::us(1), TaskPolicy::Fps, 1);
    const TaskId s = app.add_task(et, "s", b, timeunits::us(1), TaskPolicy::Fps, 2);
    dyn = app.add_message(et, "dyn", e, s, 2, MessageClass::Dynamic, 0);
    app.set_cluster_backend(ClusterId{0}, ClusterBackendKind::Tsn);
    auto fin = app.finalize();
    if (!fin.ok()) throw std::runtime_error(fin.error().message);

    TsnConfig tsn;
    tsn.cycle = timeunits::us(5);
    tsn.link_rate_mbps = 100;
    tsn.gates.assign(app.message_count(), TsnGateWindow{});
    tsn.et_priority.assign(app.message_count(), 0);
    // Window covers all but 500ns of the cycle; the ET frame never fits.
    tsn.gates[index_of(st)] = TsnGateWindow{0, timeunits::us(5) - 500};
    config.clusters.push_back(ClusterConfig::tsn_switch(std::move(tsn)));
  }
};

TEST(PessimismJson, StarvedPortSerializesInfiniteBoundAsNull) {
  StarvedTsnSystem sys;
  auto built = SystemModel::build(std::make_shared<const Application>(sys.app));
  ASSERT_TRUE(built.ok()) << built.error().message;
  const SystemModel& model = built.value();
  auto layouts = build_system_layouts(model, BusParams{}, sys.config);
  ASSERT_TRUE(layouts.ok()) << layouts.error().message;

  AnalysisOptions options;
  options.mode = AnalysisMode::Exact;
  auto analysis = analyze_multicluster(model, layouts.value(), options);
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;
  ASSERT_EQ(analysis.value().clusters.size(), 1u);
  ASSERT_TRUE(
      is_infinite(analysis.value().clusters[0].message_completion[index_of(sys.dyn)]));

  std::vector<const Application*> apps{model.cluster_app(0).get()};
  const PessimismReport pessimism = make_pessimism_report(apps, analysis.value().clusters);
  ASSERT_GT(pessimism.unbounded, 0u);

  SolveReport report;
  report.outcome.system = sys.config;
  report.outcome.cost = analysis.value().cost;
  report.outcome.feasible = false;
  report.outcome.evaluations = 1;
  const std::string json = write_solve_json(sys.app, "exact", report, false, &pessimism);

  EXPECT_NE(json.find("\"schema\": \"flexopt-solve-report/6\""), std::string::npos);
  EXPECT_NE(json.find("\"pessimism\""), std::string::npos);
  EXPECT_NE(json.find("\"unbounded\": " + std::to_string(pessimism.unbounded)),
            std::string::npos);
  // The starved bound reaches the JSON as null, not as the sentinel.
  EXPECT_NE(json.find("\"holistic\": null"), std::string::npos);
  EXPECT_EQ(json.find(std::to_string(kTimeInfinity)), std::string::npos);

  // Without a report the block is absent and the schema stays v5.
  const std::string plain = write_solve_json(sys.app, "exact", report);
  EXPECT_EQ(plain.find("\"pessimism\""), std::string::npos);
  EXPECT_NE(plain.find("\"flexopt-solve-report/6\""), std::string::npos);
}

}  // namespace
}  // namespace flexopt
