// Golden-file conformance of the flexopt-netsim-trace/1 schema: simulates
// the two-cluster fixture and byte-compares write_netsim_trace_json against
// the checked-in expectation.  Because the sanitize CI job runs the golden
// label on a Debug+ASan build while the release jobs run it at -O2, this is
// also the build-config-independence check for the simulator: any
// optimisation- or libc-dependent drift in event ordering or number
// formatting fails the byte compare.  Intentional schema changes regenerate
// with FLEXOPT_UPDATE_GOLDEN=1 (the test then fails once, asking for a
// re-run, so a stale environment variable cannot silently pass CI).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/netsim/trace_json.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(FLEXOPT_SOURCE_DIR) + "/" + relative;
}

bool update_goldens() {
  const char* v = std::getenv("FLEXOPT_UPDATE_GOLDEN");
  return v != nullptr && v[0] == '1';
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = source_path("tests/golden/" + name);
  if (update_goldens()) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out) << "cannot write " << path;
    FAIL() << "regenerated " << name << "; unset FLEXOPT_UPDATE_GOLDEN and re-run";
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " (regenerate with FLEXOPT_UPDATE_GOLDEN=1)";
  EXPECT_EQ(expected, actual) << "netsim trace schema drifted from " << name
                              << "; if intentional, regenerate with "
                                 "FLEXOPT_UPDATE_GOLDEN=1";
}

TEST(NetsimTraceGolden, TwoClusterTraceMatchesGolden) {
  testing::TwoClusterSystem sys;
  auto model = SystemModel::build(std::make_shared<const Application>(sys.app));
  ASSERT_TRUE(model.ok());
  SystemConfig config;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    config.clusters.push_back(ClusterConfig::flexray_bus(
        minimal_start_config(*model.value().cluster_app(c), sys.params).config));
  }
  auto layouts = build_system_layouts(model.value(), sys.params, config);
  ASSERT_TRUE(layouts.ok());
  auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
  ASSERT_TRUE(analysis.ok());

  NetSimOptions options;
  options.hyperperiods = 2;
  options.record_trace = true;
  auto result = simulate_network(model.value(), layouts.value(), analysis.value(), options);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const SoundnessReport soundness =
      check_soundness(model.value(), analysis.value(), result.value());
  EXPECT_TRUE(soundness.sound);
  expect_golden("netsim_trace_twocluster.json",
                write_netsim_trace_json(model.value(), analysis.value(), result.value(),
                                        soundness));
}

}  // namespace
}  // namespace flexopt
