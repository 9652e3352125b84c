// Property suite for the network simulator: across random MultiCluster
// scenarios (2-4 clusters, every traffic mix) the observed completions of
// simulate_network never exceed the analyze_multicluster bounds — the
// executable soundness check behind the paper's holistic-analysis claims —
// the serialized flexopt-netsim-trace/1 document is invariant under the
// portfolio's member-parallelism (jobs=1 vs jobs=8), mirroring the solver
// determinism suites, and a recorded digest pins every simulated
// transmission, completion, latency statistic and event count over a fixed
// population.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/math/hyperperiod.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/netsim/trace_json.hpp"
#include "flexopt/util/rng.hpp"
#include "flexopt/util/seed_mix.hpp"

namespace flexopt {
namespace {

ScenarioSpec random_spec(Rng& rng, TrafficMix traffic) {
  ScenarioSpec spec;
  spec.topology = Topology::MultiCluster;
  spec.traffic = traffic;
  spec.clusters = static_cast<int>(rng.uniform_int(2, 4));
  spec.inter_cluster_share = rng.uniform_real(0.1, 0.5);
  SyntheticSpec& base = spec.base;
  base.nodes = spec.clusters * static_cast<int>(rng.uniform_int(1, 2));
  base.tasks_per_graph = 4;
  base.tasks_per_node = 4 * static_cast<int>(rng.uniform_int(1, 2));
  base.deadline_factor = rng.uniform_real(1.5, 2.5);
  base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

/// Per-cluster minimal start configurations; nullopt-style empty config
/// when any cluster is infeasible under the minimal bounds.
bool start_configs(const SystemModel& model, const BusParams& params, SystemConfig* out) {
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    const StartConfig start = minimal_start_config(*model.cluster_app(c), params);
    if (!start.bounds.feasible()) return false;
    out->clusters.push_back(ClusterConfig::flexray_bus(start.config));
  }
  return true;
}

TEST(NetsimProperty, ObservedCompletionsNeverExceedMulticlusterBounds) {
  Rng rng(57213);
  const BusParams params;
  int simulated = 0;
  for (int i = 0; i < 40 && simulated < 30; ++i) {
    // Cycle through every traffic mix so ST-, DYN- and mixed-segment
    // traffic all hit the cross-check.
    const ScenarioSpec spec = random_spec(rng, static_cast<TrafficMix>(i % 3));
    auto app = generate_scenario(spec, params);
    if (!app.ok()) continue;
    auto model =
        SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(model.ok()) << model.error().message;
    SystemConfig config;
    if (!start_configs(model.value(), params, &config)) continue;
    auto layouts = build_system_layouts(model.value(), params, config);
    if (!layouts.ok()) continue;
    auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
    ASSERT_TRUE(analysis.ok()) << analysis.error().message;

    auto result = simulate_network(model.value(), layouts.value(), analysis.value());
    ASSERT_TRUE(result.ok()) << result.error().message;
    ++simulated;
    EXPECT_EQ(result.value().precedence_violations, 0) << "seed " << spec.base.seed;

    const SoundnessReport report =
        check_soundness(model.value(), analysis.value(), result.value());
    EXPECT_GT(report.checked, 0u);
    EXPECT_TRUE(report.sound) << "seed " << spec.base.seed;
    for (const SoundnessViolation& v : report.violations) {
      ADD_FAILURE() << "cluster " << v.cluster << (v.task ? " task " : " message ") << v.name
                    << " observed " << v.observed << " > bound " << v.bound << " (seed "
                    << spec.base.seed << ")";
    }
  }
  // The population must actually exercise the cross-check (>= 25 scenarios
  // per the netsim acceptance bar).
  EXPECT_GE(simulated, 25);
}

TEST(NetsimProperty, TraceJsonIsPortfolioJobCountInvariant) {
  // The winner a racing portfolio reports is jobs-invariant; re-simulating
  // that winner must therefore produce byte-identical netsim trace JSON
  // whatever the member parallelism was.
  Rng rng(99173);
  const BusParams params;
  int compared = 0;
  for (int i = 0; i < 8 && compared < 3; ++i) {
    const ScenarioSpec spec = random_spec(rng, TrafficMix::Mixed);
    auto app = generate_scenario(spec, params);
    if (!app.ok()) continue;
    auto model =
        SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(model.ok());
    const SystemModel& m = model.value();

    auto trace_json = [&](int jobs) -> std::string {
      PortfolioSpec portfolio;
      portfolio.members = {"sa", "obc-cf", "bbc"};
      portfolio.jobs = jobs;
      auto optimizer = OptimizerRegistry::create("portfolio", portfolio);
      if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
      EvaluatorOptions evaluator_options;
      evaluator_options.threads = 1;
      CostEvaluator evaluator(m, params, AnalysisOptions{}, evaluator_options);
      SolveRequest request;
      request.seed = spec.base.seed;
      request.max_evaluations = 60;
      const SolveReport report = optimizer.value()->solve(evaluator, request);
      if (report.outcome.cost.value >= kInvalidConfigCost) return std::string();
      auto layouts = build_system_layouts(m, params, report.outcome.system);
      if (!layouts.ok()) return std::string();
      auto analysis = analyze_multicluster(m, layouts.value(), AnalysisOptions{});
      if (!analysis.ok()) return std::string();
      NetSimOptions options;
      options.record_trace = true;
      auto result = simulate_network(m, layouts.value(), analysis.value(), options);
      if (!result.ok()) throw std::runtime_error(result.error().message);
      const SoundnessReport soundness = check_soundness(m, analysis.value(), result.value());
      EXPECT_TRUE(soundness.sound) << "seed " << spec.base.seed << " jobs " << jobs;
      return write_netsim_trace_json(m, analysis.value(), result.value(), soundness,
                                     options.hyperperiods);
    };

    const std::string serial = trace_json(1);
    if (serial.empty()) continue;
    EXPECT_EQ(serial, trace_json(8)) << "scenario " << i << " seed " << spec.base.seed;
    ++compared;
  }
  EXPECT_GE(compared, 1);
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix_time(Time t) { mix(static_cast<std::uint64_t>(t)); }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix_latency(const LatencyStat& s) {
    mix(s.count);
    mix_double(s.min);
    mix_double(s.mean);
    mix_double(s.p50);
    mix_double(s.p99);
    mix_double(s.max);
  }
};

/// Mixes everything a simulation observes: every bus transmission, worst
/// completion and latency statistic, plus the event count, unfinished jobs
/// and precedence violations.
void mix_simulation(Digest& d, const NetSimResult& r) {
  d.mix_time(r.horizon);
  d.mix(r.events);
  d.mix(static_cast<std::uint64_t>(r.unfinished_jobs));
  d.mix(static_cast<std::uint64_t>(r.precedence_violations));
  for (const Time t : r.task_worst_completion) d.mix_time(t);
  for (const Time t : r.message_worst_completion) d.mix_time(t);
  for (const LatencyStat& s : r.task_latency) d.mix_latency(s);
  for (const LatencyStat& s : r.message_latency) d.mix_latency(s);
  for (const SimResult& cluster : r.clusters) {
    for (const Time t : cluster.task_worst_completion) d.mix_time(t);
    for (const Time t : cluster.message_worst_completion) d.mix_time(t);
    d.mix(static_cast<std::uint64_t>(cluster.unfinished_jobs));
    d.mix(cluster.trace.size());
    for (const TransmissionRecord& t : cluster.trace) {
      d.mix(index_of(t.message));
      d.mix(static_cast<std::uint64_t>(t.instance));
      d.mix(t.dynamic ? 1u : 0u);
      d.mix(static_cast<std::uint64_t>(t.slot));
      d.mix(static_cast<std::uint64_t>(t.cycle));
      d.mix_time(t.start);
      d.mix_time(t.finish);
      d.mix(t.cluster);
      d.mix(static_cast<std::uint64_t>(t.hop_index));
    }
  }
}

/// The Section 7 bus parameters (10 Mbit/s, 5 us minislots).
BusParams section7_params() {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  return params;
}

/// The fixed population: the exact_verify benchmark's strata (fig9 systems
/// of 2..5 nodes, then 2..4-cluster FlexRay chains), then 2..4-cluster
/// systems with mixed ST/DYN traffic and with alternating FlexRay/TSN
/// clusters.  `attempt` picks the generator seed within a stratum.
ScenarioSpec digest_spec(int stratum, int attempt) {
  ScenarioSpec spec;
  spec.base.seed = derive_seed(20261019, static_cast<std::uint64_t>(100 * stratum + attempt));
  if (stratum < 4) {
    spec.base.nodes = 2 + stratum;
    spec.base.deadline_factor = 0.7;
    return spec;
  }
  const int family = (stratum - 4) / 3;  // 0: FlexRay chains, 1: mixed traffic, 2: FlexRay+TSN
  spec.topology = Topology::MultiCluster;
  spec.clusters = 2 + (stratum - 4) % 3;
  spec.traffic = family == 1 ? TrafficMix::Mixed : TrafficMix::DynOnly;
  spec.backend = family == 2 ? BackendMix::Mixed : BackendMix::Flexray;
  spec.inter_cluster_share = 0.25;
  spec.base.nodes = spec.clusters * 2;
  spec.base.tasks_per_node = 4;
  spec.base.tasks_per_graph = 4;
  spec.base.deadline_factor = 2.0;
  return spec;
}

/// The horizon simulate_network runs for `hyperperiods`: beyond one, the
/// requested span aligned up to the hyper-period and every bus cycle.
Time aligned_horizon(const MulticlusterResult& analysis, std::span<const ClusterLayout> layouts,
                     int hyperperiods) {
  const Time H = analysis.clusters[0].schedule().hyperperiod();
  if (hyperperiods == 1) return H;
  Time block = H;
  for (const ClusterLayout& layout : layouts) {
    auto lcm = checked_lcm(block, layout.cycle_len());
    if (!lcm.ok()) return kTimeInfinity;
    block = lcm.value();
  }
  auto aligned = checked_align_up(H * hyperperiods, block);
  return aligned.ok() ? aligned.value() : kTimeInfinity;
}

/// Pins the simulator bit for bit: over the population above, under every
/// cluster's minimal start configuration and with traces recorded, the
/// digest of everything each simulation observes at 1 and 2 hyper-periods.
/// A change to the event kernel, its DYN walk or the merged multi-cluster
/// order moves it.  Aligning 2 hyper-periods to near-coprime bus cycles
/// can stretch the horizon to thousands of seconds, so 2-hyper-period runs
/// beyond 30 s of bus time are left out to bound the test's work.
TEST(NetsimProperty, SimulationsMatchRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 0x9b1f32699471f3f4ull;
  constexpr int kStrata = 13;
  constexpr int kPerStratum = 3;
  constexpr Time kMaxHorizon = timeunits::sec(30);
  const BusParams params = section7_params();
  Digest digest;
  int simulated = 0;
  int tsn_systems = 0;
  for (int stratum = 0; stratum < kStrata; ++stratum) {
    int have = 0;
    for (int attempt = 0; have < kPerStratum && attempt < 32; ++attempt) {
      auto app = generate_scenario(digest_spec(stratum, attempt), params);
      if (!app.ok()) continue;
      auto model =
          SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
      ASSERT_TRUE(model.ok()) << model.error().message;
      const SystemModel& m = model.value();
      SystemConfig config;
      bool feasible = true;
      for (std::size_t c = 0; c < m.cluster_count() && feasible; ++c) {
        const Application& cluster = *m.cluster_app(c);
        const ClusterBackendKind kind = cluster.cluster_backend(ClusterId{0});
        if (kind == ClusterBackendKind::FlexRay) {
          feasible = minimal_start_config(cluster, params).bounds.feasible();
        }
        config.clusters.push_back(minimal_start_cluster_config(cluster, params, kind));
      }
      if (!feasible) continue;
      auto layouts = build_system_layouts(m, params, config);
      if (!layouts.ok()) continue;
      auto analysis = analyze_multicluster(m, layouts.value(), AnalysisOptions{});
      if (!analysis.ok()) continue;
      for (const int hyperperiods : {1, 2}) {
        if (aligned_horizon(analysis.value(), layouts.value(), hyperperiods) > kMaxHorizon) {
          continue;
        }
        NetSimOptions options;
        options.hyperperiods = hyperperiods;
        options.record_trace = true;
        auto result = simulate_network(m, layouts.value(), analysis.value(), options);
        ASSERT_TRUE(result.ok()) << result.error().message;
        digest.mix(static_cast<std::uint64_t>(100 * stratum + 10 * attempt + hyperperiods));
        mix_simulation(digest, result.value());
        ++simulated;
      }
      for (const ClusterLayout& layout : layouts.value()) {
        if (layout.kind() == ClusterBackendKind::Tsn) {
          ++tsn_systems;
          break;
        }
      }
      ++have;
    }
    EXPECT_EQ(have, kPerStratum) << "stratum " << stratum;
  }
  EXPECT_EQ(simulated, 72);
  EXPECT_EQ(tsn_systems, 3 * kPerStratum);
  EXPECT_EQ(digest.h, kRecordedDigest) << std::hex << "0x" << digest.h;
}

}  // namespace
}  // namespace flexopt
