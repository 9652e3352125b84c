// Arena hot-path contract, enforced with a real counter rather than code
// review: replaying a warmed SA move chain through
// CostEvaluator::evaluate_in_slot performs no heap allocation at all — on
// one cluster and, cross-cluster iterations included, on three — and
// neither does a memo hit, measured by the operator new interposer
// (src/util/alloc_probe.cpp, linked into this binary only).  An evaluation
// that builds a new schedule table allocates only the shared objects it
// hands to the component cache, a bounded count.  The replay and build
// contracts hold in Release; Debug builds carry the call-local-cache
// cross-check (which allocates by design), so there those tests still run
// but skip the allocation assertion.
// (The engine's equivalence with the Jacobi reference lives in
// delta_eval_property_test.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/util/alloc_probe.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

TEST(ArenaAlloc, WarmReplayPerformsZeroHeapAllocations) {
  const BusParams params;
  SyntheticSpec spec;  // defaults: 5 nodes, the fig9-like regime
  spec.deadline_factor = 0.7;
  spec.seed = 4242;
  auto app_result = generate_synthetic(spec, params);
  ASSERT_TRUE(app_result.ok()) << app_result.error().message;
  const Application& app = app_result.value();

  const StartConfig start = minimal_start_config(app, params);
  ASSERT_TRUE(start.bounds.feasible());

  // Whole-config memoization off so every call exercises the analysis
  // path; the component caches (schedule geometries) stay on and are what
  // the recording pass warms.
  EvaluatorOptions eopts;
  eopts.cache_enabled = false;
  CostEvaluator evaluator(app, params, AnalysisOptions{}, eopts);

  long measured = 0;
  std::uint64_t allocations = 0;
  const auto run_chain = [&](bool count) {
    // A walk over valid neighbours: each step retries its move, a bounded
    // number of times, until the evaluation is valid, as a descent keeps
    // only valid incumbents (error paths allocate strings).
    BusConfig current = start.config;
    Rng move_rng(0x5eedu);
    for (int step = 0; step < 64; ++step) {
      for (int retry = 0; retry < 16; ++retry) {
        BusConfig neighbour = current;
        bool moved = false;
        for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
          moved = random_neighbour_move(neighbour, app, params, move_rng, start.st_senders,
                                        start.bounds.min_minislots, SpecLimits::kMaxMinislots);
        }
        if (!moved) continue;

        const std::uint64_t a0 = alloc_probe::thread_allocations();
        const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(neighbour);
        const std::uint64_t evaluation_allocs = alloc_probe::thread_allocations() - a0;
        if (!eval.valid) continue;
        if (count) {
          ++measured;
          allocations += evaluation_allocs;
        }
        current = std::move(neighbour);
        break;
      }
    }
  };

  run_chain(/*count=*/false);  // recording pass: warm caches, arena, scratch
  run_chain(/*count=*/true);   // replay of the identical RNG stream
  ASSERT_GE(measured, 48);

  if (!alloc_probe::installed()) {
    GTEST_SKIP() << "alloc probe displaced (sanitizer build)";
  }
#ifdef NDEBUG
  EXPECT_EQ(allocations, 0u) << "steady-state hot path allocated on " << measured
                             << " measured moves";
#else
  // Debug carries the call-local-cache bit-identity cross-check, which
  // allocates by design; the replay above still verified it runs clean.
  SUCCEED() << "allocation contract gated to Release";
#endif
}

/// The warm-replay contract on a generated 3-cluster FlexRay system: every
/// memo miss runs analyze_multicluster on worker slot 0's per-cluster
/// layouts and workspace, so a warm, memo-off chain of focused moves over
/// all three clusters allocates nothing on a valid evaluation whose tables
/// are cached, cross-cluster iterations included.  While the miss path
/// rebuilt layouts, arenas and results per cluster and per cross-cluster
/// iteration, this replay made 28,371 allocations over its 64 measured
/// moves (443 per evaluation; Release, g++ 12).
TEST(ArenaAlloc, WarmMulticlusterReplayPerformsZeroHeapAllocations) {
  constexpr std::size_t kClusters = 3;
  const BusParams params;
  ScenarioSpec spec;
  spec.topology = Topology::MultiCluster;
  spec.clusters = static_cast<int>(kClusters);
  spec.inter_cluster_share = 0.3;
  spec.base.nodes = 6;
  spec.base.tasks_per_node = 4;
  spec.base.tasks_per_graph = 4;
  spec.base.deadline_factor = 2.0;
  spec.base.seed = 4242;
  auto app = generate_scenario(spec, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  ASSERT_TRUE(model.ok()) << model.error().message;
  const SystemModel& system = model.value();
  ASSERT_EQ(system.cluster_count(), kClusters);
  ASSERT_FALSE(system.relay_links().empty());

  std::vector<StartConfig> starts;
  SystemConfig start;
  for (std::size_t c = 0; c < kClusters; ++c) {
    starts.push_back(minimal_start_config(*system.cluster_app(c), params));
    ASSERT_TRUE(starts.back().bounds.feasible()) << "cluster " << c;
    start.clusters.push_back(ClusterConfig::flexray_bus(starts.back().config));
  }

  EvaluatorOptions eopts;
  eopts.cache_enabled = false;
  CostEvaluator evaluator(system, params, AnalysisOptions{}, eopts);

  long measured = 0;
  std::uint64_t allocations = 0;
  const auto run_chain = [&](bool count) {
    // A walk over valid neighbours of a random cluster per step, focused
    // the way coordinate descent focuses a cluster (set_focus copies the
    // context, so it stays outside the measured window).
    SystemConfig current = start;
    Rng move_rng(0x5eedu);
    for (int step = 0; step < 64; ++step) {
      const std::size_t c = move_rng.index(kClusters);
      const Application& cluster_app = *system.cluster_app(c);
      evaluator.set_focus(current, static_cast<int>(c));
      for (int retry = 0; retry < 16; ++retry) {
        BusConfig neighbour = current.clusters[c].flexray;
        bool moved = false;
        for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
          moved = random_neighbour_move(neighbour, cluster_app, params, move_rng,
                                        starts[c].st_senders, starts[c].bounds.min_minislots,
                                        SpecLimits::kMaxMinislots);
        }
        if (!moved) continue;

        const std::uint64_t builds_before = evaluator.work_stats().analysis.schedule_builds;
        const std::uint64_t a0 = alloc_probe::thread_allocations();
        const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(neighbour);
        const std::uint64_t evaluation_allocs = alloc_probe::thread_allocations() - a0;
        if (!eval.valid) continue;  // error paths allocate strings
        if (count && evaluator.work_stats().analysis.schedule_builds == builds_before) {
          ++measured;
          allocations += evaluation_allocs;
        }
        current.clusters[c].flexray = std::move(neighbour);
        break;
      }
    }
  };

  run_chain(/*count=*/false);  // recording pass: warm caches, layouts, arenas
  run_chain(/*count=*/true);   // replay of the identical RNG stream
  ASSERT_GE(measured, 48);

  if (!alloc_probe::installed()) {
    GTEST_SKIP() << "alloc probe displaced (sanitizer build)";
  }
#ifdef NDEBUG
  EXPECT_EQ(allocations, 0u) << "warm multi-cluster evaluations allocated on " << measured
                             << " measured moves";
#else
  SUCCEED() << "allocation contract gated to Release";
#endif
}

/// The table-build half of the contract: on a warm slot, an evaluation
/// whose geometry misses the component cache builds its table on the
/// slot's ScheduleWorkspace and allocates only the StaticSchedule (one
/// vector per task, message and node with entries, two per node profile),
/// its ScheduleComponent (slot owners, TT completions, two shared-object
/// blocks) and the cache entry.  On this 5-node system every such
/// evaluation made 72 allocations (66 builds, Release, g++ 12); before the
/// workspace each made 416 to 422.
TEST(ArenaAlloc, TableBuildAllocatesOnlyTheSharedTable) {
  constexpr std::uint64_t kMaxAllocationsPerBuild = 80;
  const BusParams params;
  SyntheticSpec spec;
  spec.deadline_factor = 0.7;
  spec.seed = 4242;
  auto app_result = generate_synthetic(spec, params);
  ASSERT_TRUE(app_result.ok()) << app_result.error().message;
  const Application& app = app_result.value();
  const StartConfig start = minimal_start_config(app, params);
  ASSERT_TRUE(start.bounds.feasible());

  EvaluatorOptions eopts;
  eopts.cache_enabled = false;
  CostEvaluator evaluator(app, params, AnalysisOptions{}, eopts);

  long builds = 0;
  std::uint64_t max_allocations = 0;
  const auto run_chain = [&](bool count) {
    // A walk over valid neighbours: a move is kept when its layout and
    // table are valid, as a descent keeps its incumbent.
    BusConfig current = start.config;
    Rng move_rng(0x5eedu);
    for (int step = 0; step < 128; ++step) {
      BusConfig neighbour = current;
      bool moved = false;
      for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
        moved = random_neighbour_move(neighbour, app, params, move_rng, start.st_senders,
                                      start.bounds.min_minislots, SpecLimits::kMaxMinislots);
      }
      if (!moved) continue;
      const std::uint64_t builds_before = evaluator.work_stats().analysis.schedule_builds;
      const std::uint64_t a0 = alloc_probe::thread_allocations();
      const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(neighbour);
      const std::uint64_t evaluation_allocs = alloc_probe::thread_allocations() - a0;
      if (!eval.valid) continue;  // error paths allocate strings
      if (count && evaluator.work_stats().analysis.schedule_builds != builds_before) {
        ++builds;
        max_allocations = std::max(max_allocations, evaluation_allocs);
      }
      current = std::move(neighbour);
    }
  };

  run_chain(/*count=*/false);  // warm the slot: arena, layout, schedule workspace
  evaluator.clear_cache();     // every geometry of the chain misses again
  run_chain(/*count=*/true);
  ASSERT_GE(builds, 20);

  if (!alloc_probe::installed()) {
    GTEST_SKIP() << "alloc probe displaced (sanitizer build)";
  }
#ifdef NDEBUG
  EXPECT_LE(max_allocations, kMaxAllocationsPerBuild)
      << "an evaluation that built its table allocated " << max_allocations << " times over "
      << builds << " builds";
#else
  SUCCEED() << "allocation contract gated to Release";
#endif
}

/// The memo-hit half of the contract: with the memo cache on, a revisit
/// served from the cache through evaluate_in_slot allocates nothing either
/// — the candidate's memo key is rebuilt in worker slot 0 with its
/// capacity reused, and the cached result is copied into the slot's
/// Evaluation.  Hits run no cross-check, so this holds in every build the
/// probe is installed in.
TEST(ArenaAlloc, MemoHitPerformsZeroHeapAllocations) {
  const BusParams params;
  SyntheticSpec spec;
  spec.deadline_factor = 0.7;
  spec.seed = 4242;
  auto app_result = generate_synthetic(spec, params);
  ASSERT_TRUE(app_result.ok()) << app_result.error().message;
  const Application& app = app_result.value();
  const StartConfig start = minimal_start_config(app, params);
  ASSERT_TRUE(start.bounds.feasible());

  CostEvaluator evaluator(app, params, AnalysisOptions{});  // memo cache on
  std::vector<BusConfig> visited;
  BusConfig current = start.config;
  Rng move_rng(0x5eedu);
  for (int step = 0; step < 32; ++step) {
    bool moved = false;
    for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
      moved = random_neighbour_move(current, app, params, move_rng, start.st_senders,
                                    start.bounds.min_minislots, SpecLimits::kMaxMinislots);
    }
    if (moved && evaluator.evaluate_in_slot(current).valid) visited.push_back(current);
  }
  ASSERT_FALSE(visited.empty());

  const EvaluatorCacheStats before = evaluator.cache_stats();
  const long analyses = evaluator.evaluations();
  std::uint64_t allocations = 0;
  for (const BusConfig& config : visited) {
    const std::uint64_t a0 = alloc_probe::thread_allocations();
    const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(config);
    allocations += alloc_probe::thread_allocations() - a0;
    EXPECT_TRUE(eval.valid);
  }
  EXPECT_EQ(evaluator.cache_stats().hits - before.hits, visited.size());
  EXPECT_EQ(evaluator.evaluations(), analyses);  // every revisit was a hit

  if (!alloc_probe::installed()) {
    GTEST_SKIP() << "alloc probe displaced (sanitizer build)";
  }
  EXPECT_EQ(allocations, 0u) << "memo hits allocated over " << visited.size() << " revisits";
}

}  // namespace
}  // namespace flexopt
