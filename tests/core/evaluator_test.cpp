// CostEvaluator: the analysis service all optimisers consume — memoization
// cache, work counters, shared Application ownership, the component cache
// behind every analysis, the slot form SA's inner loop uses, and the
// evaluate_many workers with their slots.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::TinySystem;

EvaluatorOptions uncached_serial() {
  EvaluatorOptions o;
  o.cache_enabled = false;
  o.threads = 1;
  return o;
}

TEST(CostEvaluator, ValidConfigYieldsCostAndCountsEvaluation) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  EXPECT_EQ(evaluator.evaluations(), 0);
  const auto eval = evaluator.evaluate(sys.config);
  ASSERT_TRUE(eval.valid);
  EXPECT_LT(eval.cost.value, kInvalidConfigCost);
  EXPECT_EQ(evaluator.evaluations(), 1);
}

TEST(CostEvaluator, InvalidConfigDoesNotCountAsAnalysis) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  BusConfig broken = sys.config;
  broken.minislot_count = -1;
  const auto eval = evaluator.evaluate(broken);
  EXPECT_FALSE(eval.valid);
  EXPECT_FALSE(eval.error.empty());
  EXPECT_DOUBLE_EQ(eval.cost.value, kInvalidConfigCost);
  EXPECT_EQ(evaluator.evaluations(), 0);
}

TEST(CostEvaluator, RevisitIsServedFromCache) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  const auto a = evaluator.evaluate(sys.config);
  const auto b = evaluator.evaluate(sys.config);
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_DOUBLE_EQ(a.cost.value, b.cost.value);
  // The second visit is a cache hit: no new full analysis.
  EXPECT_EQ(evaluator.evaluations(), 1);
  const EvaluatorCacheStats stats = evaluator.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CostEvaluator, CacheDisabledAnalysesEveryVisit) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{}, uncached_serial());
  const auto a = evaluator.evaluate(sys.config);
  const auto b = evaluator.evaluate(sys.config);
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_DOUBLE_EQ(a.cost.value, b.cost.value);
  EXPECT_EQ(evaluator.evaluations(), 2);
}

TEST(CostEvaluator, CachedEvaluationIdenticalToFreshAnalysis) {
  TinySystem sys;
  CostEvaluator cached(sys.app, sys.params, AnalysisOptions{});
  (void)cached.evaluate(sys.config);           // populate
  const auto hit = cached.evaluate(sys.config);  // served from cache

  CostEvaluator fresh(sys.app, sys.params, AnalysisOptions{}, uncached_serial());
  const auto reference = fresh.evaluate(sys.config);

  ASSERT_TRUE(hit.valid);
  ASSERT_TRUE(reference.valid);
  EXPECT_DOUBLE_EQ(hit.cost.value, reference.cost.value);
  EXPECT_EQ(hit.cost.schedulable, reference.cost.schedulable);
  EXPECT_EQ(hit.analysis.task_completion, reference.analysis.task_completion);
  EXPECT_EQ(hit.analysis.message_completion, reference.analysis.message_completion);
}

/// BBC-shaped base configuration for the cruise controller, whose DYN
/// segment carries several FrameIDs.
struct CruiseFixture {
  Application app = build_cruise_controller();
  BusParams params = cruise_controller_params();
  BusConfig base;

  CruiseFixture() {
    const StartConfig start = minimal_start_config(app, params);
    EXPECT_TRUE(start.bounds.feasible());
    base = start.config;
    base.minislot_count = (start.bounds.min_minislots + start.bounds.max_minislots) / 2;
  }

  /// Indices of DYN messages (frame_id != 0), ascending.
  [[nodiscard]] std::vector<std::size_t> dyn_messages() const {
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < base.frame_id.size(); ++m) {
      if (base.frame_id[m] != 0) out.push_back(m);
    }
    return out;
  }
};

void expect_identical(const CostEvaluator::Evaluation& a, const CostEvaluator::Evaluation& b) {
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.cost.value, b.cost.value);
  EXPECT_EQ(a.cost.schedulable, b.cost.schedulable);
  EXPECT_EQ(a.cost.unbounded_activities, b.cost.unbounded_activities);
  EXPECT_EQ(a.analysis.task_completion, b.analysis.task_completion);
  EXPECT_EQ(a.analysis.message_completion, b.analysis.message_completion);
  EXPECT_EQ(a.analysis.task_jitter, b.analysis.task_jitter);
  EXPECT_EQ(a.analysis.message_jitter, b.analysis.message_jitter);
  EXPECT_EQ(a.analysis.converged, b.analysis.converged);
}

TEST(CostEvaluator, SlotFormRepeatIsServedFromTheCache) {
  const CruiseFixture f;
  CostEvaluator evaluator(f.app, f.params, AnalysisOptions{});
  const auto first = evaluator.evaluate(f.base);
  ASSERT_TRUE(first.valid);
  const auto hits_before = evaluator.cache_stats().hits;
  const CostEvaluator::Evaluation& again = evaluator.evaluate_in_slot(f.base);
  expect_identical(again, first);
  EXPECT_EQ(evaluator.cache_stats().hits, hits_before + 1);
  EXPECT_EQ(evaluator.work_stats().full_evaluations, 1u);  // no second analysis
}

TEST(CostEvaluator, FrameIdMoveReusesTheScheduleComponent) {
  const CruiseFixture f;
  const auto dyn = f.dyn_messages();
  ASSERT_GE(dyn.size(), 2u);
  CostEvaluator evaluator(f.app, f.params, AnalysisOptions{});
  ASSERT_TRUE(evaluator.evaluate(f.base).valid);
  // The first evaluation built the table into the component cache.
  const EvaluatorWorkStats before = evaluator.work_stats();
  EXPECT_EQ(before.analysis.schedule_builds, 1u);
  EXPECT_EQ(before.analysis.schedule_reuses, 0u);

  BusConfig first = f.base;
  std::swap(first.frame_id[dyn.front()], first.frame_id[dyn.back()]);
  ASSERT_NE(first, f.base);
  ASSERT_TRUE(evaluator.evaluate(first).valid);
  BusConfig second = first;
  int unused_fid = 0;
  for (const std::size_t m : dyn) unused_fid = std::max(unused_fid, first.frame_id[m]);
  ++unused_fid;
  ASSERT_LE(unused_fid, second.minislot_count);
  second.frame_id[dyn.front()] = unused_fid;
  ASSERT_TRUE(evaluator.evaluate_in_slot(second).valid);

  // Same ST/DYN geometry: the table is reused, never rebuilt.
  const EvaluatorWorkStats after = evaluator.work_stats();
  EXPECT_EQ(after.analysis.schedule_builds, 1u);
  EXPECT_EQ(after.analysis.schedule_reuses, 2u);
  EXPECT_EQ(after.full_evaluations, 3u);
  EXPECT_EQ(after.components_per_evaluation.count(), 3u);
}

TEST(CostEvaluator, SlotFormWorksWithTheCacheDisabled) {
  const CruiseFixture f;
  CostEvaluator uncached(f.app, f.params, AnalysisOptions{}, uncached_serial());
  CostEvaluator cached(f.app, f.params, AnalysisOptions{});
  BusConfig neighbour = f.base;
  neighbour.minislot_count += 8;
  const CostEvaluator::Evaluation& slot = uncached.evaluate_in_slot(neighbour);
  expect_identical(slot, cached.evaluate(neighbour));
  EXPECT_EQ(uncached.cache_stats().misses, 0u);  // the memo cache never ran
  EXPECT_EQ(uncached.evaluations(), 1);
}

TEST(CostEvaluator, SlotFormReportsTheLayoutError) {
  const CruiseFixture f;
  CostEvaluator evaluator(f.app, f.params, AnalysisOptions{});
  ASSERT_TRUE(evaluator.evaluate(f.base).valid);
  BusConfig neighbour = f.base;
  neighbour.minislot_count = 0;  // DYN messages exist: layout must reject this
  const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(neighbour);
  EXPECT_FALSE(eval.valid);
  EXPECT_FALSE(eval.error.empty());
  EXPECT_DOUBLE_EQ(eval.cost.value, kInvalidConfigCost);
  // The slot held the base configuration's analysis; none of it survives.
  EXPECT_TRUE(eval.analysis.task_completion.empty());
  EXPECT_TRUE(eval.analysis.message_completion.empty());
  EXPECT_TRUE(eval.analysis.task_jitter.empty());
  EXPECT_TRUE(eval.analysis.message_jitter.empty());
  EXPECT_EQ(eval.analysis.schedule_ptr, nullptr);
  // The rejection is memoized like any other result.
  expect_identical(evaluator.evaluate(neighbour), eval);
  EXPECT_EQ(evaluator.evaluations(), 1);
}

// A solve that finds nothing analysable reports why from
// first_failure(): the error of the first invalid Evaluation the evaluator
// returned, through the slot form, evaluate_many (the first in input
// order, whichever worker ran it) or evaluate_system.  Later failures,
// memo hits included, leave it as it is.
TEST(CostEvaluator, KeepsTheFirstFailedEvaluationsError) {
  TinySystem sys;
  BusConfig no_minislots = sys.config;
  no_minislots.minislot_count = -1;
  BusConfig no_slot_length = sys.config;
  no_slot_length.static_slot_len = 0;
  BusConfig st_with_frame_id = sys.config;
  st_with_frame_id.frame_id[index_of(sys.st_msg)] = 2;

  CostEvaluator slot_form(sys.app, sys.params, AnalysisOptions{});
  ASSERT_TRUE(slot_form.evaluate_in_slot(sys.config).valid);
  EXPECT_EQ(slot_form.first_failure(), "");
  const std::string first = slot_form.evaluate_in_slot(no_minislots).error;
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(slot_form.first_failure(), first);
  const std::string second = slot_form.evaluate_in_slot(no_slot_length).error;
  ASSERT_FALSE(second.empty());
  ASSERT_NE(second, first);
  EXPECT_FALSE(slot_form.evaluate(st_with_frame_id).valid);
  EXPECT_FALSE(slot_form.evaluate_in_slot(no_slot_length).valid);  // a memo hit
  EXPECT_EQ(slot_form.first_failure(), first);

  // Valid neighbours around the first failure, later failures of other
  // kinds, on four workers.
  std::vector<BusConfig> batch;
  for (int k = 0; k < 12; ++k) {
    BusConfig c = sys.config;
    c.minislot_count += k;
    batch.push_back(c);
  }
  batch[5] = no_slot_length;
  batch[6] = no_minislots;
  batch[9] = st_with_frame_id;
  for (const bool cached : {true, false}) {
    EvaluatorOptions options;
    options.cache_enabled = cached;
    options.threads = 4;
    CostEvaluator many(sys.app, sys.params, AnalysisOptions{}, options);
    const std::vector<CostEvaluator::Evaluation> out = many.evaluate_many(batch);
    ASSERT_EQ(out.size(), batch.size());
    ASSERT_TRUE(out[0].valid);
    ASSERT_FALSE(out[5].valid);
    EXPECT_EQ(many.first_failure(), out[5].error) << "cached " << cached;
    EXPECT_EQ(many.first_failure(), second);
    (void)many.evaluate_many(std::vector<BusConfig>{st_with_frame_id, no_minislots});
    EXPECT_EQ(many.first_failure(), second) << "cached " << cached;
  }

  CostEvaluator system_form(sys.app, sys.params, AnalysisOptions{});
  SystemConfig broken;
  broken.clusters.push_back(ClusterConfig::flexray_bus(st_with_frame_id));
  const CostEvaluator::Evaluation rejected = system_form.evaluate_system(broken);
  ASSERT_FALSE(rejected.valid);
  EXPECT_EQ(system_form.first_failure(), rejected.error);
  SystemConfig other;
  other.clusters.push_back(ClusterConfig::flexray_bus(no_minislots));
  EXPECT_FALSE(system_form.evaluate_system(other).valid);
  EXPECT_FALSE(system_form.evaluate_in_slot(no_slot_length).valid);
  EXPECT_FALSE(system_form.evaluate_system(broken).valid);  // a memo hit
  EXPECT_EQ(system_form.first_failure(), rejected.error);
}

TEST(CostEvaluator, AnalysisResultExposed) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  const auto eval = evaluator.evaluate(sys.config);
  ASSERT_TRUE(eval.valid);
  EXPECT_EQ(eval.analysis.task_completion.size(), sys.app.task_count());
  EXPECT_EQ(eval.analysis.message_completion.size(), sys.app.message_count());
  EXPECT_EQ(eval.analysis.cost.value, eval.cost.value);
}

// Regression for the dangling-pointer hazard of the raw `const Application*`
// evaluator: evaluations must stay valid after the caller's Application (and
// the caller's shared_ptr) go out of scope.
TEST(CostEvaluator, OutlivesSourceApplication) {
  std::unique_ptr<CostEvaluator> evaluator;
  BusConfig config;
  {
    TinySystem sys;
    config = sys.config;
    evaluator = std::make_unique<CostEvaluator>(sys.app, sys.params, AnalysisOptions{});
  }  // sys.app destroyed here
  const auto eval = evaluator->evaluate(config);
  ASSERT_TRUE(eval.valid);
  EXPECT_LT(eval.cost.value, kInvalidConfigCost);
}

TEST(CostEvaluator, SharedOwnershipConstructorSharesTheApplication) {
  TinySystem sys;
  auto shared = std::make_shared<const Application>(sys.app);
  CostEvaluator evaluator(shared, sys.params, AnalysisOptions{});
  EXPECT_EQ(evaluator.application_ptr().get(), shared.get());
  EXPECT_EQ(&evaluator.application(), shared.get());
  const auto eval = evaluator.evaluate(sys.config);
  EXPECT_TRUE(eval.valid);
}

TEST(CostEvaluator, EvaluateManyMatchesSerialUncachedWithFewerAnalyses) {
  TinySystem sys;

  // A candidate sweep with revisits, as a nested exploration produces.
  std::vector<BusConfig> candidates;
  for (int pass = 0; pass < 2; ++pass) {
    for (int minislots = 4; minislots <= 16; ++minislots) {
      candidates.push_back(sys.config);
      candidates.back().minislot_count = minislots;
    }
  }

  CostEvaluator serial(sys.app, sys.params, AnalysisOptions{}, uncached_serial());
  std::vector<CostEvaluator::Evaluation> reference;
  reference.reserve(candidates.size());
  for (const BusConfig& c : candidates) reference.push_back(serial.evaluate(c));

  EvaluatorOptions pool;
  pool.threads = 4;
  CostEvaluator parallel(sys.app, sys.params, AnalysisOptions{}, pool);
  const auto results = parallel.evaluate_many(candidates);

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].valid, reference[i].valid) << "candidate " << i;
    EXPECT_DOUBLE_EQ(results[i].cost.value, reference[i].cost.value) << "candidate " << i;
  }
  // The duplicated pass is deduplicated by the cache: strictly fewer full
  // analyses than the uncached serial sweep.
  EXPECT_LT(parallel.evaluations(), serial.evaluations());
}

// evaluate_many gives worker w slot w on every call, so four workers bind
// at most four analysis arenas however many batches they run.  Slots made
// per helper thread per call would bind a fresh arena for each (up to 31
// here).
TEST(CostEvaluator, EvaluateManyReusesItsWorkerSlots) {
  const CruiseFixture f;
  const DynBounds bounds = minimal_start_config(f.app, f.params).bounds;
  ASSERT_GE(bounds.max_minislots - bounds.min_minislots, 31);
  std::vector<BusConfig> candidates;
  for (int k = 0; k < 32; ++k) {
    candidates.push_back(f.base);
    candidates.back().minislot_count =
        bounds.min_minislots + k * (bounds.max_minislots - bounds.min_minislots) / 31;
  }

  CostEvaluator serial(f.app, f.params, AnalysisOptions{}, uncached_serial());
  std::vector<CostEvaluator::Evaluation> reference;
  for (const BusConfig& c : candidates) reference.push_back(serial.evaluate(c));

  EvaluatorOptions four = uncached_serial();
  four.threads = 4;
  CostEvaluator parallel(f.app, f.params, AnalysisOptions{}, four);
  for (int call = 0; call < 10; ++call) {
    const auto results = parallel.evaluate_many(candidates);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].valid) << "call " << call << ", candidate " << i;
      expect_identical(results[i], reference[i]);
    }
  }
  const EvaluatorWorkStats stats = parallel.work_stats();
  EXPECT_EQ(parallel.evaluations(), 320);
  EXPECT_EQ(stats.full_evaluations, 320u);
  EXPECT_LE(stats.arena_binds, 4u);
}

TEST(CostEvaluator, CacheCapacityBoundsInsertions) {
  TinySystem sys;
  EvaluatorOptions options;
  options.max_cache_entries = 1;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{}, options);
  BusConfig other = sys.config;
  other.minislot_count = sys.config.minislot_count + 1;
  (void)evaluator.evaluate(sys.config);
  (void)evaluator.evaluate(other);  // not inserted: cache is full
  EXPECT_EQ(evaluator.cache_stats().entries, 1u);
  // Still correct, just uncached.
  const auto eval = evaluator.evaluate(other);
  EXPECT_TRUE(eval.valid);
  EXPECT_EQ(evaluator.evaluations(), 3);
}

TEST(CostEvaluator, ClearCacheForcesReanalysis) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  (void)evaluator.evaluate(sys.config);
  evaluator.clear_cache();
  EXPECT_EQ(evaluator.cache_stats().entries, 0u);
  (void)evaluator.evaluate(sys.config);
  EXPECT_EQ(evaluator.evaluations(), 2);
}

TEST(CostEvaluator, HashDistinguishesDecisionVariables) {
  TinySystem sys;
  BusConfig a = sys.config;
  BusConfig b = a;
  EXPECT_EQ(hash_config(a), hash_config(b));
  b.minislot_count += 1;
  EXPECT_NE(hash_config(a), hash_config(b));
  b = a;
  b.frame_id.back() += 1;
  EXPECT_NE(hash_config(a), hash_config(b));
  b = a;
  b.static_slot_len += 1;
  EXPECT_NE(hash_config(a), hash_config(b));
}

}  // namespace
}  // namespace flexopt
