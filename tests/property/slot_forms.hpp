#pragma once

// Shared by the multi-cluster and mixed-backend property lanes: a FlexRay
// cluster move evaluated through the BusConfig forms on a warm evaluator's
// worker slots — evaluate_in_slot on slot 0, and an evaluate_many batch
// across kBatchWorkers slots — equals a fresh evaluator's evaluate_system
// of the same product, bit for bit.  With the memo cache off, every one of
// those evaluations is a miss that runs on a slot's per-cluster layouts
// and workspace, which earlier moves of other clusters (and, in a batch,
// other workers) have left behind.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "flexopt/core/evaluator.hpp"

namespace flexopt::testing {

/// Workers (and candidates) of the evaluate_many batch.
inline constexpr int kBatchWorkers = 4;

/// Options of the evaluator whose slots the moves run on: memo off, so
/// every evaluation is analysed on a worker slot, and kBatchWorkers threads.
inline EvaluatorOptions slot_forms_options() {
  EvaluatorOptions options;
  options.cache_enabled = false;
  options.threads = kBatchWorkers;
  return options;
}

/// `got`, a BusConfig-form evaluation focused on `cluster`, equals `full`,
/// the fresh evaluate_system of the same product: validity, error, cost,
/// and the cluster's completions, jitters and convergence.
inline void expect_focused_matches(const CostEvaluator::Evaluation& got,
                                   const CostEvaluator::Evaluation& full, std::size_t cluster,
                                   const std::string& where) {
  ASSERT_EQ(got.valid, full.valid) << where;
  EXPECT_EQ(got.error, full.error) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost.value),
            std::bit_cast<std::uint64_t>(full.cost.value))
      << where;
  EXPECT_EQ(got.cost.schedulable, full.cost.schedulable) << where;
  EXPECT_EQ(got.cost.unbounded_activities, full.cost.unbounded_activities) << where;
  if (!full.valid) return;
  const AnalysisResult& want = full.cluster_analysis[cluster];
  EXPECT_EQ(got.analysis.converged, want.converged) << where;
  EXPECT_EQ(got.analysis.task_completion, want.task_completion) << where;
  EXPECT_EQ(got.analysis.message_completion, want.message_completion) << where;
  EXPECT_EQ(got.analysis.task_jitter, want.task_jitter) << where;
  EXPECT_EQ(got.analysis.message_jitter, want.message_jitter) << where;
}

/// Evaluates `move`, cluster `cluster`'s new configuration in `context`, on
/// `slots` (built with slot_forms_options) through evaluate_in_slot, and
/// through an evaluate_many batch of kBatchWorkers candidates alternating
/// `move` and the cluster's configuration in `context`, so that the
/// workers' slots hold different results.  Compares every result with
/// `full_move` or `full_context`, fresh evaluate_system results of the two
/// products.
inline void expect_slot_forms_match(CostEvaluator& slots, const SystemConfig& context,
                                    std::size_t cluster, const BusConfig& move,
                                    const CostEvaluator::Evaluation& full_move,
                                    const CostEvaluator::Evaluation& full_context,
                                    const std::string& where) {
  slots.set_focus(context, static_cast<int>(cluster));
  ASSERT_EQ(slots.focus_cluster(), static_cast<int>(cluster)) << where;
  expect_focused_matches(slots.evaluate_in_slot(move), full_move, cluster,
                         where + " evaluate_in_slot");
  std::vector<BusConfig> batch;
  for (int i = 0; i < kBatchWorkers; ++i) {
    batch.push_back(i % 2 == 0 ? move : context.clusters[cluster].flexray);
  }
  const std::vector<CostEvaluator::Evaluation> many = slots.evaluate_many(batch);
  ASSERT_EQ(many.size(), batch.size()) << where;
  for (std::size_t i = 0; i < many.size(); ++i) {
    expect_focused_matches(many[i], i % 2 == 0 ? full_move : full_context, cluster,
                           where + " evaluate_many[" + std::to_string(i) + "]");
  }
}

}  // namespace flexopt::testing
