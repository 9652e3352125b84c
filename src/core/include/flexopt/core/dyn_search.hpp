#pragma once

/// \file dyn_search.hpp
/// Strategies for `Determine_DYN_segment_length()` (Fig. 6 line 6): given a
/// fixed ST segment, find the DYN segment length minimising the Eq. 5 cost.
///
/// * ExhaustiveDynSearch — full analysis at every candidate length (OBC-EE).
/// * CurveFitDynSearch — the paper's contribution (Fig. 8): full analysis
///   at a handful of lengths, Newton-polynomial interpolation of every
///   activity's completion bound elsewhere, iterative refinement until a
///   schedulable length is confirmed or Nmax stale iterations pass.

#include <memory>

#include "flexopt/core/evaluator.hpp"

namespace flexopt {

class SolveControl;

struct DynSearchResult {
  int minislots = 0;
  Cost cost{kInvalidConfigCost, false, 0};
  /// True when `cost` comes from a full analysis (never from interpolation).
  bool exact = false;
};

/// Interface: search [dyn_min, dyn_max] (minislots) for the best DYN length
/// for `base` (a BusConfig with the ST segment and FrameIDs already fixed;
/// minislot_count is overwritten by the search).  `control` (nullable)
/// enforces SolveRequest budgets at the strategy's cancellation points.
class DynSegmentStrategy {
 public:
  virtual ~DynSegmentStrategy() = default;
  virtual DynSearchResult search(CostEvaluator& evaluator, const BusConfig& base, int dyn_min,
                                 int dyn_max, SolveControl* control = nullptr) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

struct ExhaustiveDynOptions {
  /// Candidate lengths swept; the stride in minislots follows from the
  /// searched span.
  int max_sweep_points = 96;
};

/// Full analysis at every candidate length (OBC-EE).  Candidates are fanned
/// across the evaluator's evaluate_many workers in batches, in order with
/// strictly-better comparisons.  An evaluator with one worker thread sweeps
/// one candidate at a time instead: the same costs and evaluations, plus a
/// SolveControl poll (and so a progress tick) before every candidate, which
/// is what stamps a portfolio member's improvements at the evaluation that
/// found them.
class ExhaustiveDynSearch final : public DynSegmentStrategy {
 public:
  explicit ExhaustiveDynSearch(ExhaustiveDynOptions options = {}) : options_(options) {}
  DynSearchResult search(CostEvaluator& evaluator, const BusConfig& base, int dyn_min,
                         int dyn_max, SolveControl* control = nullptr) override;
  [[nodiscard]] const char* name() const override { return "exhaustive"; }

 private:
  ExhaustiveDynOptions options_;
};

struct CurveFitDynOptions {
  /// Initial fully-analysed points (the paper uses 5).
  int initial_points = 5;
  /// Terminate after this many iterations without a schedulable solution or
  /// cost improvement (the paper uses 10).
  int n_max = 10;
};

/// Fig. 8's search.  Points are analysed one at a time.
class CurveFitDynSearch final : public DynSegmentStrategy {
 public:
  explicit CurveFitDynSearch(CurveFitDynOptions options = {}) : options_(options) {}
  DynSearchResult search(CostEvaluator& evaluator, const BusConfig& base, int dyn_min,
                         int dyn_max, SolveControl* control = nullptr) override;
  [[nodiscard]] const char* name() const override { return "curve-fit"; }

 private:
  CurveFitDynOptions options_;
};

}  // namespace flexopt
