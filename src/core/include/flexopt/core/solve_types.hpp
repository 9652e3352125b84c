#pragma once

/// \file solve_types.hpp
/// The request/report pair of the unified solver interface, plus the
/// SolveControl coordinator that algorithm implementations poll to honour
/// evaluation budgets, wall-clock limits, progress reporting, and
/// cooperative cancellation.  Front-ends consume these through
/// flexopt/core/solver.hpp; the per-algorithm implementations include this
/// header only.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flexopt/core/evaluator.hpp"

namespace flexopt {

/// Snapshot handed to the progress callback while a solve runs.
struct SolveProgress {
  std::string_view algorithm;
  /// Full analyses spent by this solve so far / allowed in total (0 = no
  /// evaluation budget).
  long evaluations = 0;
  long max_evaluations = 0;
  double elapsed_seconds = 0.0;
  /// Best Eq. 5 cost seen so far (kInvalidConfigCost until a candidate
  /// analyses successfully).
  double best_cost = kInvalidConfigCost;
  bool feasible = false;
};

/// Return false to cancel the solve cooperatively.
using SolveProgressCallback = std::function<bool(const SolveProgress&)>;

/// Budgets and hooks shared by every optimiser.  Per-algorithm tuning stays
/// in the per-algorithm option structs (the registry payloads); this is the
/// part a front-end can set without knowing which algorithm it drives.
struct SolveRequest {
  /// Seed for stochastic algorithms (SA); deterministic ones ignore it.
  /// Unset keeps the seed of the per-algorithm option payload.
  std::optional<std::uint64_t> seed;
  /// Full-analysis budget; 0 = the algorithm's own default/unlimited.
  long max_evaluations = 0;
  /// Wall-clock budget in seconds; 0 = unlimited.
  double max_wall_seconds = 0.0;
  /// Called whenever the spent-evaluation count advances.
  SolveProgressCallback progress;
  /// Set to true (from any thread) to stop the solve at the next
  /// cancellation point; the best solution found so far is still reported.
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// Composition of the "portfolio" optimizer (flexopt/core/portfolio.hpp):
/// a racing pool of registry members sharing one incumbent.  Lives here —
/// not in portfolio.hpp — so the OptimizerParams variant in solver.hpp can
/// carry it without a header cycle.
struct PortfolioSpec {
  /// Registry keys, one solve per entry.  Repeating a stochastic key
  /// ("sa") multi-starts it: member i solves with seed
  /// derive_seed(base, i), so repeats explore different trajectories.
  /// "portfolio" itself is rejected (no nesting).
  std::vector<std::string> members{"sa", "sa", "sa", "sa", "obc-ee", "obc-cf"};
  /// Worker threads racing the members; 0 = hardware concurrency.  Never
  /// affects the winning configuration (see the determinism contract in
  /// portfolio.hpp).
  int jobs = 0;
  /// Base seed for per-member seed derivation; SolveRequest::seed
  /// overrides it, exactly like for "sa".
  std::uint64_t seed = 1;
  /// Cancel a member as soon as the shared incumbent is feasible and
  /// strictly better than that member's own best (racing mode).  Spends
  /// less work on losing members but — like a wall-clock budget — trades
  /// the bit-identical determinism contract away, because which member
  /// publishes the incumbent first depends on scheduling.  Off by default.
  bool racing_cut = false;
  /// Testing hook: the order in which workers claim members (a permutation
  /// of 0..members.size()-1; empty = identity).  Results are independent
  /// of it — the portfolio determinism property test proves exactly that
  /// by shuffling it.
  std::vector<int> claim_order;
};

/// One improvement of a member's own best, stamped with the member-local
/// evaluation count (deterministic, unlike wall-clock).  The concatenated
/// per-member lists are the portfolio's incumbent timeline.
struct IncumbentEvent {
  long evaluations = 0;
  double cost = kInvalidConfigCost;
  bool feasible = false;
};

/// Why a solve returned.
enum class SolveStatus {
  Complete,         ///< the algorithm ran to its natural termination
  BudgetExhausted,  ///< stopped by SolveRequest::max_evaluations
  TimeLimit,        ///< stopped by SolveRequest::max_wall_seconds
  Cancelled,        ///< cancel flag set or progress callback returned false
};

[[nodiscard]] const char* to_string(SolveStatus status);

/// Sub-report of one portfolio member: everything a standalone SolveReport
/// records, minus the winning configuration (the portfolio keeps only the
/// winner's), plus the member identity and its improvement timeline.  Every
/// field except wall_seconds is deterministic for a fixed base seed.
struct MemberSolveReport {
  /// "algorithm#index", e.g. "sa#2" — unique within the portfolio.
  std::string member;
  std::string algorithm;  ///< registry key this member ran
  std::uint64_t seed = 0;
  /// This member's share of SolveRequest::max_evaluations (0 = the
  /// algorithm's own default).
  long budget = 0;
  bool winner = false;
  double cost = kInvalidConfigCost;
  bool feasible = false;
  long evaluations = 0;
  SolveStatus status = SolveStatus::Complete;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t components_recomputed = 0;
  std::uint64_t components_reused = 0;
  /// Observational only — excluded from deterministic reports.
  double wall_seconds = 0.0;
  /// Member-local incumbent improvements, in evaluation order.
  std::vector<IncumbentEvent> improvements;
  /// This member's profiling-counter deltas (summed into the portfolio's
  /// SolveReport::profile; not serialized per member).
  EvaluatorWorkStats profile;
};

/// Unified result of Optimizer::solve — the algorithm outcome plus how the
/// run ended and what the evaluator's cache contributed.
struct SolveReport {
  OptimizationOutcome outcome;
  SolveStatus status = SolveStatus::Complete;
  /// Cache hits/misses incurred by this solve (deltas, not totals).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Component accounting for this solve (deltas, not totals): how many
  /// analysis components (schedule builds + FPS/DYN recurrences) were
  /// recomputed vs reused from the component caches / skipped as
  /// unchanged.
  std::uint64_t components_recomputed = 0;
  std::uint64_t components_reused = 0;
  /// Always-on profiling deltas for this solve: the full work-counter
  /// snapshot difference (holistic/fixed-point iteration totals, arena
  /// reuse, the work-per-evaluation histogram).  Deterministic for a fixed seed;
  /// serialized as the report's `profile` block.
  EvaluatorWorkStats profile;
  /// Portfolio solves only: the winning member id ("sa#2") and one
  /// sub-report per member, in member order.  Empty otherwise.
  std::string winner;
  std::vector<MemberSolveReport> members;
};

/// Polled by algorithm implementations at their cancellation points.  A
/// default-constructed control never stops anything (the legacy free
/// functions pass nullptr instead).  Not thread-safe: one control per solve,
/// polled from the solve's driving thread.
class SolveControl {
 public:
  /// `request` must outlive the solve call.
  SolveControl(const SolveRequest& request, const CostEvaluator& evaluator,
               std::string_view algorithm);

  /// True when the solve must stop (sticky).  Also emits progress whenever
  /// the spent-evaluation count advanced since the last poll.
  [[nodiscard]] bool should_stop(const CostEvaluator& evaluator);

  /// Full analyses this solve may still spend; LONG_MAX when unbudgeted.
  [[nodiscard]] long remaining_evaluations(const CostEvaluator& evaluator) const;
  [[nodiscard]] long evaluations_used(const CostEvaluator& evaluator) const;

  /// Feeds progress reporting; call when the incumbent improves.
  void note_best(const Cost& cost);

  /// Marks the run BudgetExhausted iff it is still Complete and the
  /// request's evaluation budget is spent.  For algorithms whose own loop
  /// enforces the same budget and exits before should_stop() notices (SA);
  /// deliberately checks nothing else, so a naturally finished run is never
  /// re-labelled TimeLimit/Cancelled after the fact.
  void mark_budget_exhausted_if_spent(const CostEvaluator& evaluator);

  [[nodiscard]] SolveStatus status() const { return status_; }
  [[nodiscard]] double elapsed_seconds() const;

 private:
  const SolveRequest* request_;
  std::string_view algorithm_;
  std::chrono::steady_clock::time_point start_;
  long evals_at_start_ = 0;
  long last_reported_evals_ = -1;
  double best_cost_ = kInvalidConfigCost;
  bool best_feasible_ = false;
  SolveStatus status_ = SolveStatus::Complete;
};

}  // namespace flexopt
