#pragma once

/// \file evaluator.hpp
/// Cost evaluation service shared by all optimisers: wraps BusLayout
/// construction + holistic analysis + Eq. 5, memoizes results per
/// configuration, and counts full analyses so the Fig. 9 runtime comparison
/// can report work done.
///
/// The evaluator owns the Application by shared_ptr (evaluations stay
/// valid after the caller's copy goes away).  One thread drives an
/// evaluator at a time; `evaluate_many()` is its only fan-out, running a
/// batch of candidates on the fork-join loop of flexopt/util/parallel.hpp.
///
/// Four evaluation entry points, sharing one SystemConfig-keyed memo cache:
/// `evaluate_system` (a per-cluster configuration product) and three
/// BusConfig forms that substitute the candidate into the focus coordinate
/// (see set_focus): `evaluate` (by value), `evaluate_in_slot` (by reference
/// into the driving thread's worker slot, allocation-free at steady state)
/// and `evaluate_many`.  Every memo miss takes one path, whatever the entry
/// point, cluster count, backend or analysis mode: the worker slot
/// re-assigns its per-cluster layouts in place and runs
/// analyze_multicluster's in-place form (flexopt/analysis/multicluster.hpp)
/// on its own workspace and the evaluator's per-cluster component caches.
/// Every analysis starts cold, so a configuration's result does not depend
/// on which entry point or which worker analysed it first; Debug builds
/// check each miss against a call-local re-analysis, bit for bit.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "flexopt/analysis/incremental.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/flexray/bus_config.hpp"
#include "flexopt/flexray/params.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/util/parallel.hpp"
#include "flexopt/util/stat.hpp"

namespace flexopt {

/// Cost assigned to configurations that violate the protocol or for which
/// no static schedule exists; large enough to lose against any analysable
/// configuration.
inline constexpr double kInvalidConfigCost = 1e15;

/// Stable hash of one bus's decision variables (part of hash_system_config).
[[nodiscard]] std::size_t hash_config(const BusConfig& config);

/// Stable hash over the per-cluster configs; keys the evaluator's
/// memoization cache (collisions are resolved by full equality).
[[nodiscard]] std::size_t hash_system_config(const SystemConfig& config);

/// Behaviour knobs of the evaluation service (cache + evaluate_many workers).
struct EvaluatorOptions {
  /// Memoize SystemConfig -> Evaluation.  Optimisers that revisit
  /// configurations (SA, nested OBC loops) pay one analysis per distinct
  /// candidate instead of one per visit.
  bool cache_enabled = true;
  /// Insertion stops once the cache holds this many entries (the hot
  /// configurations of a run are cached early; this bounds memory on
  /// multi-hour SA runs).
  std::size_t max_cache_entries = 1u << 16;
  /// Worker threads for evaluate_many(); 0 = hardware concurrency.
  int threads = 0;
};

/// Cache effectiveness counters (monotonic over the evaluator's lifetime).
struct EvaluatorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

/// Work accounting (monotonic over the evaluator's lifetime).
/// `analysis.components()` is the recomputed-work metric.
struct EvaluatorWorkStats {
  AnalysisWorkCounters analysis;
  std::uint64_t full_evaluations = 0;  ///< analyses run (cache hits excluded)
  /// Always 0: every analysis is a full one.  Kept for existing readers.
  std::uint64_t delta_evaluations = 0;
  std::uint64_t arena_binds = 0;   ///< analysis arenas (re)allocated
  std::uint64_t arena_reuses = 0;  ///< steady-state arena rebinds (no allocation)
  /// Analysis components recomputed per analysis (components() of that
  /// analysis) — the work-per-evaluation distribution the profile report
  /// surfaces.
  Histogram components_per_evaluation;
  std::uint64_t components_reused() const {
    return analysis.schedule_reuses + analysis.fps_skipped + analysis.dyn_skipped;
  }
  EvaluatorWorkStats& operator+=(const EvaluatorWorkStats& other) {
    analysis += other.analysis;
    full_evaluations += other.full_evaluations;
    delta_evaluations += other.delta_evaluations;
    arena_binds += other.arena_binds;
    arena_reuses += other.arena_reuses;
    components_per_evaluation += other.components_per_evaluation;
    return *this;
  }
  /// Field-wise delta against an earlier snapshot — the per-solve profile
  /// SolveReport carries (the counters are monotonic, so this is exact).
  [[nodiscard]] EvaluatorWorkStats since(const EvaluatorWorkStats& before) const {
    EvaluatorWorkStats d;
    d.analysis = analysis.since(before.analysis);
    d.full_evaluations = full_evaluations - before.full_evaluations;
    d.delta_evaluations = delta_evaluations - before.delta_evaluations;
    d.arena_binds = arena_binds - before.arena_binds;
    d.arena_reuses = arena_reuses - before.arena_reuses;
    d.components_per_evaluation =
        components_per_evaluation.since(before.components_per_evaluation);
    return d;
  }
};

class CostEvaluator {
 public:
  /// Shares ownership of `app`: the evaluator (and every Evaluation it
  /// hands out) remains valid after the caller drops its reference.  The
  /// application is wrapped as its own single-cluster SystemModel.
  CostEvaluator(std::shared_ptr<const Application> app, const BusParams& params,
                AnalysisOptions options, EvaluatorOptions evaluator_options = {});
  /// Convenience overload: copies `app` into shared ownership.
  CostEvaluator(const Application& app, const BusParams& params, AnalysisOptions options,
                EvaluatorOptions evaluator_options = {});
  /// Multi-cluster evaluator over a projected system model (one bus per
  /// cluster; all clusters share `params`).
  CostEvaluator(SystemModel model, const BusParams& params, AnalysisOptions options,
                EvaluatorOptions evaluator_options = {});
  /// Sibling evaluator: shares `parent`'s system model, bus parameters,
  /// analysis options, and focus context, with fresh caches/counters and
  /// its own EvaluatorOptions.  The portfolio optimizer gives every racing
  /// member one of these so member trajectories stay schedule-independent.
  CostEvaluator(const CostEvaluator& parent, EvaluatorOptions evaluator_options);
  ~CostEvaluator();
  CostEvaluator(const CostEvaluator&) = delete;
  CostEvaluator& operator=(const CostEvaluator&) = delete;

  struct Evaluation {
    bool valid = false;
    Cost cost{kInvalidConfigCost, false, 0};
    /// BusConfig forms: the focused cluster's result; default-constructed
    /// in evaluate_system returns.  Empty (no completions, no schedule)
    /// when `valid` is false.
    AnalysisResult analysis;
    /// evaluate_system: one result per cluster, at every cluster count
    /// (empty when `valid` is false); empty in BusConfig-form returns.
    std::vector<AnalysisResult> cluster_analysis;
    std::string error;
  };

  /// Full scheduling + schedulability analysis of one candidate for the
  /// focused cluster: substituted into the focus context, the full system
  /// is evaluated (or served from the cache).  Without a
  /// focus (multi-cluster before set_focus, single-cluster TSN) the
  /// Evaluation is invalid (use evaluate_system).
  Evaluation evaluate(const BusConfig& config);

  /// evaluate(), returned by reference into worker slot 0 (the driving
  /// thread's): the hot path of SA's neighbour loop.  The reference is
  /// valid until the next evaluator call — copy it to keep it.  At steady
  /// state a memo hit performs zero heap allocations, and so does a valid
  /// holistic analysis of an all-FlexRay system, at any cluster count,
  /// whose schedule tables are cached.  Cache entries, table builds, TSN
  /// clusters, exact mode and invalid configurations allocate.
  const Evaluation& evaluate_in_slot(const BusConfig& config);

  /// Full system evaluation of one per-cluster configuration product
  /// candidate (cross-cluster fixed point; cached on the SystemConfig
  /// hash).  Neighbour moves on a multi-cluster or TSN system
  /// substitute one cluster's configuration and call this; the per-cluster
  /// component caches serve every cluster the move left intact.
  Evaluation evaluate_system(const SystemConfig& config);

  /// Evaluates a batch of candidates on min(batch size, worker_threads())
  /// workers of parallel_for: worker w analyses on slot w, the caller being
  /// worker 0.  Results are in input order and identical to calling
  /// evaluate() serially.
  std::vector<Evaluation> evaluate_many(std::span<const BusConfig> configs);

  /// The application the current search runs over: the focused cluster's
  /// projection when a focus is set, the (global) application otherwise.
  /// Single-cluster systems always see the one application.
  [[nodiscard]] const Application& application() const { return *search_app(); }
  [[nodiscard]] const std::shared_ptr<const Application>& application_ptr() const {
    return search_app();
  }

  // ---- search context: the system and its focus coordinate ----------------
  [[nodiscard]] const SystemModel& system_model() const { return model_; }
  [[nodiscard]] std::size_t cluster_count() const { return model_.cluster_count(); }
  /// Sets the focus coordinate: subsequent evaluate/evaluate_in_slot/
  /// evaluate_many calls substitute the candidate into `context` at
  /// `cluster` and evaluate the full system, and application() returns
  /// that cluster's projection — which is what lets every single-bus search
  /// algorithm optimise one coordinate of the per-cluster configuration
  /// product unchanged.  Focus is a FlexRay concept — the focused cluster
  /// must be a FlexRay bus (TSN clusters are searched through
  /// evaluate_system; see flexopt/core/tsn_search.hpp).  Invalid requests
  /// (cluster out of range, wrong context width, non-FlexRay cluster)
  /// degrade to clear_focus().  Set it between solves, never while
  /// evaluations are in flight.
  void set_focus(SystemConfig context, int cluster);
  /// Restores the default coordinate: cluster 0 of a single-cluster
  /// FlexRay system (its focus from construction), none otherwise.
  void clear_focus();
  [[nodiscard]] bool focused() const { return focus_cluster_ >= 0; }
  [[nodiscard]] int focus_cluster() const { return focus_cluster_; }
  [[nodiscard]] const SystemConfig& focus_context() const { return focus_context_; }

  [[nodiscard]] const BusParams& params() const { return params_; }
  [[nodiscard]] const AnalysisOptions& analysis_options() const { return options_; }
  [[nodiscard]] const EvaluatorOptions& evaluator_options() const {
    return evaluator_options_;
  }

  /// Number of full analyses performed so far (cache hits excluded) —
  /// the work metric every optimisation budget is charged against.
  [[nodiscard]] long evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  /// Worker threads evaluate_many() will use (EvaluatorOptions::threads
  /// resolved against hardware concurrency); >= 1.
  [[nodiscard]] int worker_threads() const {
    return resolve_threads(evaluator_options_.threads);
  }

  [[nodiscard]] EvaluatorCacheStats cache_stats() const;
  [[nodiscard]] EvaluatorWorkStats work_stats() const;
  void clear_cache();

  /// The error of the first invalid Evaluation this evaluator returned
  /// (evaluate_many's in input order); empty while every one was valid.
  [[nodiscard]] std::string first_failure() const;

 private:
  /// Per-worker evaluation state: the per-cluster layouts and workspace
  /// that memo misses run on, the memo key, the Evaluation evaluate_in_slot
  /// returns by reference, and this worker's share of the work statistics.
  /// Slot 0 serves the driving thread; evaluate_many's worker w owns slot w
  /// for the batch, so no slot is ever touched by two threads at once.
  struct WorkerSlot;

  /// A BusConfig form on `slot`: memo lookup, then analyze_miss on a miss.
  const Evaluation& evaluate_focused(WorkerSlot& slot, const BusConfig& config);
  /// The memo miss of every entry point: assigns the slot's cluster layouts
  /// in place, runs analyze_multicluster on the slot's workspace, records
  /// the outcome in the slot, and enters it into the memo cache.
  void analyze_miss(WorkerSlot& slot, const SystemConfig& config);
  /// The slot's last miss in the evaluate_system shape (a memo entry).
  static Evaluation system_entry(const WorkerSlot& slot);
  /// Writes `outcome`'s validity, cost and error and the focused cluster's
  /// entry of `clusters` into `out` (the BusConfig-form shape), reusing
  /// out's capacity: for memo hits and misses alike.
  void assign_focused_view(const Evaluation& outcome, std::span<const AnalysisResult> clusters,
                           Evaluation& out) const;
  /// Cache lookup only (no analysis on miss); nullptr when absent.
  std::shared_ptr<const Evaluation> cached_system(const SystemConfig& config);
  void insert_system_cache(const SystemConfig& config, std::shared_ptr<const Evaluation> entry);
  /// Books one analysis' work into `slot`.
  static void record_analysis(WorkerSlot& slot, const AnalysisWorkCounters& counters);
  [[nodiscard]] const std::shared_ptr<const Application>& search_app() const {
    return focused() ? model_.cluster_app(static_cast<std::size_t>(focus_cluster_))
                     : model_.global();
  }

  struct SystemConfigHash {
    std::size_t operator()(const SystemConfig& config) const {
      return hash_system_config(config);
    }
  };

  SystemModel model_;
  BusParams params_;
  AnalysisOptions options_;
  EvaluatorOptions evaluator_options_;
  /// The focus coordinate (see set_focus); -1 = unfocused.
  SystemConfig focus_context_;
  int focus_cluster_ = -1;
  std::atomic<long> evaluations_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::mutex cache_mutex_;
  /// See first_failure(); written once, under cache_mutex_.
  std::string first_failure_;
  /// Records `eval`'s error when it is the first invalid one returned.
  void note_failure(const Evaluation& eval);
  /// The memo cache: per-cluster configuration products, each entry in
  /// the evaluate_system shape.
  std::unordered_map<SystemConfig, std::shared_ptr<const Evaluation>, SystemConfigHash>
      system_cache_;

  /// One component cache per cluster (never reallocated: the evaluator is
  /// immovable and the vector is sized once at construction).
  std::vector<AnalysisComponentCache> components_;
  /// Per-cluster cache pointer table, built once at construction.
  std::vector<AnalysisComponentCache*> cluster_caches_;
  /// One slot per worker, slot 0 created at construction.  Only the
  /// driving thread grows the vector (evaluate_many, before it forks), so
  /// it never reallocates while workers run; work_stats() sums the slots.
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
};

/// Outcome shared by all optimisation algorithms.
struct OptimizationOutcome {
  /// Single-cluster FlexRay solves: the winning bus configuration.
  /// Multi-cluster solves: cluster 0's FlexRay slice of `system` (kept
  /// filled so single-bus consumers never see an empty config; left
  /// default when cluster 0 is a TSN switch — read `system` instead).
  BusConfig config;
  /// The winning per-cluster configuration product; exactly one entry
  /// (== config) for single-cluster solves.  Filled by Optimizer::solve.
  SystemConfig system;
  Cost cost{kInvalidConfigCost, false, 0};
  bool feasible = false;
  /// Full analyses performed by this run.
  long evaluations = 0;
  double wall_seconds = 0.0;
  std::string algorithm;
  /// When no analysable configuration was found: why, as the error of the
  /// first evaluation that failed (CostEvaluator::first_failure).  Empty
  /// otherwise.  Not part of any report schema.
  std::string error;
};

}  // namespace flexopt
