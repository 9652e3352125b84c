#include "flexopt/core/evaluator.hpp"

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/flexray/bus_layout.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <utility>

namespace flexopt {

/// Per-thread evaluation state (see the declaration in evaluator.hpp).
/// `mutex` only guards `stats`: the owner thread takes it briefly when
/// flushing counters (uncontended), work_stats() takes it when summing.
/// Everything else is touched by the owning thread exclusively.
struct CostEvaluator::ThreadSlot {
  std::mutex mutex;
  EvaluatorWorkStats stats;       // guarded by mutex
  AnalysisArena arena;            ///< fixed-point state, reused per evaluation
  BusLayout layout;               ///< rebuilt in place per candidate
  Evaluation eval;                ///< evaluate_delta_fast's return storage
  AnalysisResult base_scratch;    ///< staging for an aliased base
};

namespace {

/// Thread-local (evaluator id -> slot) cache.  The raw pointer is only ever
/// dereferenced when the id matches a live evaluator — ids are monotonic
/// and never reused, so an entry left behind by a destroyed evaluator can
/// never be hit.  Bounded: with more than kSlotCacheMax live evaluators on
/// one thread the oldest entry is evicted (that evaluator then re-creates
/// a slot on its next use here; only its arena warm-up is lost).
struct SlotCacheEntry {
  std::uint64_t evaluator = 0;
  void* slot = nullptr;
};
constexpr std::size_t kSlotCacheMax = 16;
thread_local std::vector<SlotCacheEntry> t_slot_cache;

std::atomic<std::uint64_t> g_next_evaluator_id{1};

}  // namespace

CostEvaluator::ThreadSlot& CostEvaluator::slot() {
  for (const SlotCacheEntry& entry : t_slot_cache) {
    if (entry.evaluator == id_) return *static_cast<ThreadSlot*>(entry.slot);
  }
  auto owned = std::make_unique<ThreadSlot>();
  ThreadSlot* raw = owned.get();
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_.push_back(std::move(owned));
  }
  if (t_slot_cache.size() >= kSlotCacheMax) t_slot_cache.erase(t_slot_cache.begin());
  t_slot_cache.push_back({id_, raw});
  return *raw;
}

std::size_t hash_config(const BusConfig& config) {
  // FNV-1a over the six decision variables.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(config.static_slot_count));
  mix(static_cast<std::uint64_t>(config.static_slot_len));
  mix(static_cast<std::uint64_t>(config.minislot_count));
  for (const NodeId owner : config.static_slot_owner) mix(index_of(owner));
  for (const int fid : config.frame_id) mix(static_cast<std::uint64_t>(fid));
  return static_cast<std::size_t>(h);
}

std::size_t hash_system_config(const SystemConfig& config) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(config.clusters.size()));
  for (const ClusterConfig& cluster : config.clusters) {
    mix(static_cast<std::uint64_t>(cluster.kind));
    if (cluster.kind == ClusterBackendKind::Tsn) {
      // Only the active payload is hashed — ClusterConfig's contract is
      // that the inactive payload stays default-constructed.
      const TsnConfig& tsn = cluster.tsn;
      mix(static_cast<std::uint64_t>(tsn.cycle));
      mix(static_cast<std::uint64_t>(tsn.link_rate_mbps));
      for (const TsnGateWindow& gate : tsn.gates) {
        mix(static_cast<std::uint64_t>(gate.offset));
        mix(static_cast<std::uint64_t>(gate.length));
      }
      for (const int prio : tsn.et_priority) mix(static_cast<std::uint64_t>(prio));
    } else {
      mix(static_cast<std::uint64_t>(hash_config(cluster.flexray)));
    }
  }
  return static_cast<std::size_t>(h);
}

CostEvaluator::CostEvaluator(SystemModel model, const BusParams& params,
                             AnalysisOptions options, EvaluatorOptions evaluator_options)
    : model_(std::move(model)),
      app_(model_.global()),
      params_(params),
      options_(options),
      evaluator_options_(evaluator_options),
      id_(g_next_evaluator_id.fetch_add(1, std::memory_order_relaxed)) {
  // Cluster 0 shares the long-standing components_ member (the whole
  // single-cluster pipeline keys off it); the other clusters get their own
  // cache so geometry components never alias across buses.  The pointer
  // table is built once — the evaluator is immovable, so the addresses
  // hold — keeping the per-candidate hot path allocation-free.
  extra_components_.resize(model_.cluster_count());
  cluster_caches_.resize(model_.cluster_count());
  cluster_caches_[0] = &components_;
  for (std::size_t c = 1; c < model_.cluster_count(); ++c) {
    extra_components_[c] = std::make_unique<AnalysisComponentCache>();
    cluster_caches_[c] = extra_components_[c].get();
  }
}

namespace {

/// Application-based construction must not silently flatten a clustered
/// application onto one bus: project it properly, or (for the degenerate
/// single-cluster case, and unfinalized apps whose topology is not yet
/// known) wrap it as its own projection.  Projection failures are
/// construction misuse, reported like other evaluator preconditions.
SystemModel model_for_application(std::shared_ptr<const Application> app) {
  if (app != nullptr && app->finalized() && app->cluster_count() > 1) {
    auto model = SystemModel::build(std::move(app));
    if (!model.ok()) {
      throw std::invalid_argument("CostEvaluator: " + model.error().message);
    }
    return std::move(model).value();
  }
  return SystemModel::single(std::move(app));
}

}  // namespace

CostEvaluator::CostEvaluator(std::shared_ptr<const Application> app, const BusParams& params,
                             AnalysisOptions options, EvaluatorOptions evaluator_options)
    : CostEvaluator(model_for_application(std::move(app)), params, options,
                    evaluator_options) {}

CostEvaluator::CostEvaluator(const Application& app, const BusParams& params,
                             AnalysisOptions options, EvaluatorOptions evaluator_options)
    : CostEvaluator(std::make_shared<const Application>(app), params, options,
                    evaluator_options) {}

CostEvaluator::CostEvaluator(const CostEvaluator& parent, EvaluatorOptions evaluator_options)
    : CostEvaluator(parent.model_, parent.params_, parent.options_, evaluator_options) {
  focus_context_ = parent.focus_context_;
  focus_cluster_ = parent.focus_cluster_;
}

void CostEvaluator::set_focus(SystemConfig context, int cluster) {
  // Focus is a multi-cluster FlexRay concept; any invalid request
  // (single-cluster system, cluster out of range, context of the wrong
  // width, focused cluster not a FlexRay bus) degrades to "no focus" in
  // every build type rather than risking an out-of-range or cross-backend
  // substitution on the next evaluate() call.
  if (model_.single_cluster() || cluster < 0 ||
      static_cast<std::size_t>(cluster) >= model_.cluster_count() ||
      context.cluster_count() != model_.cluster_count() ||
      context.clusters[static_cast<std::size_t>(cluster)].kind !=
          ClusterBackendKind::FlexRay) {
    clear_focus();
    return;
  }
  focus_context_ = std::move(context);
  focus_cluster_ = cluster;
}

void CostEvaluator::clear_focus() {
  focus_cluster_ = -1;
  focus_context_ = SystemConfig{};
}

CostEvaluator::Evaluation CostEvaluator::focused_view(const Evaluation& full) const {
  // Single-bus algorithms searching a focused cluster read per-activity
  // completions off Evaluation::analysis (the OBC curve fit); hand them the
  // focused cluster's holistic result and nothing else — copying all C
  // cluster results out of the cache per candidate would dominate the
  // descent's hottest path.
  Evaluation out;
  out.valid = full.valid;
  out.cost = full.cost;
  out.multicluster_converged = full.multicluster_converged;
  out.error = full.error;
  const auto focus = static_cast<std::size_t>(focus_cluster_);
  if (full.valid && focused() && focus < full.cluster_analysis.size()) {
    out.analysis = full.cluster_analysis[focus];
  }
  return out;
}

CostEvaluator::Evaluation CostEvaluator::analyze(const BusConfig& config) {
  Evaluation out;
  ThreadSlot& s = slot();
  auto layout = s.layout.assign(*app_, params_, config);
  if (!layout.ok()) {
    out.error = layout.error().message;
    return out;
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  AnalysisWorkCounters counters;
  // Exact mode routes through the component cache's exact-space store, so
  // repeat analyses of configurations whose DYN inputs are unchanged replay
  // the explored frontier instead of re-exploring (bit-identical either
  // way; asserted below).
  auto analysis = options_.mode == AnalysisMode::Exact
                      ? analyze_system_exact(s.layout, options_, &counters, {}, &components_)
                      : analyze_system(s.layout, options_, &counters);
  add_work(counters);
  count_evaluation(/*delta=*/false, /*seeded=*/false);
  if (!analysis.ok()) {
    out.error = analysis.error().message;
    return out;
  }
  out.valid = true;
  out.analysis = std::move(analysis).value();
  out.cost = out.analysis.cost;

#ifndef NDEBUG
  // Debug builds cross-check every cache-served exact analysis against a
  // cold exploration, bit for bit — bounds AND engine counters, so a stale
  // or mis-keyed exact-space entry can never hide behind equal costs.
  if (options_.mode == AnalysisMode::Exact) {
    auto cold = analyze_system_exact(s.layout, options_);
    assert(cold.ok());
    if (cold.ok()) {
      const AnalysisResult& ref = cold.value();
      assert(out.analysis.task_completion == ref.task_completion);
      assert(out.analysis.message_completion == ref.message_completion);
      assert(out.analysis.cost.value == ref.cost.value);
      assert(out.analysis.exact != nullptr && ref.exact != nullptr);
      assert(out.analysis.exact->fallback == ref.exact->fallback);
      assert(out.analysis.exact->explored_states == ref.exact->explored_states);
      assert(out.analysis.exact->merged_states == ref.exact->merged_states);
      assert(out.analysis.exact->transitions == ref.exact->transitions);
      assert(out.analysis.exact->refined_messages == ref.exact->refined_messages);
    }
  }
#endif
  return out;
}

std::shared_ptr<const CostEvaluator::Evaluation> CostEvaluator::cached(
    const BusConfig& config) {
  if (!evaluator_options_.cache_enabled) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(config);
  return it != cache_.end() ? it->second : nullptr;
}

void CostEvaluator::insert_cache(const BusConfig& config,
                                 std::shared_ptr<const Evaluation> entry) {
  if (!evaluator_options_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_.size() < evaluator_options_.max_cache_entries) {
    cache_.emplace(config, std::move(entry));
  }
}

std::shared_ptr<const CostEvaluator::Evaluation> CostEvaluator::cached_system(
    const SystemConfig& config) {
  if (!evaluator_options_.cache_enabled) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = system_cache_.find(config);
  return it != system_cache_.end() ? it->second : nullptr;
}

void CostEvaluator::insert_system_cache(const SystemConfig& config,
                                        std::shared_ptr<const Evaluation> entry) {
  if (!evaluator_options_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (system_cache_.size() < evaluator_options_.max_cache_entries) {
    system_cache_.emplace(config, std::move(entry));
  }
}

void CostEvaluator::add_work(const AnalysisWorkCounters& counters) {
  ThreadSlot& s = slot();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.stats.analysis += counters;
}

void CostEvaluator::count_evaluation(bool delta, bool seeded) {
  ThreadSlot& s = slot();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (delta) {
    ++s.stats.delta_evaluations;
    if (seeded) ++s.stats.delta_seeded;
  } else {
    ++s.stats.full_evaluations;
  }
}

CostEvaluator::Evaluation CostEvaluator::evaluate(const BusConfig& config) {
  if (focused()) {
    SystemConfig candidate = focus_context_;
    candidate.clusters[static_cast<std::size_t>(focus_cluster_)] =
        ClusterConfig::flexray_bus(config);
    return evaluate_system_impl(candidate, /*count_as_delta=*/false, /*focused_view=*/true);
  }
  if (model_.cluster_count() > 1) {
    Evaluation out;
    out.error = "multi-cluster evaluator: use evaluate_system() or set_focus()";
    return out;
  }
  if (!evaluator_options_.cache_enabled) return analyze(config);

  if (const auto hit = cached(config)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return *hit;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  // Concurrent misses of the same configuration analyse redundantly but
  // converge on identical values (the analysis is deterministic), so no
  // per-key coordination is needed.
  auto entry = std::make_shared<const Evaluation>(analyze(config));
  insert_cache(config, entry);
  return *entry;
}

const CostEvaluator::Evaluation& CostEvaluator::delta_fast_impl(
    const AnalysisResult* base_analysis, const DeltaMove& move) {
  ThreadSlot& s = slot();
  if (options_.mode == AnalysisMode::Exact) {
    // The incremental engine is holistic-only: exact-mode deltas pay the
    // full holistic pipeline, but the schedule-space exploration inside it
    // is incremental — analyze() serves it from the component cache's
    // exact-space store, so a move that leaves the DYN geometry and message
    // set untouched replays the base frontier instead of re-exploring.
    s.eval = evaluate(move.config);
    return s.eval;
  }
  Evaluation& out = s.eval;
  if (const auto hit = cached(move.config)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    out = *hit;  // vector assignments reuse the slot's capacity
    return out;
  }
  if (evaluator_options_.cache_enabled) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  out.valid = false;
  out.error.clear();
  out.cost = Cost{kInvalidConfigCost, false, 0};
  out.cluster_analysis.clear();
  out.multicluster_converged = true;

  auto layout = s.layout.assign(*app_, params_, move.config);
  if (!layout.ok()) {
    out.error = layout.error().message;
    if (evaluator_options_.cache_enabled) {
      insert_cache(move.config, std::make_shared<const Evaluation>(out));
    }
    return out;
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  const AnalysisInvalidation invalidation = move.invalidation();
  AnalysisWorkCounters counters;
  auto analysis =
      analyze_system_incremental_into(s.layout, options_, components_, s.arena, out.analysis,
                                      &counters, base_analysis, &invalidation);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.stats.analysis += counters;
    ++s.stats.delta_evaluations;
    if (base_analysis != nullptr) ++s.stats.delta_seeded;
    // The arena tracks its own lifetime totals; mirroring them (assignment,
    // not accumulation) keeps the sum over slots exact.
    s.stats.arena_binds = s.arena.binds;
    s.stats.arena_reuses = s.arena.reuses;
    s.stats.components_per_delta.record(counters.fps_analyses + counters.dyn_analyses +
                                        counters.schedule_builds);
  }
  if (!analysis.ok()) {
    out.error = analysis.error().message;
    if (evaluator_options_.cache_enabled) {
      insert_cache(move.config, std::make_shared<const Evaluation>(out));
    }
    return out;
  }
  out.valid = true;
  out.cost = out.analysis.cost;

#ifndef NDEBUG
  // Debug builds cross-check the delta result against the always-correct
  // full path, bit for bit.  (analyze_system is called directly so the
  // verification does not perturb the evaluator's counters.)  The one
  // tolerated asymmetry: when the full path's holistic iteration cap
  // truncates a convergent system (never observed in the test
  // populations), the delta schedule may reach the exact fixed point the
  // cap pinned away — a strictly tighter sound bound (see incremental.hpp).
  auto full = analyze_system(s.layout, options_);
  assert(full.ok() == out.valid);
  if (full.ok() && !(out.analysis.converged && !full.value().converged)) {
    const AnalysisResult& reference = full.value();
    assert(out.analysis.converged == reference.converged);
    assert(out.analysis.task_completion == reference.task_completion);
    assert(out.analysis.message_completion == reference.message_completion);
    assert(out.analysis.task_jitter == reference.task_jitter);
    assert(out.analysis.message_jitter == reference.message_jitter);
    assert(out.cost.value == reference.cost.value);
    assert(out.cost.schedulable == reference.cost.schedulable);
    assert(out.cost.unbounded_activities == reference.cost.unbounded_activities);
  }
#endif
  if (evaluator_options_.cache_enabled) {
    insert_cache(move.config, std::make_shared<const Evaluation>(out));
  }
  return out;
}

const CostEvaluator::Evaluation& CostEvaluator::evaluate_delta_fast(const BusConfig& base,
                                                                    const DeltaMove& move) {
  if (focused() || model_.cluster_count() > 1) {
    // Cross-cluster paths allocate; route through the by-value overload and
    // park the result in the slot so the reference contract still holds.
    ThreadSlot& s = slot();
    s.eval = evaluate_delta(base, move);
    return s.eval;
  }
  if (move.backend != ClusterBackendKind::FlexRay) {
    ThreadSlot& s = slot();
    s.eval = Evaluation{};
    s.eval.error = "evaluate_delta: TSN moves go through the SystemConfig overload";
    return s.eval;
  }
  // Seed from the base's fixed point only when it is a converged analysis
  // of the configuration the move diffs against.
  const auto base_eval = cached(base);
  const AnalysisResult* base_analysis = nullptr;
  if (base_eval && base_eval->valid && base_eval->analysis.converged) {
    base_analysis = &base_eval->analysis;
  }
  return delta_fast_impl(base_analysis, move);
}

const CostEvaluator::Evaluation& CostEvaluator::evaluate_delta_fast(const Evaluation& base_eval,
                                                                    const DeltaMove& move) {
  if (focused() || model_.cluster_count() > 1) {
    // The base is implicit on these paths (focus context / system config);
    // the BusConfig argument of the sibling overload is unused there.
    ThreadSlot& s = slot();
    s.eval = evaluate_delta(BusConfig{}, move);
    return s.eval;
  }
  ThreadSlot& s = slot();
  if (move.backend != ClusterBackendKind::FlexRay) {
    s.eval = Evaluation{};
    s.eval.error = "evaluate_delta: TSN moves go through the SystemConfig overload";
    return s.eval;
  }
  const AnalysisResult* base_analysis = nullptr;
  if (base_eval.valid && base_eval.analysis.converged) {
    if (&base_eval == &s.eval) {
      // The caller handed back the slot's own evaluation: stage the base
      // out before the analysis overwrites it (capacity-reusing copy).
      s.base_scratch = base_eval.analysis;
      base_analysis = &s.base_scratch;
    } else {
      base_analysis = &base_eval.analysis;
    }
  }
  return delta_fast_impl(base_analysis, move);
}

CostEvaluator::Evaluation CostEvaluator::evaluate_delta(const BusConfig& base,
                                                        const DeltaMove& move) {
  if (focused()) {
    // The base is implicit (the focus context); deltas are not seeded
    // across clusters, so only the substituted candidate matters.  Focused
    // clusters are FlexRay by the set_focus guard, so the move's FlexRay
    // payload is the one that applies.
    SystemConfig next = focus_context_;
    next.clusters[static_cast<std::size_t>(focus_cluster_)] =
        ClusterConfig::flexray_bus(move.config);
    return evaluate_system_impl(next, /*count_as_delta=*/true, /*focused_view=*/true);
  }
  if (model_.cluster_count() > 1) {
    Evaluation out;
    out.error = "multi-cluster evaluator: use the SystemConfig evaluate_delta overload";
    return out;
  }
  if (move.backend != ClusterBackendKind::FlexRay) {
    Evaluation out;
    out.error = "evaluate_delta: TSN moves go through the SystemConfig overload";
    return out;
  }
  return evaluate_delta_fast(base, move);  // copies out of the thread slot
}

CostEvaluator::Evaluation CostEvaluator::evaluate_system(const SystemConfig& config) {
  if (model_.single_cluster() && config.cluster_count() == 1 && !focused() &&
      config.clusters[0].kind == ClusterBackendKind::FlexRay) {
    // Degenerate case: exactly the pre-cluster pipeline (and its cache).
    // Single-cluster TSN systems go through the system path — the TSN
    // analysis has no BusLayout to speak of.
    return evaluate(config.clusters[0].flexray);
  }
  return evaluate_system_impl(config, /*count_as_delta=*/false);
}

CostEvaluator::Evaluation CostEvaluator::evaluate_delta(const SystemConfig& base,
                                                        const DeltaMove& move) {
  if (model_.single_cluster() && base.cluster_count() == 1 && !focused() &&
      base.clusters[0].kind == ClusterBackendKind::FlexRay &&
      move.backend == ClusterBackendKind::FlexRay) {
    return evaluate_delta(base.clusters[0].flexray, move);
  }
  if (move.cluster < 0 || static_cast<std::size_t>(move.cluster) >= base.cluster_count() ||
      base.cluster_count() != model_.cluster_count()) {
    Evaluation out;
    out.error = "evaluate_delta: move cluster index or base config out of range";
    return out;
  }
  if (base.clusters[static_cast<std::size_t>(move.cluster)].kind != move.backend) {
    Evaluation out;
    out.error = "evaluate_delta: move backend does not match the cluster's backend";
    return out;
  }
  SystemConfig next = base;
  next.clusters[static_cast<std::size_t>(move.cluster)] =
      move.backend == ClusterBackendKind::Tsn ? ClusterConfig::tsn_switch(move.tsn)
                                              : ClusterConfig::flexray_bus(move.config);
  return evaluate_system_impl(next, /*count_as_delta=*/true);
}

CostEvaluator::Evaluation CostEvaluator::evaluate_system_impl(const SystemConfig& config,
                                                              bool count_as_delta,
                                                              bool focused_result) {
  if (!evaluator_options_.cache_enabled) {
    Evaluation out = analyze_system_config(config, count_as_delta);
    return focused_result ? focused_view(out) : out;
  }
  if (const auto hit = cached_system(config)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return focused_result ? focused_view(*hit) : *hit;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  auto entry =
      std::make_shared<const Evaluation>(analyze_system_config(config, count_as_delta));
  insert_system_cache(config, entry);
  return focused_result ? focused_view(*entry) : *entry;
}

CostEvaluator::Evaluation CostEvaluator::analyze_system_config(const SystemConfig& config,
                                                               bool count_as_delta) {
  Evaluation out;
  auto layouts = build_system_layouts(model_, params_, config);
  if (!layouts.ok()) {
    out.error = layouts.error().message;
    return out;
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  AnalysisWorkCounters counters;
  auto analysis = analyze_multicluster(model_, layouts.value(), options_, MulticlusterOptions{},
                                       cluster_caches_, &counters);
  add_work(counters);
  count_evaluation(count_as_delta, /*seeded=*/false);
  if (!analysis.ok()) {
    out.error = analysis.error().message;
    return out;
  }
  MulticlusterResult result = std::move(analysis).value();
  out.valid = true;
  out.cost = result.cost;
  out.multicluster_converged = result.converged;
  out.cluster_analysis = std::move(result.clusters);

#ifndef NDEBUG
  // Debug builds cross-check delta evaluations against a cache-free run of
  // the same fixed point, bit for bit — the multi-cluster analogue of the
  // single-cluster delta assertion.  Like there, the full path is not
  // re-verified per call (it IS the reference construction), which keeps
  // the sanitize lane's multicluster cost at ~2x instead of ~4x.
  if (!count_as_delta) return out;
  auto reference = analyze_multicluster(model_, layouts.value(), options_);
  assert(reference.ok());
  if (reference.ok()) {
    const MulticlusterResult& ref = reference.value();
    assert(ref.converged == out.multicluster_converged);
    assert(ref.cost.value == out.cost.value);
    assert(ref.cost.schedulable == out.cost.schedulable);
    assert(ref.cost.unbounded_activities == out.cost.unbounded_activities);
    for (std::size_t c = 0; c < ref.clusters.size(); ++c) {
      assert(ref.clusters[c].task_completion == out.cluster_analysis[c].task_completion);
      assert(ref.clusters[c].message_completion == out.cluster_analysis[c].message_completion);
    }
  }
#endif
  return out;
}

CostEvaluator::~CostEvaluator() {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    shutting_down_ = true;
  }
  pool_wake_.notify_all();
  for (std::thread& t : pool_) t.join();
}

int CostEvaluator::worker_threads() const {
  const int threads = evaluator_options_.threads > 0
                          ? evaluator_options_.threads
                          : static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, threads);
}

void CostEvaluator::ensure_pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  const std::size_t wanted = static_cast<std::size_t>(worker_threads()) - 1;
  while (pool_.size() < wanted) pool_.emplace_back([this] { pool_worker(); });
}

void CostEvaluator::drain(Batch& batch) {
  for (std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
       i < batch.configs.size(); i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    (*batch.out)[i] = evaluate(batch.configs[i]);
  }
}

void CostEvaluator::pool_worker() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mutex_);
      pool_wake_.wait(lock, [&] {
        return shutting_down_ || (batch_ != nullptr && batch_generation_ != seen_generation);
      });
      if (shutting_down_) return;
      seen_generation = batch_generation_;
      batch = batch_;
      ++batch->active;
    }
    drain(*batch);
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      --batch->active;
    }
    pool_done_.notify_all();
  }
}

std::vector<CostEvaluator::Evaluation> CostEvaluator::evaluate_many(
    std::span<const BusConfig> configs) {
  std::vector<Evaluation> out(configs.size());
  if (configs.empty()) return out;

  if (worker_threads() <= 1 || configs.size() <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) out[i] = evaluate(configs[i]);
    return out;
  }

  ensure_pool();
  Batch batch;
  batch.configs = configs;
  batch.out = &out;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    batch_ = &batch;
    ++batch_generation_;
  }
  pool_wake_.notify_all();
  drain(batch);  // the caller participates
  {
    // `batch` lives on this stack frame: wait for every worker to check
    // out (they only touch it between the active ++/--) before returning.
    std::unique_lock<std::mutex> lock(pool_mutex_);
    pool_done_.wait(lock, [&] { return batch.active == 0; });
    if (batch_ == &batch) batch_ = nullptr;
  }
  return out;
}

EvaluatorWorkStats CostEvaluator::work_stats() const {
  EvaluatorWorkStats out;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  for (const auto& s : slots_) {
    std::lock_guard<std::mutex> slot_lock(s->mutex);
    out += s->stats;
  }
  return out;
}

EvaluatorCacheStats CostEvaluator::cache_stats() const {
  EvaluatorCacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  stats.entries = cache_.size() + system_cache_.size();
  return stats;
}

void CostEvaluator::clear_cache() {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    system_cache_.clear();
  }
  components_.clear();
  for (const auto& cache : extra_components_) {
    if (cache) cache->clear();
  }
}

}  // namespace flexopt
