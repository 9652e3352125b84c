#include "flexopt/core/evaluator.hpp"

#include "flexopt/analysis/multicluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace flexopt {

/// Per-worker evaluation state (see the declaration in evaluator.hpp).
struct CostEvaluator::WorkerSlot {
  EvaluatorWorkStats stats;
  std::vector<ClusterLayout> layouts;  ///< one per cluster, re-assigned per candidate
  MulticlusterWorkspace workspace;     ///< per-cluster arenas, jitters and results
  SystemConfig key;                    ///< the candidate's memo key, rebuilt in place
  /// The last memo miss: validity, cost and error (its per-cluster results
  /// are workspace.result's).
  Evaluation miss;
  Evaluation eval;  ///< evaluate_in_slot's return storage
};

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
      params_(params),
      options_(options),
      evaluator_options_(evaluator_options),
      components_(model_.cluster_count()),
      cluster_caches_(model_.cluster_count()) {
  // One cache per cluster, so geometry components never alias across buses.
  // The pointer table is built once — the evaluator is immovable, so the
  // addresses hold — keeping the per-candidate hot path allocation-free.
  for (std::size_t c = 0; c < components_.size(); ++c) cluster_caches_[c] = &components_[c];
  slots_.push_back(std::make_unique<WorkerSlot>());
  clear_focus();
}

CostEvaluator::~CostEvaluator() = default;

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
  // Invalid requests degrade to the default coordinate in every build type
  // rather than risk an out-of-range or cross-backend substitution.
  const auto c = static_cast<std::size_t>(cluster);
  if (cluster < 0 || c >= model_.cluster_count() ||
      context.cluster_count() != model_.cluster_count() ||
      context.clusters[c].kind != ClusterBackendKind::FlexRay ||
      model_.cluster_app(c)->cluster_backend(ClusterId{0}) != ClusterBackendKind::FlexRay) {
    clear_focus();
    return;
  }
  focus_context_ = std::move(context);
  focus_cluster_ = cluster;
}

void CostEvaluator::clear_focus() {
  if (model_.single_cluster() &&
      model_.cluster_app(0)->cluster_backend(ClusterId{0}) == ClusterBackendKind::FlexRay) {
    focus_context_ = SystemConfig::single(BusConfig{});
    focus_cluster_ = 0;
    return;
  }
  focus_cluster_ = -1;
  focus_context_ = SystemConfig{};
}

namespace {

/// Empties a result, keeping its capacity (the slot form allocates nothing).
void clear_keeping_capacity(AnalysisResult& a) {
  a.task_completion.clear();
  a.message_completion.clear();
  a.task_jitter.clear();
  a.message_jitter.clear();
  a.schedule_ptr.reset();
  a.exact.reset();
  a.cost = Cost{};
  a.converged = true;
}

}  // namespace

void CostEvaluator::assign_focused_view(const Evaluation& outcome,
                                        std::span<const AnalysisResult> clusters,
                                        Evaluation& out) const {
  // Single-bus algorithms read per-activity completions off
  // Evaluation::analysis (the OBC curve fit); copying all C cluster results
  // per candidate would dominate the descent's hot path.
  out.valid = outcome.valid;
  out.cost = outcome.cost;
  out.error = outcome.error;
  out.cluster_analysis.clear();
  const auto focus = static_cast<std::size_t>(focus_cluster_);
  if (outcome.valid && focus < clusters.size()) {
    out.analysis = clusters[focus];
  } else {
    clear_keeping_capacity(out.analysis);
  }
}

CostEvaluator::Evaluation CostEvaluator::system_entry(const WorkerSlot& s) {
  Evaluation entry = s.miss;
  if (entry.valid) entry.cluster_analysis = s.workspace.result.clusters;
  return entry;
}

std::shared_ptr<const CostEvaluator::Evaluation> CostEvaluator::cached_system(
    const SystemConfig& config) {
  if (!evaluator_options_.cache_enabled) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = system_cache_.find(config);
  if (it == system_cache_.end()) return nullptr;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void CostEvaluator::insert_system_cache(const SystemConfig& config,
                                        std::shared_ptr<const Evaluation> entry) {
  if (!evaluator_options_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (system_cache_.size() < evaluator_options_.max_cache_entries) {
    system_cache_.emplace(config, std::move(entry));
  }
}

void CostEvaluator::record_analysis(WorkerSlot& s, const AnalysisWorkCounters& counters) {
  s.stats.analysis += counters;
  ++s.stats.full_evaluations;
  // The arenas track their own lifetime totals; mirroring them (assignment,
  // not accumulation) keeps the sum over slots exact.
  s.stats.arena_binds = 0;
  s.stats.arena_reuses = 0;
  for (const AnalysisArena& arena : s.workspace.arenas) {
    s.stats.arena_binds += arena.binds;
    s.stats.arena_reuses += arena.reuses;
  }
  s.stats.components_per_evaluation.record(counters.components());
}

CostEvaluator::Evaluation CostEvaluator::evaluate(const BusConfig& config) {
  return evaluate_in_slot(config);  // copies out of slot 0
}

const CostEvaluator::Evaluation& CostEvaluator::evaluate_in_slot(const BusConfig& config) {
  const Evaluation& out = evaluate_focused(*slots_[0], config);
  note_failure(out);
  return out;
}

void CostEvaluator::note_failure(const Evaluation& eval) {
  if (eval.valid) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (first_failure_.empty()) first_failure_ = eval.error;
}

std::string CostEvaluator::first_failure() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return first_failure_;
}

const CostEvaluator::Evaluation& CostEvaluator::evaluate_focused(WorkerSlot& s,
                                                                 const BusConfig& config) {
  if (!focused()) {
    s.eval = Evaluation{};
    s.eval.error = "no FlexRay cluster in focus: use evaluate_system() or set_focus()";
    return s.eval;
  }
  // Assignment reuses the key's capacity: a memo hit allocates nothing.
  s.key = focus_context_;
  s.key.clusters[static_cast<std::size_t>(focus_cluster_)].flexray = config;
  if (const auto hit = cached_system(s.key)) {
    assign_focused_view(*hit, hit->cluster_analysis, s.eval);
  } else {
    analyze_miss(s, s.key);
    assign_focused_view(s.miss, s.workspace.result.clusters, s.eval);
  }
  return s.eval;
}

CostEvaluator::Evaluation CostEvaluator::evaluate_system(const SystemConfig& config) {
  Evaluation out;
  if (const auto hit = cached_system(config)) {
    out = *hit;
  } else {
    analyze_miss(*slots_[0], config);
    out = system_entry(*slots_[0]);
  }
  note_failure(out);
  return out;
}

void CostEvaluator::analyze_miss(WorkerSlot& s, const SystemConfig& config) {
  // Concurrent misses of the same configuration (repeats within one
  // evaluate_many batch) analyse redundantly but converge on identical
  // values (the analysis is deterministic), so no per-key coordination is
  // needed.
  if (evaluator_options_.cache_enabled) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  Evaluation& out = s.miss;
  out.valid = false;
  out.cost = Cost{kInvalidConfigCost, false, 0};
  out.error.clear();
  const auto layouts = assign_system_layouts(model_, params_, config, s.layouts);
  if (layouts.ok()) {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    AnalysisWorkCounters counters;
    const auto analysis = analyze_multicluster(model_, s.layouts, options_, cluster_caches_,
                                               s.workspace, &counters);
    record_analysis(s, counters);
    if (analysis.ok()) {
      out.valid = true;
      out.cost = s.workspace.result.cost;
    } else {
      out.error = analysis.error().message;
    }
  } else {
    out.error = layouts.error().message;
  }

#ifndef NDEBUG
  // Debug builds re-analyse every miss on call-local component caches and
  // compare bit for bit, so a stale or mis-keyed cached component, or state
  // a worker slot carried over from an earlier candidate, can never hide.
  // Exact mode compares the engine counters too, so a stale exact-space
  // entry cannot hide behind equal costs either.
  if (layouts.ok()) {
    auto reference = analyze_multicluster(model_, s.layouts, options_);
    assert(reference.ok() == out.valid);
    if (reference.ok() && out.valid) {
      const MulticlusterResult& ref = reference.value();
      assert(ref.cost.value == out.cost.value);
      assert(ref.cost.schedulable == out.cost.schedulable);
      assert(ref.cost.unbounded_activities == out.cost.unbounded_activities);
      for (std::size_t c = 0; c < ref.clusters.size(); ++c) {
        const AnalysisResult& a = s.workspace.result.clusters[c];
        const AnalysisResult& r = ref.clusters[c];
        assert(r.converged == a.converged);
        assert(r.task_completion == a.task_completion);
        assert(r.message_completion == a.message_completion);
        assert(r.task_jitter == a.task_jitter);
        assert(r.message_jitter == a.message_jitter);
        assert((r.exact == nullptr) == (a.exact == nullptr));
        if (r.exact != nullptr && a.exact != nullptr) {
          assert(r.exact->fallback == a.exact->fallback);
          assert(r.exact->explored_states == a.exact->explored_states);
          assert(r.exact->merged_states == a.exact->merged_states);
          assert(r.exact->transitions == a.exact->transitions);
          assert(r.exact->refined_messages == a.exact->refined_messages);
        }
      }
    }
  }
#endif
  if (evaluator_options_.cache_enabled) {
    insert_system_cache(config, std::make_shared<const Evaluation>(system_entry(s)));
  }
}

std::vector<CostEvaluator::Evaluation> CostEvaluator::evaluate_many(
    std::span<const BusConfig> configs) {
  std::vector<Evaluation> out(configs.size());
  const std::size_t workers = std::min(configs.size(), static_cast<std::size_t>(worker_threads()));
  while (slots_.size() < workers) slots_.push_back(std::make_unique<WorkerSlot>());
  parallel_for(configs.size(), static_cast<int>(workers), [&](std::size_t i, std::size_t worker) {
    out[i] = evaluate_focused(*slots_[worker], configs[i]);
  });
  for (const Evaluation& eval : out) note_failure(eval);
  return out;
}

EvaluatorWorkStats CostEvaluator::work_stats() const {
  EvaluatorWorkStats out;
  for (const auto& s : slots_) out += s->stats;
  return out;
}

EvaluatorCacheStats CostEvaluator::cache_stats() const {
  EvaluatorCacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  stats.entries = system_cache_.size();
  return stats;
}

void CostEvaluator::clear_cache() {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    system_cache_.clear();
  }
  for (AnalysisComponentCache& cache : components_) cache.clear();
}

}  // namespace flexopt
