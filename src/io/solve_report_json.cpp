#include "flexopt/io/solve_report_json.hpp"

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/io/json_writer.hpp"

namespace flexopt {
namespace {

void write_config(JsonWriter& json, const BusConfig& config, const char* backend = nullptr) {
  json.begin_object();
  if (backend != nullptr) json.field("backend", backend);
  json.field("static_slot_count", config.static_slot_count)
      .field("static_slot_len", config.static_slot_len)
      .field("minislot_count", config.minislot_count);
  json.key("static_slot_owner").begin_array();
  for (const NodeId owner : config.static_slot_owner) {
    json.value(static_cast<long long>(owner));
  }
  json.end_array();
  json.key("frame_id").begin_array();
  for (const int id : config.frame_id) json.value(id);
  json.end_array();
  json.end_object();
}

/// Schema v4: cluster_configs entries are backend-tagged.  FlexRay entries
/// keep the v3 field set (the tag is prepended); TSN entries carry the
/// time-aware-shaper decision variables instead.
void write_cluster_config(JsonWriter& json, const ClusterConfig& cluster) {
  if (cluster.kind == ClusterBackendKind::Tsn) {
    const TsnConfig& tsn = cluster.tsn;
    json.begin_object()
        .field("backend", to_string(ClusterBackendKind::Tsn))
        .field("cycle", tsn.cycle)
        .field("link_rate_mbps", tsn.link_rate_mbps);
    json.key("gates").begin_array();
    for (const TsnGateWindow& gate : tsn.gates) {
      json.begin_object()
          .field("offset", gate.offset)
          .field("length", gate.length)
          .end_object();
    }
    json.end_array();
    json.key("et_priority").begin_array();
    for (const int priority : tsn.et_priority) json.value(priority);
    json.end_array();
    json.end_object();
    return;
  }
  write_config(json, cluster.flexray, to_string(ClusterBackendKind::FlexRay));
}

/// Bound fields inside the pessimism block: infinite bounds (a starved TSN
/// port, an uncovered ET message) serialize as JSON null — int64 max is not
/// a number any consumer should ever parse back as a response time.
void write_bound(JsonWriter& json, std::string_view name, Time bound) {
  json.key(name);
  if (is_infinite(bound)) {
    json.null_value();
  } else {
    json.value(static_cast<long long>(bound));
  }
}

/// Schema v5: the `pessimism` block of an exact-mode solve — holistic vs
/// schedule-space bounds of the winner, per ET activity.
void write_pessimism(JsonWriter& json, const PessimismReport& pessimism) {
  json.key("pessimism").begin_object();
  json.field("activities", pessimism.activities)
      .field("refined", pessimism.refined)
      .field("unbounded", pessimism.unbounded)
      .field("mean_gap", pessimism.mean_gap)
      .field("max_gap", pessimism.max_gap)
      .field("explored_states", pessimism.explored_states)
      .field("merged_states", pessimism.merged_states)
      .field("any_fallback", pessimism.any_fallback);
  json.key("cluster_fallbacks").begin_array();
  for (const ExactFallback fallback : pessimism.cluster_fallbacks) {
    json.value(to_string(fallback));
  }
  json.end_array();
  json.key("entries").begin_array();
  for (const PessimismActivity& entry : pessimism.entries) {
    json.begin_object()
        .field("cluster", entry.cluster)
        .field("activity", entry.is_task ? "task" : "message")
        .field("index", entry.index);
    write_bound(json, "holistic", entry.holistic);
    write_bound(json, "exact", entry.exact);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_member(JsonWriter& json, const MemberSolveReport& member, bool include_timing) {
  json.begin_object()
      .field("member", member.member)
      .field("algorithm", member.algorithm)
      .field("seed", member.seed)
      .field("budget", member.budget)
      .field("winner", member.winner)
      .field("status", to_string(member.status))
      .field("feasible", member.feasible)
      .field("cost", member.cost)
      .field("evaluations", member.evaluations)
      .field("cache_hits", member.cache_hits)
      .field("cache_misses", member.cache_misses)
      .field("components_recomputed", member.components_recomputed)
      .field("components_reused", member.components_reused);
  if (include_timing) json.field("wall_seconds", member.wall_seconds);
  json.key("improvements").begin_array();
  for (const IncumbentEvent& event : member.improvements) {
    json.begin_object()
        .field("evaluations", event.evaluations)
        .field("cost", event.cost)
        .field("feasible", event.feasible)
        .end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

std::string write_solve_json(const Application& app, std::string_view algorithm,
                             const SolveReport& report, bool include_timing,
                             const PessimismReport* pessimism) {
  const OptimizationOutcome& outcome = report.outcome;
  // Schema v2 delta: the version bump itself, plus — for multi-cluster
  // systems only — a `clusters` count in the system object and a
  // `cluster_configs` array after `config`.  Schema v3 delta: the `profile`
  // block after `incremental` (always-on work/iteration counters and the
  // components-per-delta histogram; integer-only, so reports stay
  // byte-deterministic for a fixed seed).  Schema v4 delta: every
  // cluster_configs entry leads with a `backend` tag ("flexray" | "tsn")
  // and TSN entries carry the shaper decision variables (cycle,
  // link_rate_mbps, gates, et_priority) instead of the FlexRay fields.
  // Schema v5 delta: version-only for holistic solves; exact-mode solves
  // add a `pessimism` block after `profile` (infinite bounds are null).
  // Additive within v5: the profile block carries the exact-engine counters
  // (exact_states_explored, exact_states_deduped, exact_frontier_reused) —
  // zero on holistic solves, so existing consumers see only new keys.
  // Schema v6 delta: `delta_evaluations` leaves `incremental` and every
  // member; `delta_seeded`, `arena_binds` and `arena_reuses` leave
  // `profile` (every analysis now runs on a worker thread's arena, so those
  // two count threads, not work); the histogram `components_per_delta`
  // becomes `components_per_evaluation`, recorded for every analysis.
  const bool multicluster = outcome.system.cluster_count() > 1;
  JsonWriter json;
  json.begin_object();
  json.field("schema", "flexopt-solve-report/6");
  json.key("system").begin_object();
  json.field("tasks", app.task_count())
      .field("messages", app.message_count())
      .field("graphs", app.graph_count())
      .field("nodes", app.node_count());
  if (multicluster) json.field("clusters", outcome.system.cluster_count());
  json.end_object();
  json.field("algorithm", algorithm);
  json.field("algorithm_label", outcome.algorithm);
  json.field("status", to_string(report.status));
  json.field("feasible", outcome.feasible);
  json.field("cost", outcome.cost.value);
  json.field("schedulable", outcome.cost.schedulable);
  json.field("unbounded_activities", outcome.cost.unbounded_activities);
  json.field("evaluations", outcome.evaluations);
  if (include_timing) json.field("wall_seconds", outcome.wall_seconds);
  json.key("cache")
      .begin_object()
      .field("hits", report.cache_hits)
      .field("misses", report.cache_misses)
      .end_object();
  json.key("incremental")
      .begin_object()
      .field("components_recomputed", report.components_recomputed)
      .field("components_reused", report.components_reused)
      .end_object();
  // Always-on profiling counters (schema v3 addition).  Integer-only so the
  // block stays byte-deterministic for a fixed seed.
  const EvaluatorWorkStats& profile = report.profile;
  json.key("profile")
      .begin_object()
      .field("holistic_iterations", profile.analysis.holistic_iterations)
      .field("fixed_point_iterations", profile.analysis.fixed_point_iterations)
      .field("fps_analyses", profile.analysis.fps_analyses)
      .field("fps_skipped", profile.analysis.fps_skipped)
      .field("dyn_analyses", profile.analysis.dyn_analyses)
      .field("dyn_skipped", profile.analysis.dyn_skipped)
      .field("schedule_builds", profile.analysis.schedule_builds)
      .field("schedule_reuses", profile.analysis.schedule_reuses)
      .field("exact_states_explored", profile.analysis.exact_states_explored)
      .field("exact_states_deduped", profile.analysis.exact_states_deduped)
      .field("exact_frontier_reused", profile.analysis.exact_frontier_reused)
      .field("full_evaluations", profile.full_evaluations);
  const Histogram& per_evaluation = profile.components_per_evaluation;
  json.key("components_per_evaluation")
      .begin_object()
      .field("count", per_evaluation.count())
      .field("sum", per_evaluation.sum());
  json.key("buckets").begin_array();
  const int top_bucket = per_evaluation.max_bucket();
  for (int b = 0; b <= top_bucket; ++b) {
    const std::uint64_t bucket_count = per_evaluation.buckets()[static_cast<std::size_t>(b)];
    if (bucket_count == 0) continue;
    json.begin_object()
        .field("le", Histogram::bucket_bound(b))
        .field("count", bucket_count)
        .end_object();
  }
  json.end_array();
  json.end_object();   // components_per_evaluation
  json.end_object();   // profile
  if (pessimism != nullptr) write_pessimism(json, *pessimism);
  json.key("config");
  write_config(json, outcome.config);
  if (multicluster) {
    // One config per cluster; frame_id vectors index the *local* MessageIds
    // of that cluster's projection (relay hops included).
    json.key("cluster_configs").begin_array();
    for (const ClusterConfig& cluster : outcome.system.clusters) {
      write_cluster_config(json, cluster);
    }
    json.end_array();
  }
  json.field("winner", report.winner);
  json.key("members").begin_array();
  for (const MemberSolveReport& member : report.members) {
    write_member(json, member, include_timing);
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace flexopt
