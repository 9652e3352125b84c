#include "flexopt/analysis/incremental.hpp"

#include "flexopt/flexray/bus_layout.hpp"

#include <algorithm>

#include "engine.hpp"
#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/list_scheduler.hpp"
#include "flexopt/analysis/sat_time.hpp"

namespace flexopt {
namespace {

/// FNV-1a, the same construction hash_config uses for the whole-config key.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

bool same_geometry(const ScheduleComponent& component, const BusConfig& config) {
  return component.static_slot_count == config.static_slot_count &&
         component.static_slot_len == config.static_slot_len &&
         component.minislot_count == config.minislot_count &&
         component.static_slot_owner == config.static_slot_owner;
}

ScheduleComponent build_schedule_component(const BusLayout& layout,
                                           const AnalysisOptions& options,
                                           ScheduleWorkspace& workspace) {
  const Application& app = layout.application();
  const BusConfig& config = layout.config();
  ScheduleComponent component;
  component.static_slot_count = config.static_slot_count;
  component.static_slot_len = config.static_slot_len;
  component.static_slot_owner = config.static_slot_owner;
  component.minislot_count = config.minislot_count;

  auto schedule_result = build_static_schedule(layout, options.scheduler, workspace);
  if (!schedule_result.ok()) {
    component.error = schedule_result.error().message;
    return component;
  }
  component.valid = true;
  component.schedule = std::make_shared<const StaticSchedule>(std::move(schedule_result).value());
  component.tt_task_completion.assign(app.task_count(), 0);
  component.tt_message_completion.assign(app.message_count(), 0);
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    if (app.tasks()[t].policy == TaskPolicy::Scs) {
      component.tt_task_completion[t] = component.schedule->task_wcrt(static_cast<TaskId>(t));
    }
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Static) {
      component.tt_message_completion[m] =
          component.schedule->message_wcrt(static_cast<MessageId>(m));
    }
  }
  return component;
}

/// The jitter slice the exploration actually reads: DYN messages only, in
/// ascending MessageId order (ST jitters must not perturb the key — an
/// ST-side move that leaves the DYN inputs untouched is exactly the reuse
/// case).  Out-of-range reads mirror the exploration's kTimeInfinity.
std::vector<Time> dyn_jitter_slice(const Application& app,
                                   std::span<const Time> message_jitter) {
  std::vector<Time> slice;
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls != MessageClass::Dynamic) continue;
    slice.push_back(m < message_jitter.size() ? message_jitter[m] : kTimeInfinity);
  }
  return slice;
}

bool same_exploration(const ExactSpaceComponent& component, std::uint64_t dyn_key,
                      const std::vector<Time>& dyn_jitter, Time horizon,
                      const ExactOptions& options) {
  return component.dyn_key == dyn_key && component.horizon == horizon &&
         component.options == options &&
         component.message_jitter == dyn_jitter;
}

}  // namespace

ConfigSubHashes config_subhashes(const BusConfig& config) {
  ConfigSubHashes keys;
  Fnv geometry;
  geometry.mix(static_cast<std::uint64_t>(config.static_slot_count));
  geometry.mix(static_cast<std::uint64_t>(config.static_slot_len));
  geometry.mix(static_cast<std::uint64_t>(config.minislot_count));
  for (const NodeId owner : config.static_slot_owner) geometry.mix(index_of(owner));
  keys.geometry_key = geometry.h;

  Fnv dyn;
  dyn.mix(static_cast<std::uint64_t>(config.static_slot_count));
  dyn.mix(static_cast<std::uint64_t>(config.static_slot_len));
  dyn.mix(static_cast<std::uint64_t>(config.minislot_count));
  for (const int fid : config.frame_id) dyn.mix(static_cast<std::uint64_t>(fid));
  keys.dyn_key = dyn.h;
  return keys;
}

AnalysisComponentCache::AnalysisComponentCache(std::size_t max_entries)
    : max_entries_(max_entries) {}

std::shared_ptr<const ScheduleComponent> AnalysisComponentCache::schedule_for(
    const BusLayout& layout, const AnalysisOptions& options, ScheduleWorkspace& workspace,
    AnalysisWorkCounters* counters) {
  const std::uint64_t key = config_subhashes(layout.config()).geometry_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = schedules_.find(key); it != schedules_.end()) {
      for (const auto& component : it->second) {
        if (same_geometry(*component, layout.config())) {
          if (counters != nullptr) ++counters->schedule_reuses;
          return component;
        }
      }
    }
  }
  if (counters != nullptr) ++counters->schedule_builds;
  auto component = std::make_shared<const ScheduleComponent>(
      build_schedule_component(layout, options, workspace));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Concurrent misses of the same geometry build redundantly (the build
    // is deterministic); keep whichever entry landed first so a race never
    // grows the bucket, and bound the cache by total components, not
    // hash-bucket count.
    auto& bucket = schedules_[key];
    for (const auto& existing : bucket) {
      if (same_geometry(*existing, layout.config())) return existing;
    }
    if (entry_count_ < max_entries_) {
      bucket.push_back(component);
      ++entry_count_;
    }
  }
  return component;
}

std::shared_ptr<const ExactSpaceComponent> AnalysisComponentCache::schedule_space_for(
    const BusLayout& layout, std::span<const Time> message_jitter, Time horizon,
    const ExactOptions& options, AnalysisWorkCounters* counters) {
  const std::uint64_t dyn_key = config_subhashes(layout.config()).dyn_key;
  std::vector<Time> dyn_jitter = dyn_jitter_slice(layout.application(), message_jitter);
  Fnv fnv;
  fnv.mix(dyn_key);
  fnv.mix(static_cast<std::uint64_t>(horizon));
  fnv.mix(options.max_states);
  for (const Time j : dyn_jitter) fnv.mix(static_cast<std::uint64_t>(j));
  const std::uint64_t key = fnv.h;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = exact_spaces_.find(key); it != exact_spaces_.end()) {
      for (const auto& component : it->second) {
        if (same_exploration(*component, dyn_key, dyn_jitter, horizon, options)) {
          if (counters != nullptr) ++counters->exact_frontier_reused;
          return component;
        }
      }
    }
  }
  auto component = std::make_shared<ExactSpaceComponent>();
  component->dyn_key = dyn_key;
  component->horizon = horizon;
  component->options = options;
  component->message_jitter = std::move(dyn_jitter);
  component->space = explore_dyn_schedule_space(layout, message_jitter, horizon, options);
  if (counters != nullptr) {
    counters->exact_states_explored += component->space.explored_states;
    counters->exact_states_deduped += component->space.merged_states;
  }
  std::shared_ptr<const ExactSpaceComponent> stored = std::move(component);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Concurrent misses of the same key explore redundantly (deterministic
    // work); keep whichever entry landed first so a race never grows the
    // bucket, and bound the store by total entries like the schedules.
    auto& bucket = exact_spaces_[key];
    for (const auto& existing : bucket) {
      if (same_exploration(*existing, dyn_key, stored->message_jitter, horizon, options)) {
        return existing;
      }
    }
    if (exact_entry_count_ < max_entries_) {
      bucket.push_back(stored);
      ++exact_entry_count_;
    }
  }
  return stored;
}

std::shared_ptr<const TaskStructure> AnalysisComponentCache::task_structure(
    const Application& app) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (task_structure_) return task_structure_;

  auto structure = std::make_shared<TaskStructure>();
  const auto horizon = analysis_horizon(app);
  if (!horizon.ok()) {
    structure->error = horizon.error().message;
  } else {
    TaskStructure& ts = *structure;
    ts.valid = true;
    ts.horizon = horizon.value();
    ts.n_tasks = static_cast<std::uint32_t>(app.task_count());
    ts.n_msgs = static_cast<std::uint32_t>(app.message_count());
    ts.n_nodes = static_cast<std::uint32_t>(app.node_count());
    ts.n_acts = ts.n_tasks + ts.n_msgs;

    // FPS templates as CSR grouped by node, ascending task index within a
    // node (the order the per-node vectors used to hold).
    ts.fps_node_begin.assign(ts.n_nodes + 1, 0);
    ts.fps_slot_of_task.assign(ts.n_tasks, -1);
    ts.task_node.resize(ts.n_tasks);
    for (std::uint32_t t = 0; t < ts.n_tasks; ++t) {
      const Task& task = app.tasks()[t];
      ts.task_node[t] = static_cast<std::uint32_t>(index_of(task.node));
      if (task.policy == TaskPolicy::Fps) ++ts.fps_node_begin[ts.task_node[t] + 1];
    }
    for (std::uint32_t n = 0; n < ts.n_nodes; ++n) {
      ts.fps_node_begin[n + 1] += ts.fps_node_begin[n];
    }
    ts.fps_params.resize(ts.fps_node_begin[ts.n_nodes]);
    std::vector<std::uint32_t> cursor(ts.fps_node_begin.begin(), ts.fps_node_begin.end() - 1);
    for (std::uint32_t t = 0; t < ts.n_tasks; ++t) {
      const Task& task = app.tasks()[t];
      if (task.policy != TaskPolicy::Fps) continue;
      const std::uint32_t slot = cursor[ts.task_node[t]]++;
      ts.fps_params[slot] = FpsTaskParams{static_cast<TaskId>(t), task.wcet,
                                          app.graph(task.graph).period, 0, task.priority};
      ts.fps_slot_of_task[t] = static_cast<std::int32_t>(slot);
    }

    // Dense DYN index space, ascending message index.
    ts.dyn_slot_of_msg.assign(ts.n_msgs, -1);
    ts.msg_priority.resize(ts.n_msgs);
    for (std::uint32_t m = 0; m < ts.n_msgs; ++m) {
      const Message& msg = app.messages()[m];
      ts.msg_priority[m] = msg.priority;
      if (msg.cls != MessageClass::Dynamic) continue;
      ts.dyn_slot_of_msg[m] = static_cast<std::int32_t>(ts.dyn_messages.size());
      ts.dyn_messages.push_back(m);
      ts.dyn_period.push_back(app.period_of(ActivityRef::message(static_cast<MessageId>(m))));
      ts.dyn_sender_node.push_back(app.task(msg.sender).node);
    }

    // aid-space arrays and the graph CSR, preserving Application's orders.
    ts.release_offset.assign(ts.n_acts, 0);
    ts.act_is_et.assign(ts.n_acts, 0);
    for (std::uint32_t t = 0; t < ts.n_tasks; ++t) {
      ts.release_offset[t] = app.tasks()[t].release_offset;
      ts.act_is_et[t] = app.tasks()[t].policy == TaskPolicy::Fps ? 1 : 0;
    }
    for (std::uint32_t m = 0; m < ts.n_msgs; ++m) {
      ts.act_is_et[ts.n_tasks + m] = app.messages()[m].cls == MessageClass::Dynamic ? 1 : 0;
    }
    const auto aid_of = [&ts](ActivityRef a) {
      return a.is_task() ? a.index : ts.n_tasks + a.index;
    };
    for (const ActivityRef a : app.topological_order()) {
      if (ts.act_is_et[aid_of(a)]) ts.et_topo.push_back(aid_of(a));
    }
    ts.pred_begin.assign(ts.n_acts + 1, 0);
    for (std::uint32_t aid = 0; aid < ts.n_acts; ++aid) {
      const ActivityRef ref = aid < ts.n_tasks
                                  ? ActivityRef::task(static_cast<TaskId>(aid))
                                  : ActivityRef::message(static_cast<MessageId>(aid - ts.n_tasks));
      for (const ActivityRef p : app.predecessors(ref)) ts.pred.push_back(aid_of(p));
      ts.pred_begin[aid + 1] = static_cast<std::uint32_t>(ts.pred.size());
    }
  }
  task_structure_ = std::move(structure);
  return task_structure_;
}

void AnalysisComponentCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  schedules_.clear();
  entry_count_ = 0;
  exact_spaces_.clear();
  exact_entry_count_ = 0;
  // task_structure_ is configuration-independent: keep it.
}

std::size_t AnalysisComponentCache::schedule_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entry_count_;
}

std::size_t AnalysisComponentCache::exact_space_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return exact_entry_count_;
}

Expected<bool> analyze_system_into(const BusLayout& layout, const AnalysisOptions& options,
                                   AnalysisComponentCache& cache, AnalysisArena& arena,
                                   AnalysisResult& out, AnalysisWorkCounters* counters,
                                   std::span<const Time> external_task_jitter,
                                   std::span<const Time> dyn_message_caps) {
  const Application& app = layout.application();
  const auto structure = cache.task_structure(app);
  if (!structure->valid) return make_error(structure->error);
  const Time horizon = structure->horizon;

  const auto schedule_component =
      cache.schedule_for(layout, options, arena.schedule_workspace, counters);
  if (!schedule_component->valid) return make_error(schedule_component->error);

  arena.bind(structure);
  arena.prepare_dyn_geometry(layout);
  const TaskStructure& ts = *arena.structure;
  const std::uint32_t n_tasks = ts.n_tasks;
  const std::uint32_t n_acts = ts.n_acts;
  const std::size_t n_dyn = ts.dyn_messages.size();
  const StaticSchedule& schedule = *schedule_component->schedule;

  int fp_iterations = 0;
  int* const fp_out = counters != nullptr ? &fp_iterations : nullptr;

  out.schedule_ptr = schedule_component->schedule;

  // Unified per-aid state: completions seeded from the component's table
  // values (ET entries are 0, the monotone-from-below seed), jitters 0.
  // Seeding ET completions with infinity instead would create
  // self-sustaining "mutually unbounded" groups whenever a message is
  // interfered by its own downstream successors (lower FrameIDs), the
  // common case under criticality-ordered IDs.
  std::vector<Time>& comp = arena.completion;
  std::vector<Time>& jit = arena.jitter;
  std::copy(schedule_component->tt_task_completion.begin(),
            schedule_component->tt_task_completion.end(), comp.begin());
  std::copy(schedule_component->tt_message_completion.begin(),
            schedule_component->tt_message_completion.end(), comp.begin() + n_tasks);
  std::fill(jit.begin(), jit.end(), 0);

  const std::span<const Time> msg_jitter{jit.data() + n_tasks, ts.n_msgs};

  // ---- dirty tracking -------------------------------------------------------
  // Per *component*, with its exact jitter read set:
  //  * FPS task u reads the jitters of same-node tasks j with
  //    j.priority <= u.priority, plus its own;
  //  * DYN message m reads its own jitter, the jitters of hp(m) (same
  //    FrameID, higher priority), and those of lf(m) (lower FrameIDs) —
  //    where an lf member occupying a single minislot contributes through
  //    its jitter's *infinity status* only (zero excess otherwise).
  // A recomputation is skipped exactly when none of the component's read
  // jitters moved since its last recomputation, so a skip can never change
  // a value.  Every component starts dirty.
  IndexBitset& dirty = arena.dirty;
  dirty.clear();
  for (const FpsTaskParams& p : ts.fps_params) dirty.set(index_of(p.id));
  for (const std::uint32_t m : ts.dyn_messages) dirty.set(n_tasks + m);

  // Reverse read sets, applied on the fly (|DYN| and node groups are small).
  auto dirty_dyn_readers = [&](std::uint32_t x, bool infinity_flipped) {
    const auto xd = static_cast<std::uint32_t>(ts.dyn_slot_of_msg[x]);
    const int x_fid = arena.dyn_prepared[xd].fid;
    const bool x_has_excess = arena.dyn_excess[xd] > 0;
    for (std::size_t d = 0; d < n_dyn; ++d) {
      const std::uint32_t m = ts.dyn_messages[d];
      const std::uint32_t aid = n_tasks + m;
      if (dirty.test(aid)) continue;
      const int m_fid = arena.dyn_prepared[d].fid;
      const bool reads = m == x ||
                         (m_fid == x_fid && ts.msg_priority[x] < ts.msg_priority[m]) ||
                         (m_fid > x_fid && (x_has_excess || infinity_flipped));
      if (reads) dirty.set(aid);
    }
  };
  auto dirty_fps_readers = [&](std::uint32_t t) {
    const std::uint32_t node = ts.task_node[t];
    const int t_priority =
        ts.fps_params[static_cast<std::uint32_t>(ts.fps_slot_of_task[t])].priority;
    for (std::uint32_t i = ts.fps_node_begin[node]; i < ts.fps_node_begin[node + 1]; ++i) {
      const FpsTaskParams& u = ts.fps_params[i];
      if (index_of(u.id) == t || t_priority <= u.priority) {
        dirty.set(static_cast<std::uint32_t>(index_of(u.id)));
      }
    }
  };

  // Recomputes the jitter of ET activity `aid` from the current completions
  // and marks the components that read it; returns true when it moved.
  auto update_jitter = [&](std::uint32_t aid) {
    Time jitter = ts.release_offset[aid];
    if (aid < n_tasks && aid < external_task_jitter.size()) {
      const Time ext = external_task_jitter[aid];
      jitter = is_infinite(ext) || is_infinite(jitter) ? kTimeInfinity : std::max(jitter, ext);
    }
    for (std::uint32_t i = ts.pred_begin[aid]; i < ts.pred_begin[aid + 1]; ++i) {
      const Time pc = comp[ts.pred[i]];
      jitter = is_infinite(pc) || is_infinite(jitter) ? kTimeInfinity : std::max(jitter, pc);
    }
    Time& slot = jit[aid];
    if (slot == jitter) return false;
    const bool infinity_flipped = is_infinite(slot) != is_infinite(jitter);
    slot = jitter;
    if (aid < n_tasks) {
      dirty_fps_readers(aid);
    } else {
      dirty_dyn_readers(aid - n_tasks, infinity_flipped);
    }
    return true;
  };
  auto recompute_fps = [&](std::uint32_t t) {
    if (counters != nullptr) ++counters->fps_analyses;
    const std::uint32_t node = ts.task_node[t];
    const std::uint32_t begin = ts.fps_node_begin[node];
    const std::uint32_t end = ts.fps_node_begin[node + 1];
    const FpsTaskParams* self = nullptr;
    for (std::uint32_t i = begin; i < end; ++i) {
      FpsTaskParams& p = arena.fps_params[i];
      p.jitter = jit[index_of(p.id)];
      if (index_of(p.id) == t) self = &p;
    }
    const std::span<const FpsTaskParams> group{arena.fps_params.data() + begin, end - begin};
    const Time r = fps_response_time(*self, group, schedule.node_profile(node), horizon, fp_out);
    if (comp[t] == r) return false;
    comp[t] = r;
    return true;
  };
  auto recompute_dyn = [&](std::uint32_t m) {
    if (counters != nullptr) ++counters->dyn_analyses;
    const auto d = static_cast<std::uint32_t>(ts.dyn_slot_of_msg[m]);
    const std::span<const DynInterferer> hp{arena.hp_entries.data() + arena.hp_begin[d],
                                            arena.hp_begin[d + 1] - arena.hp_begin[d]};
    const std::span<const DynInterferer> lf{arena.lf_entries.data() + arena.lf_begin[d],
                                            arena.lf_begin[d + 1] - arena.lf_begin[d]};
    const DynResponse r =
        dyn_response_time_prepared(arena.dyn_prepared[d], hp, lf, msg_jitter, jit[n_tasks + m],
                                   horizon, options.dyn_bound, arena.scratch, fp_out);
    // The minimum of two sound monotone bounds is sound and monotone.
    const Time response =
        m < dyn_message_caps.size() ? std::min(r.response, dyn_message_caps[m]) : r.response;
    if (comp[n_tasks + m] == response) return false;
    comp[n_tasks + m] = response;
    return true;
  };

  // ---- the relaxation ------------------------------------------------------
  bool converged = false;
  for (int iter = 0; iter < options.max_holistic_iterations && !converged; ++iter) {
    if (counters != nullptr) ++counters->holistic_iterations;
    bool active = false;
    for (const std::uint32_t aid : ts.et_topo) {
      active |= update_jitter(aid);
      if (!dirty.test(aid)) {
        if (counters != nullptr) ++(aid < n_tasks ? counters->fps_skipped : counters->dyn_skipped);
        continue;
      }
      dirty.reset_bit(aid);
      active |= aid < n_tasks ? recompute_fps(aid) : recompute_dyn(aid - n_tasks);
    }
    converged = !active;
  }
  if (!converged) {
    // A non-stabilised monotone value is not a safe bound: pin every ET
    // completion to "unbounded".
    for (std::uint32_t aid = 0; aid < n_acts; ++aid) {
      if (ts.act_is_et[aid]) comp[aid] = kTimeInfinity;
    }
  }

  out.converged = converged;
  out.task_completion.assign(comp.begin(), comp.begin() + n_tasks);
  out.message_completion.assign(comp.begin() + n_tasks, comp.end());
  out.task_jitter.assign(jit.begin(), jit.begin() + n_tasks);
  out.message_jitter.assign(jit.begin() + n_tasks, jit.end());
  out.exact.reset();
  out.cost = evaluate_cost(app, out.task_completion, out.message_completion);
  if (counters != nullptr) {
    counters->fixed_point_iterations += static_cast<std::uint64_t>(fp_iterations);
  }
  return true;
}

}  // namespace flexopt
