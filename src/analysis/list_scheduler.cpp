#include "flexopt/analysis/list_scheduler.hpp"

#include "flexopt/flexray/bus_layout.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/math/hyperperiod.hpp"

namespace flexopt {
namespace {

/// Gap candidates evaluated per SCS task under Placement::MinimizeFpsImpact.
constexpr int kPlacementCandidates = 4;

/// The FPS ranking's response horizon, in hyper-periods.
constexpr Time kRankingHorizonFactor = 4;

/// A time-triggered job — one hyper-period instance of an SCS task or an ST
/// message — and its construction state.
struct JobState {
  ActivityRef activity;
  int instance = 0;
  Time release = 0;
  std::uint32_t unscheduled_tt_preds = 0;
  Time asap = 0;  // max finish over scheduled TT predecessors, and release
  Time finish = kTimeNone;
};

/// Ready pool order: critical path desc, release asc, slot asc, instance
/// asc.  Keys are unique, so the pop order of the binary heap below is
/// total — it matches the old std::set iteration order exactly.
struct ReadyKey {
  Time path;
  Time release;
  std::size_t slot;
  int instance;
  bool operator<(const ReadyKey& o) const {
    if (path != o.path) return path > o.path;
    if (release != o.release) return release < o.release;
    if (slot != o.slot) return slot < o.slot;
    return instance < o.instance;
  }
};

/// Per-node CPU timeline during construction: sorted disjoint busy
/// intervals, linear gap search (tables have at most a few hundred jobs).
class Timeline {
 public:
  void clear() { busy_.clear(); }

  /// Up to `max_candidates` gap start times >= asap where a job of length
  /// `len` fits, written into `out` (cleared first; caller-owned scratch).
  /// The final candidate list always contains at least one entry (the gap
  /// after the last interval is unbounded).
  void gap_candidates(Time asap, Time len, int max_candidates, std::vector<Time>& out) const {
    out.clear();
    Time cursor = asap;
    for (const Interval& iv : busy_) {
      if (iv.end <= cursor) continue;
      if (iv.start >= cursor + len) {
        out.push_back(cursor);
        if (static_cast<int>(out.size()) >= max_candidates) return;
      }
      cursor = std::max(cursor, iv.end);
    }
    out.push_back(cursor);
  }

  /// Earliest start >= from where a job of length `len` fits.
  [[nodiscard]] Time earliest_fit(Time from, Time len) const {
    Time cursor = from;
    for (const Interval& iv : busy_) {
      if (iv.end <= cursor) continue;
      if (iv.start >= cursor + len) return cursor;
      cursor = std::max(cursor, iv.end);
    }
    return cursor;
  }

  void insert(Time start, Time len) {
    const Interval iv{start, start + len};
    const auto pos = std::lower_bound(
        busy_.begin(), busy_.end(), iv,
        [](const Interval& a, const Interval& b) { return a.start < b.start; });
    busy_.insert(pos, iv);
  }

  [[nodiscard]] const std::vector<Interval>& intervals() const { return busy_; }

 private:
  std::vector<Interval> busy_;
};

/// ST slot occupancy: transmission time used per (bus cycle, slot), in an
/// open-addressing table.  A build writes at most one new pair per ST job,
/// so reset() sizes the table to keep its load at or below one half.
class SlotOccupancy {
 public:
  /// Empties the table and sizes it for `max_pairs` distinct pairs.
  void reset(std::size_t max_pairs) {
    std::size_t capacity = 16;
    while (capacity < 2 * max_pairs) capacity *= 2;
    entries_.assign(capacity, Entry{});
    mask_ = capacity - 1;
  }

  /// Time already used in (cycle, slot); 0 when nothing was placed there.
  [[nodiscard]] Time used(std::int64_t cycle, int slot) const {
    for (std::size_t i = home(cycle, slot);; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.slot < 0) return 0;
      if (e.cycle == cycle && e.slot == slot) return e.used;
    }
  }

  void add(std::int64_t cycle, int slot, Time duration) {
    for (std::size_t i = home(cycle, slot);; i = (i + 1) & mask_) {
      Entry& e = entries_[i];
      if (e.slot < 0) e = Entry{cycle, slot, 0};
      if (e.cycle == cycle && e.slot == slot) {
        e.used += duration;
        return;
      }
    }
  }

 private:
  struct Entry {
    std::int64_t cycle = 0;
    int slot = -1;  ///< -1: empty
    Time used = 0;
  };

  [[nodiscard]] std::size_t home(std::int64_t cycle, int slot) const {
    std::uint64_t h = static_cast<std::uint64_t>(cycle) * 0x9e3779b97f4a7c15ull +
                      static_cast<std::uint64_t>(slot);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & mask_;
  }

  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
};

/// Per node: the FPS responses against `profile` (a clamped, merged
/// interval list) — the ranking's base seeds while the node's timeline
/// still merges to exactly that list — and, per task, the profile's
/// busiest window at the response, which makes each candidate's first
/// step local.  `from_zero_bound` bounds the fixed-point iterations an
/// unseeded analysis against `profile` needs for any of the tasks (see the
/// reuse condition in schedule_tt_task).
struct NodeSeeds {
  std::vector<Interval> profile;
  std::vector<Time> responses;
  std::vector<Time> busy;
  int from_zero_bound = 0;

  void clear() {
    profile.clear();
    responses.clear();
    busy.clear();
    from_zero_bound = 0;
  }
};

/// Modified critical-path priority [12]: longest remaining path (task WCETs
/// plus message communication times) from the activity to a graph sink,
/// written into `path` (per activity slot).  `message_reserve` is added per
/// message hop; 0 gives the pure priority metric, one bus cycle gives the
/// ALAP delay bound (a message may have to wait almost a full cycle for its
/// next owned slot).
void critical_paths(const BusLayout& layout, Time message_reserve, std::vector<Time>& path) {
  const Application& app = layout.application();
  const auto& topo = app.topological_order();
  path.assign(app.activity_count(), 0);
  auto slot = [&](ActivityRef a) {
    return a.is_task() ? a.index : app.task_count() + a.index;
  };
  auto cost_of = [&](ActivityRef a) {
    return a.is_task() ? app.task(a.as_task()).wcet
                       : layout.message_duration(a.as_message()) + message_reserve;
  };
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Time best_succ = 0;
    for (const ActivityRef s : app.successors(*it)) {
      best_succ = std::max(best_succ, path[slot(s)]);
    }
    path[slot(*it)] = best_succ + cost_of(*it);
  }
}

bool is_tt(const Application& app, ActivityRef a) {
  return a.is_task() ? app.task(a.as_task()).policy == TaskPolicy::Scs
                     : app.message(a.as_message()).cls == MessageClass::Static;
}

/// Clamps `sorted` (busy intervals ordered by start) to [0, H], drops empty
/// intervals, merges overlap/adjacency, and splices in the optional `extra`
/// interval at its sorted position — producing exactly the interval list
/// that BusyProfile's normalizing constructor would for the same input,
/// without the per-candidate copy + sort.
void clamp_merge_into(Time H, std::span<const Interval> sorted, std::vector<Interval>& out,
                      const Interval* extra) {
  out.clear();
  const auto clamped = [H](Interval iv) {
    iv.start = std::clamp<Time>(iv.start, 0, H);
    iv.end = std::clamp<Time>(iv.end, 0, H);
    return iv;
  };
  const auto emit = [&out](const Interval& iv) {
    if (iv.length() <= 0) return;
    if (!out.empty() && iv.start <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  };
  Interval pending{};
  bool has_pending = extra != nullptr;
  if (has_pending) pending = clamped(*extra);
  for (const Interval& raw : sorted) {
    const Interval iv = clamped(raw);
    if (has_pending && pending.start <= iv.start) {
      emit(pending);
      has_pending = false;
    }
    emit(iv);
  }
  if (has_pending) emit(pending);
}

}  // namespace

struct ScheduleWorkspace::Buffers {
  std::vector<JobState> jobs;          ///< every TT job, grouped by activity slot
  std::vector<std::size_t> job_begin;  ///< per activity slot; size activity_count + 1
  std::vector<ReadyKey> ready;         ///< binary heap (no node allocation per push)
  std::vector<Time> priority;          ///< critical path per activity slot
  std::vector<Time> alap_reserve;      ///< ALAP delay bound per activity slot
  std::vector<Timeline> timelines;     ///< per node
  std::vector<std::size_t> node_jobs;  ///< SCS jobs per node
  SlotOccupancy slot_used;
  /// Per node: its FPS tasks (zero jitter during table construction; the
  /// holistic loop refines jitters afterwards) as a ranking table.
  std::vector<FpsInterferenceTable> fps_tables;
  std::vector<FpsTaskParams> fps_group;  ///< one node's group while its table is built
  std::vector<NodeSeeds> node_seeds;     ///< per node
  // Candidate ranking scratch (Fig. 2 line 11).
  std::vector<Time> starts;
  std::vector<Interval> base_merged;
  BusyProfile base_profile;
  std::vector<Time> cand_responses;
  std::vector<Time> cand_busy;
  std::vector<Time> best_responses;
  std::vector<Time> best_busy;
  std::vector<Interval> profile_buffer;  ///< StaticSchedule::finalize's scratch
};

ScheduleWorkspace::ScheduleWorkspace() = default;
ScheduleWorkspace::~ScheduleWorkspace() = default;
ScheduleWorkspace::ScheduleWorkspace(ScheduleWorkspace&&) noexcept = default;
ScheduleWorkspace& ScheduleWorkspace::operator=(ScheduleWorkspace&&) noexcept = default;

Expected<StaticSchedule> build_static_schedule(const BusLayout& layout,
                                               const SchedulerOptions& options) {
  ScheduleWorkspace workspace;
  return build_static_schedule(layout, options, workspace);
}

Expected<StaticSchedule> build_static_schedule(const BusLayout& layout,
                                               const SchedulerOptions& options,
                                               ScheduleWorkspace& workspace) {
  const Application& app = layout.application();
  const auto hp = app.hyperperiod();
  if (!hp.ok()) return hp.error();
  const Time H = hp.value();
  const auto horizon_result = checked_mul(H, kRankingHorizonFactor);
  if (!horizon_result.ok()) {
    return make_error("list scheduler: hyper-period " + std::to_string(H) +
                      " ns is too long to schedule: the FPS ranking's response horizon, " +
                      std::to_string(kRankingHorizonFactor) +
                      " x hyper-period, overflows 64-bit nanoseconds");
  }
  const Time horizon = horizon_result.value();

  if (!workspace.buffers_) workspace.buffers_ = std::make_unique<ScheduleWorkspace::Buffers>();
  ScheduleWorkspace::Buffers& ws = *workspace.buffers_;
  const std::size_t node_count = app.node_count();
  const std::size_t task_count = app.task_count();
  const std::size_t activity_count = app.activity_count();

  StaticSchedule schedule(H, node_count, task_count, app.message_count());

  auto slot_of = [&](ActivityRef a) {
    return a.is_task() ? a.index : task_count + a.index;
  };
  auto activity_at = [&](std::size_t slot) {
    return slot < task_count ? ActivityRef::task(static_cast<TaskId>(slot))
                             : ActivityRef::message(static_cast<MessageId>(slot - task_count));
  };

  // Enumerate TT jobs: one per instance of each SCS task / ST message,
  // flat and grouped by activity slot (ET activities own no jobs).
  ws.job_begin.assign(activity_count + 1, 0);
  ws.node_jobs.assign(node_count, 0);
  std::size_t st_jobs = 0;
  for (std::size_t slot = 0; slot < activity_count; ++slot) {
    const ActivityRef a = activity_at(slot);
    std::size_t instances = 0;
    if (is_tt(app, a)) {
      instances = static_cast<std::size_t>(H / app.period_of(a));
      if (a.is_task()) {
        schedule.reserve_task_entries(a.as_task(), instances);
        ws.node_jobs[index_of(app.task(a.as_task()).node)] += instances;
      } else {
        schedule.reserve_message_entries(a.as_message(), instances);
        st_jobs += instances;
      }
    }
    ws.job_begin[slot + 1] = ws.job_begin[slot] + instances;
  }
  for (std::size_t n = 0; n < node_count; ++n) schedule.reserve_node_entries(n, ws.node_jobs[n]);
  const std::size_t total_jobs = ws.job_begin[activity_count];
  ws.jobs.resize(total_jobs);
  for (std::size_t slot = 0; slot < activity_count; ++slot) {
    if (ws.job_begin[slot] == ws.job_begin[slot + 1]) continue;
    const ActivityRef a = activity_at(slot);
    const Time period = app.period_of(a);
    std::uint32_t tt_preds = 0;
    for (const ActivityRef p : app.predecessors(a)) {
      // ET predecessors of TT activities are rejected by finalize(); all
      // predecessors here are TT and constrain readiness.
      if (is_tt(app, p)) ++tt_preds;
    }
    for (std::size_t j = ws.job_begin[slot]; j < ws.job_begin[slot + 1]; ++j) {
      JobState& js = ws.jobs[j];
      js.activity = a;
      js.instance = static_cast<int>(j - ws.job_begin[slot]);
      js.release = static_cast<Time>(js.instance) * period;
      js.unscheduled_tt_preds = tt_preds;
      js.asap = js.release;
      if (a.is_task()) js.asap += app.task(a.as_task()).release_offset;
      js.finish = kTimeNone;
    }
  }

  critical_paths(layout, 0, ws.priority);
  // Delay budget for FPS-aware placement: reserve a full bus cycle per
  // downstream message hop (worst-case slot wait) so delaying an SCS task
  // cannot by itself sink its TT chain.
  critical_paths(layout, layout.cycle_len(), ws.alap_reserve);

  const auto ready_after = [](const ReadyKey& a, const ReadyKey& b) { return b < a; };
  auto ready_push = [&](const JobState& js) {
    const std::size_t slot = slot_of(js.activity);
    ws.ready.push_back(ReadyKey{ws.priority[slot], js.release, slot, js.instance});
    std::push_heap(ws.ready.begin(), ws.ready.end(), ready_after);
  };
  ws.ready.clear();
  for (const JobState& js : ws.jobs) {
    if (js.unscheduled_tt_preds == 0) ready_push(js);
  }

  // Per-node CPU timelines, FPS ranking tables and base seeds: nothing
  // carries over from an earlier build.
  ws.timelines.resize(node_count);
  ws.fps_tables.resize(node_count);
  ws.node_seeds.resize(node_count);
  for (std::size_t n = 0; n < node_count; ++n) {
    ws.timelines[n].clear();
    ws.node_seeds[n].clear();
    ws.fps_group.clear();
    for (std::size_t t = 0; t < task_count; ++t) {
      const Task& task = app.tasks()[t];
      if (task.policy != TaskPolicy::Fps || index_of(task.node) != n) continue;
      ws.fps_group.push_back(FpsTaskParams{static_cast<TaskId>(t), task.wcet,
                                           app.graph(task.graph).period, 0, task.priority});
    }
    ws.fps_tables[n].assign(ws.fps_group);
  }

  // ST slot occupancy: used transmission time per (cycle, slot).
  ws.slot_used.reset(st_jobs);
  const Time cycle_len = layout.cycle_len();
  const Time slot_len = layout.config().static_slot_len;

  auto schedule_tt_task = [&](JobState& js) {
    const Task& task = app.task(js.activity.as_task());
    const std::size_t node = index_of(task.node);
    Timeline& tl = ws.timelines[node];
    const FpsInterferenceTable& fps = ws.fps_tables[node];
    std::vector<Time>& starts = ws.starts;

    const int candidates = options.placement == Placement::Asap ? 1 : kPlacementCandidates;
    tl.gap_candidates(js.asap, task.wcet, candidates, starts);
    if (options.placement == Placement::MinimizeFpsImpact && fps.size() > 0) {
      // The first-fit gaps all hug the existing SCS clump, which is exactly
      // what hurts FPS tasks (one long busy window).  Add deliberately
      // *delayed* placements spread over the remaining laxity so the
      // evaluation below can choose to fragment the table instead
      // (Fig. 2 line 11: place the task so FPS response times stay small).
      // Every candidate — spread or first-fit — is bounded ALAP-style: the
      // critical-path remainder (successor tasks, plus one bus cycle of
      // slot wait per message hop) is reserved, so no placement choice can
      // by itself push this task's TT chain past its deadline.
      const Time deadline = app.effective_deadline(js.activity);
      const Time latest = js.release + deadline - ws.alap_reserve[slot_of(js.activity)];
      const Time span = latest - js.asap;
      if (span > 0) {
        for (int j = 1; j < kPlacementCandidates; ++j) {
          const Time probe = js.asap + span * j / kPlacementCandidates;
          const Time fitted = tl.earliest_fit(probe, task.wcet);
          if (fitted <= latest) starts.push_back(fitted);
        }
      }
      std::sort(starts.begin(), starts.end());
      starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
      // Keep the earliest candidate unconditionally (there must be one),
      // drop everything beyond the ALAP bound.
      while (starts.size() > 1 && starts.back() > latest) starts.pop_back();
    }
    Time chosen = starts.front();
    if (options.placement == Placement::MinimizeFpsImpact && starts.size() > 1 &&
        fps.size() > 0) {
      // Every candidate profile is the base timeline plus one interval, so
      // each task's converged busy value against the *base* profile is a
      // least-fixed-point lower bound for its candidate recurrence — a safe
      // seed (see fps_analysis.hpp), and a lower bound on its summand that
      // lets a candidate's sum stop once it cannot beat the incumbent.
      // (The table's jitters are all zero here, so a response equals the
      // pre-jitter busy value the seed contract requires.)  A candidate is
      // read as the base profile plus its interval, never merged; with the
      // base's busiest window at each seed, its first step is local.
      //
      // The base responses are the unseeded analyses against the base
      // profile.  When the node's timeline merges to exactly the previous
      // ranking's winning list, the winner's responses are reused instead;
      // they equal the unseeded ones unless those would hit the
      // kFpsMaxIterations cap.  An unseeded iteration against the winner's
      // profile dominates the one against its base: it passes the base
      // response (the winner's seed) within the base's iterations, then
      // the winner's value within the winner's seeded iterations.  Summing
      // those counts along the chain of reuses therefore bounds it, and the
      // responses are recomputed once the sum reaches the cap.  A capped
      // analysis adds the whole cap, so every reused infinite response
      // stems from a load above 1 or a horizon overrun, which more
      // interference keeps.
      clamp_merge_into(H, tl.intervals(), ws.base_merged, nullptr);
      ws.base_profile.assign_normalized(ws.base_merged, H);
      NodeSeeds& seeds = ws.node_seeds[node];
      if (seeds.responses.empty() || seeds.profile != ws.base_merged ||
          seeds.from_zero_bound >= kFpsMaxIterations) {
        seeds.responses.resize(fps.size());
        seeds.busy.resize(fps.size());
        seeds.from_zero_bound = 0;
        for (std::size_t i = 0; i < fps.size(); ++i) {
          seeds.responses[i] = fps_response_time(fps, i, ws.base_profile, horizon,
                                                 &seeds.from_zero_bound, 0, &seeds.busy[i]);
        }
        seeds.profile.assign(ws.base_merged.begin(), ws.base_merged.end());
      }
      ws.cand_responses.resize(fps.size());
      ws.cand_busy.resize(fps.size());
      Time best_cost = kTimeInfinity;
      int best_iterations = 0;
      for (const Time s : starts) {
        const ProfileWithExtra candidate(ws.base_profile, Interval{s % H, s % H + task.wcet});
        int iterations = 0;
        const Time cost =
            fps_response_time_sum(fps, candidate, horizon, seeds.responses, best_cost,
                                  ws.cand_responses, &iterations, seeds.busy, ws.cand_busy);
        // Prefer lower FPS impact; ties go to the earlier start so the
        // schedule stays as compact as ASAP placement allows.  A pruned
        // sum is >= best_cost, so it never wins.
        if (cost < best_cost) {
          best_cost = cost;
          chosen = s;
          best_iterations = iterations;
          ws.best_responses.swap(ws.cand_responses);
          ws.best_busy.swap(ws.cand_busy);
          ws.cand_responses.resize(fps.size());
          ws.cand_busy.resize(fps.size());
        }
      }
      if (!is_infinite(best_cost)) {
        const Interval winner{chosen % H, chosen % H + task.wcet};
        clamp_merge_into(H, tl.intervals(), seeds.profile, &winner);
        seeds.responses.swap(ws.best_responses);
        seeds.busy.swap(ws.best_busy);
        seeds.from_zero_bound += best_iterations;
      }
    }
    tl.insert(chosen, task.wcet);
    js.finish = chosen + task.wcet;
    schedule.add_task_entry(
        ScheduledTask{js.activity.as_task(), js.instance, js.release, chosen, js.finish}, node);
    return true;
  };

  auto schedule_st_msg = [&](JobState& js) -> bool {
    const MessageId mid = js.activity.as_message();
    const Message& msg = app.message(mid);
    const NodeId sender_node = app.task(msg.sender).node;
    const auto& owned_slots = layout.static_slots_of(sender_node);
    const Time duration = layout.message_duration(mid);

    // Earliest bus cycle whose ST segment could start at or after ASAP is
    // floor(asap / cycle); slots within it may still start before ASAP, so
    // scan forward.
    std::int64_t cycle = js.asap / cycle_len;
    const std::int64_t last_cycle = cycle + options.max_slot_search_cycles;
    for (; cycle <= last_cycle; ++cycle) {
      for (const int s : owned_slots) {
        const Time slot_start = cycle * cycle_len + layout.static_slot_start(s);
        if (slot_start < js.asap) continue;
        const Time used = ws.slot_used.used(cycle, s);
        if (used + duration > slot_len) continue;
        const Time start = slot_start + used;
        ws.slot_used.add(cycle, s, duration);
        // Frame semantics: the receiver CHI exposes the payload at the end
        // of the slot, so delivery (finish) is the slot boundary even when
        // several messages are packed into one frame.
        js.finish = slot_start + slot_len;
        schedule.add_message_entry(
            ScheduledMessage{mid, js.instance, js.release, cycle, s, start, js.finish});
        return true;
      }
    }
    return false;
  };

  std::size_t scheduled = 0;
  while (!ws.ready.empty()) {
    std::pop_heap(ws.ready.begin(), ws.ready.end(), ready_after);
    const ReadyKey key = ws.ready.back();
    ws.ready.pop_back();
    JobState& js = ws.jobs[ws.job_begin[key.slot] + static_cast<std::size_t>(key.instance)];

    const bool ok = js.activity.is_task() ? schedule_tt_task(js) : schedule_st_msg(js);
    if (!ok) {
      return make_error("list scheduler: no ST slot found for message '" +
                        app.activity_name(js.activity) + "' within the search bound");
    }
    ++scheduled;

    // Release successors (same instance index; graphs are self-contained).
    for (const ActivityRef succ : app.successors(js.activity)) {
      const std::size_t s = slot_of(succ);
      if (ws.job_begin[s] == ws.job_begin[s + 1]) continue;  // ET successor: not in the table
      JobState& sjs = ws.jobs[ws.job_begin[s] + static_cast<std::size_t>(js.instance)];
      sjs.asap = std::max(sjs.asap, js.finish);
      if (--sjs.unscheduled_tt_preds == 0) ready_push(sjs);
    }
  }

  if (scheduled != total_jobs) {
    return make_error("list scheduler: precedence deadlock (internal error)");
  }

  schedule.finalize(ws.profile_buffer);
  return schedule;
}

}  // namespace flexopt
