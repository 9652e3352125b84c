#include "flexopt/sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "flexopt/math/hyperperiod.hpp"

namespace flexopt {
namespace {

/// Event kinds, in tie-break order at equal timestamps: completions and
/// deliveries first (they enable work), then releases, then CPU/bus slot
/// boundaries that consume the enabled state.
enum class EventType : int {
  ScsFinish = 0,
  FpsFinish = 1,
  StDelivery = 2,
  DynDelivery = 3,
  GraphRelease = 4,
  TaskRelease = 5,
  ScsStart = 6,
  // One logical DYN minislot step.  The DYN walker takes these itself and
  // never queues one; the rank orders its sending steps against the queue.
  DynSlot = 7,
  // Appended after DynSlot so the FlexRay tie-break order (and with it the
  // recorded traces) is untouched.  TSN only: serve one egress port's ET
  // queue.  Like DynSlot it consumes enabled state, so it ranks last.
  EtPortService = 8,
};

struct Event {
  Time time = 0;
  EventType type{};
  std::uint64_t seq = 0;
  std::size_t a = 0;   // node / graph / port index
  std::size_t b = 0;   // job index
  std::int64_t c = 0;  // CPU generation (FpsFinish)
  std::int64_t d = 0;  // task / message index

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (type != other.type) return type > other.type;
    return seq > other.seq;
  }
};

/// One logical step of a DYN segment: in bus cycle `cycle`, the slot
/// counter reads FrameID `fid` while the minislot counter reads `counter`.
struct DynStep {
  std::int64_t cycle = 0;
  std::int64_t counter = 1;
  int fid = 1;
};

struct TaskJob {
  Time release = 0;
  std::size_t preds_pending = 0;  // predecessor jobs + the release token
  Time ready_time = kTimeNone;
  Time remaining = 0;  // FPS only
  bool done = false;
  Time completion = kTimeNone;
};

struct MsgJob {
  Time release = 0;
  bool sender_done = false;
  Time ready_time = kTimeNone;  // DYN: when handed to the CHI
  bool delivered = false;
  Time completion = kTimeNone;
};

/// Entry in a CHI dynamic send queue.
struct ChiEntry {
  int priority = 0;
  Time ready = 0;
  std::uint32_t message = 0;
  std::size_t job = 0;

  bool operator<(const ChiEntry& o) const {
    if (priority != o.priority) return priority < o.priority;
    if (ready != o.ready) return ready < o.ready;
    return job < o.job;
  }
};

/// Replayed ST transmission window (for trace records).
struct StReplay {
  Time start = 0;
  Time finish = 0;
  std::int64_t cycle = 0;
  int slot = 0;
};

struct NodeState {
  std::multiset<ChiEntry> ready_fps;  // ordered by priority / ready / job
  bool fps_running = false;
  std::uint32_t running_task = 0;
  std::size_t running_job = 0;
  Time burst_start = 0;
  Time scs_busy_until = 0;
  std::int64_t generation = 0;
};

}  // namespace

struct ClusterEngine::Impl {
  // Backend: exactly one of layout / tsn is set.
  const BusLayout* layout = nullptr;
  const TsnLayout* tsn = nullptr;
  const Application* app = nullptr;
  EngineOptions options;
  EngineHooks hooks;
  Time horizon = 0;
  Time cycle_len = 0;

  std::vector<std::vector<TaskJob>> task_jobs;
  std::vector<std::vector<MsgJob>> msg_jobs;
  std::vector<std::vector<StReplay>> st_replay;
  std::vector<std::vector<Time>> scs_starts;  // for next-SCS lookup

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  /// Logical events taken: heap events plus DYN steps, idle ones included.
  std::uint64_t processed = 0;
  /// Events that passed through the heap.
  std::uint64_t queued = 0;

  std::vector<NodeState> cpus;
  /// CHI dynamic send queues: keyed by FrameID on FlexRay, by egress-port
  /// node index on TSN (priority = et_priority there).  On FlexRay only
  /// non-empty queues are kept, so the walker finds the next queued
  /// FrameID with one lower_bound.
  std::map<int, std::multiset<ChiEntry>> chi;
  std::vector<Time> port_busy_until;  // TSN only, per node

  // ---- DYN segment walker (FlexRay with at least one DYN FrameID) --------
  // Each bus cycle's DYN segment is a run of logical minislot steps.  A
  // step whose FrameID has nothing queued, or whose owner is past
  // pLatestTx, is idle and advances FrameID and minislot counter by one; a
  // sending step advances the counter by the frame's minislots; the step
  // past the last FrameID or minislot ends the segment.  Only sending steps
  // have effects, and whether a step sends depends only on the CHI queues,
  // which change only in this engine's own events.  So the walker keeps
  // the next sending step as `target` and takes every step before it at
  // once, counting each one in `processed`.
  DynStep cursor;  // first step not yet taken
  DynStep target;  // next sending step, when has_target
  bool has_target = false;

  SimResult result;
  std::vector<Event> recompute_stack;   // deferred burst projections
  std::vector<std::size_t> touched_nodes;

  void push(Event e) {
    if (e.time >= horizon) return;
    e.seq = seq++;
    events.push(e);
  }

  int hop_of(std::uint32_t m) const {
    return m < options.message_hop_index.size() ? options.message_hop_index[m] : 0;
  }

  std::size_t node_of_task(std::uint32_t t) const { return index_of(app->tasks()[t].node); }

  Time next_scs_start(std::size_t node, Time now) const {
    const auto& starts = scs_starts[node];
    const auto it = std::upper_bound(starts.begin(), starts.end(), now);
    return it == starts.end() ? kTimeInfinity : *it;
  }

  void recompute_cpu(std::size_t node, Time now) {
    NodeState& cpu = cpus[node];
    ++cpu.generation;
    // Preempt whatever FPS job is in a burst; account executed time.
    if (cpu.fps_running) {
      TaskJob& job = task_jobs[cpu.running_task][cpu.running_job];
      job.remaining -= now - cpu.burst_start;
      assert(job.remaining >= 0);
      if (job.remaining > 0) {
        cpu.ready_fps.insert(ChiEntry{app->tasks()[cpu.running_task].priority, job.ready_time,
                                      cpu.running_task, cpu.running_job});
      }
      cpu.fps_running = false;
    }
    if (now < cpu.scs_busy_until) return;  // CPU held by the static table
    if (cpu.ready_fps.empty()) return;
    const ChiEntry top = *cpu.ready_fps.begin();
    cpu.ready_fps.erase(cpu.ready_fps.begin());
    TaskJob& job = task_jobs[top.message][top.job];
    cpu.fps_running = true;
    cpu.running_task = top.message;
    cpu.running_job = top.job;
    cpu.burst_start = now;
    const Time finish = now + job.remaining;
    if (finish <= next_scs_start(node, now)) {
      recompute_stack.push_back(Event{finish, EventType::FpsFinish, 0, node, top.job,
                                      cpu.generation, static_cast<std::int64_t>(top.message)});
    }
    // Otherwise the burst is cut by the next SCS start; that ScsStart event
    // triggers the next recompute.
  }

  void record_completion(ActivityRef a, std::size_t job, Time when) {
    const Time release =
        a.is_task() ? task_jobs[a.index][job].release : msg_jobs[a.index][job].release;
    const Time relative = when - release;
    Time& slot = a.is_task() ? result.task_worst_completion[a.index]
                             : result.message_worst_completion[a.index];
    slot = slot == kTimeNone ? relative : std::max(slot, relative);
  }

  /// Records the completion and propagates readiness to successor jobs.
  void complete_activity(ActivityRef a, std::size_t job, Time when) {
    record_completion(a, job, when);
    for (const ActivityRef s : app->successors(a)) {
      if (s.is_task()) {
        TaskJob& sj = task_jobs[s.index][job];
        assert(sj.preds_pending > 0);
        if (--sj.preds_pending == 0) {
          sj.ready_time = std::max(when, sj.release);
          if (app->tasks()[s.index].policy == TaskPolicy::Fps) {
            const std::size_t node = node_of_task(s.index);
            cpus[node].ready_fps.insert(
                ChiEntry{app->tasks()[s.index].priority, sj.ready_time, s.index, job});
            touched_nodes.push_back(node);
          }
        }
      } else {
        MsgJob& mj = msg_jobs[s.index][job];
        mj.sender_done = true;
        mj.ready_time = when;
        if (app->messages()[s.index].cls == MessageClass::Dynamic) {
          if (tsn != nullptr) {
            const auto port =
                static_cast<int>(tsn->egress_port(static_cast<MessageId>(s.index)));
            chi[port].insert(
                ChiEntry{tsn->config().et_priority[s.index], when, s.index, job});
            // Arm the port; ranks after every same-time completion, so the
            // service decision sees all frames that became ready at `when`.
            push(Event{when, EventType::EtPortService, 0, static_cast<std::size_t>(port), 0, 0,
                       0});
          } else {
            const int fid = layout->frame_id(static_cast<MessageId>(s.index));
            chi[fid].insert(ChiEntry{app->messages()[s.index].priority, when, s.index, job});
            // The frame is seen from the step at `when` on, since DynSlot
            // ranks after every other event of an instant.
            skip_to(when);
            find_target();
          }
        }
        // ST messages are replayed from the table; readiness is only used
        // for the precedence check at transmission time.
      }
    }
  }

  /// Applies deferred CPU recomputations and burst projections at `now`.
  void flush(Time now) {
    std::sort(touched_nodes.begin(), touched_nodes.end());
    touched_nodes.erase(std::unique(touched_nodes.begin(), touched_nodes.end()),
                        touched_nodes.end());
    for (const std::size_t node : touched_nodes) recompute_cpu(node, now);
    touched_nodes.clear();
    for (Event& e : recompute_stack) push(e);
    recompute_stack.clear();
  }

  void mark_task_ready(std::uint32_t t, std::size_t job_index, Time now) {
    TaskJob& job = task_jobs[t][job_index];
    assert(job.preds_pending > 0);
    if (--job.preds_pending == 0) {
      job.ready_time = std::max(now, job.release);
      if (app->tasks()[t].policy == TaskPolicy::Fps) {
        const std::size_t node = node_of_task(t);
        cpus[node].ready_fps.insert(
            ChiEntry{app->tasks()[t].priority, job.ready_time, t, job_index});
        touched_nodes.push_back(node);
      }
    }
  }

  /// Earliest start >= `t` on a TSN egress port such that a frame of
  /// `duration` does not overlap any gate-window occurrence — the simulation
  /// counterpart of the analysis guard band (a frame only starts if it
  /// completes before the next window opens).  Returns kTimeNone when no
  /// inter-window gap ever fits the frame (the port head-of-line blocks).
  Time next_gate_fit(std::size_t port, Time t, Time duration) const {
    const std::span<const Interval> windows = tsn->port_windows(port);
    if (windows.empty()) return t;
    Time pos = t;
    const Time give_up = t + 2 * cycle_len + duration;
    while (pos <= give_up) {
      const Time base = (pos / cycle_len) * cycle_len;
      bool moved = false;
      for (int rep = 0; rep < 2 && !moved; ++rep) {
        const Time shift = base + rep * cycle_len;
        for (const Interval& w : windows) {
          const Time open = shift + w.start;
          const Time close = shift + w.end;
          if (pos >= close) continue;          // occurrence already passed
          if (pos >= open) {                   // inside a window: step out
            pos = close;
            moved = true;
            break;
          }
          if (pos + duration <= open) return pos;  // fits before the window
          pos = close;                         // guard band: idle through it
          moved = true;
          break;
        }
      }
      if (!moved) return pos;  // nothing ahead within two cycles
    }
    return kTimeNone;  // the gaps never fit this frame
  }

  Time step_time(const DynStep& s) const {
    return s.cycle * cycle_len + layout->st_segment_len() +
           (s.counter - 1) * layout->params().gd_minislot;
  }

  /// FrameID of the step that ends the segment `s` lies in: the first one
  /// past the last FrameID or, at s's counter lead, past the last minislot.
  std::int64_t segment_end(const DynStep& s) const {
    return std::min<std::int64_t>(layout->max_frame_id(),
                                  layout->config().minislot_count - (s.counter - s.fid)) +
           1;
  }

  /// The first step at or after the cursor whose instant is not before
  /// min(t, horizon).  Every step before it must be idle.
  DynStep first_step_at(Time t) const {
    t = std::min(t, horizon);
    const Time gd = layout->params().gd_minislot;
    DynStep s = cursor;
    const Time start = step_time(s);
    if (t <= start) return s;
    if (t <= start + (segment_end(s) - s.fid) * gd) {
      const std::int64_t n = ceil_div(t - start, gd);
      return DynStep{s.cycle, s.counter + n, s.fid + static_cast<int>(n)};
    }
    // Idle segments of later cycles: one step per FrameID, then the end
    // step at offset `last` into the cycle.
    const Time last = layout->st_segment_len() + layout->max_frame_id() * gd;
    std::int64_t cycle = s.cycle + 1;
    if (t - last > cycle * cycle_len) cycle = ceil_div(t - last, cycle_len);
    s = DynStep{cycle, 1, 1};
    const Time first = step_time(s);
    if (t <= first) return s;
    const std::int64_t n = ceil_div(t - first, gd);
    return DynStep{cycle, 1 + n, 1 + static_cast<int>(n)};
  }

  /// Steps from the cursor up to `to` (exclusive), which lies in the
  /// cursor's cycle or a later one.
  std::uint64_t steps_until(const DynStep& to) const {
    if (to.cycle == cursor.cycle) return static_cast<std::uint64_t>(to.fid - cursor.fid);
    const std::int64_t rest = segment_end(cursor) - cursor.fid + 1;
    const std::int64_t whole = (to.cycle - cursor.cycle - 1) * (layout->max_frame_id() + 1);
    return static_cast<std::uint64_t>(rest + whole + to.fid - 1);
  }

  /// Takes every step before instant `t` (all idle).
  void skip_to(Time t) {
    const DynStep to = first_step_at(t);
    processed += steps_until(to);
    cursor = to;
  }

  /// The first step at or after the cursor that sends with the current
  /// queues: the first queued FrameID of the cursor's segment whose owner
  /// is still within pLatestTx there, else the first one whose owner is at
  /// the start of the next segment.  None when that lies past the horizon.
  void find_target() {
    const auto sends = [&](int fid, std::int64_t counter) {
      NodeId owner{};
      return layout->frame_id_owner(fid, &owner) && counter <= layout->p_latest_tx(owner);
    };
    const std::int64_t lead = cursor.counter - cursor.fid;
    has_target = false;
    for (auto it = chi.lower_bound(cursor.fid); it != chi.end() && !has_target; ++it) {
      if (sends(it->first, it->first + lead)) {
        target = DynStep{cursor.cycle, it->first + lead, it->first};
        has_target = true;
      }
    }
    for (auto it = chi.begin(); it != chi.end() && !has_target; ++it) {
      if (sends(it->first, it->first)) {
        target = DynStep{cursor.cycle + 1, it->first, it->first};
        has_target = true;
      }
    }
    has_target = has_target && step_time(target) < horizon;
  }

  /// True when the walker's sending step is the engine's next event.
  bool target_first() const {
    if (!has_target) return false;
    if (events.empty()) return true;
    const Time at = step_time(target);
    return at < events.top().time ||
           (at == events.top().time && EventType::DynSlot < events.top().type);
  }

  /// Takes the idle steps up to the target and the target itself: the
  /// FrameID's highest-priority frame goes on the bus.  Every queued frame
  /// is ready, since it entered its queue at an event no later than now.
  void send_target() {
    const Time now = step_time(target);
    processed += steps_until(target) + 1;
    const auto queue = chi.find(target.fid);
    const ChiEntry frame = *queue->second.begin();  // order = (priority, ready, job)
    assert(frame.ready <= now);
    queue->second.erase(queue->second.begin());
    if (queue->second.empty()) chi.erase(queue);
    const auto m = static_cast<MessageId>(frame.message);
    const Time delivery = now + layout->message_occupancy(m);
    push(Event{delivery, EventType::DynDelivery, 0, 0, frame.job, 0,
               static_cast<std::int64_t>(frame.message)});
    if (options.record_trace) {
      result.trace.push_back(TransmissionRecord{m, static_cast<int>(frame.job), true,
                                                target.fid, now / cycle_len, now, delivery,
                                                options.cluster, hop_of(frame.message)});
    }
    cursor = DynStep{target.cycle, target.counter + layout->message_minislots(m),
                     target.fid + 1};
    find_target();
  }

  void process(const Event& ev) {
    const Time now = ev.time;
    switch (ev.type) {
      case EventType::GraphRelease: {
        for (std::uint32_t t = 0; t < app->task_count(); ++t) {
          if (index_of(app->tasks()[t].graph) != ev.a) continue;
          const Time offset = app->tasks()[t].release_offset;
          if (offset > 0) {
            // Individual release time: the release token arrives later.
            push(Event{now + offset, EventType::TaskRelease, 0, 0, ev.b, 0,
                       static_cast<std::int64_t>(t)});
            continue;
          }
          mark_task_ready(t, ev.b, now);
        }
        break;
      }
      case EventType::TaskRelease: {
        mark_task_ready(static_cast<std::uint32_t>(ev.d), ev.b, now);
        break;
      }
      case EventType::ScsStart: {
        const auto t = static_cast<std::uint32_t>(ev.d);
        TaskJob& job = task_jobs[t][ev.b];
        if (job.preds_pending != 0) ++result.precedence_violations;
        NodeState& cpu = cpus[ev.a];
        const Time finish = now + app->tasks()[t].wcet;
        cpu.scs_busy_until = std::max(cpu.scs_busy_until, finish);
        touched_nodes.push_back(ev.a);
        break;
      }
      case EventType::ScsFinish: {
        const auto t = static_cast<std::uint32_t>(ev.d);
        TaskJob& job = task_jobs[t][ev.b];
        job.done = true;
        job.completion = now;
        complete_activity(ActivityRef::task(static_cast<TaskId>(t)), ev.b, now);
        touched_nodes.push_back(ev.a);
        if (hooks.task_completed) hooks.task_completed(static_cast<TaskId>(t), ev.b, now);
        break;
      }
      case EventType::FpsFinish: {
        NodeState& cpu = cpus[ev.a];
        if (ev.c != cpu.generation) break;  // stale burst projection
        const auto t = static_cast<std::uint32_t>(ev.d);
        TaskJob& job = task_jobs[t][ev.b];
        job.remaining = 0;
        job.done = true;
        job.completion = now;
        cpu.fps_running = false;
        ++cpu.generation;  // invalidate any other projection
        complete_activity(ActivityRef::task(static_cast<TaskId>(t)), ev.b, now);
        touched_nodes.push_back(ev.a);
        if (hooks.task_completed) hooks.task_completed(static_cast<TaskId>(t), ev.b, now);
        break;
      }
      case EventType::StDelivery: {
        const auto m = static_cast<std::uint32_t>(ev.d);
        MsgJob& job = msg_jobs[m][ev.b];
        if (!job.sender_done) ++result.precedence_violations;
        job.delivered = true;
        job.completion = now;
        if (options.record_trace) {
          const StReplay& r = st_replay[m][ev.b];
          result.trace.push_back(TransmissionRecord{static_cast<MessageId>(m),
                                                    static_cast<int>(ev.b), false, r.slot,
                                                    r.cycle, r.start, r.finish, options.cluster,
                                                    hop_of(m)});
        }
        complete_activity(ActivityRef::message(static_cast<MessageId>(m)), ev.b, now);
        if (hooks.message_delivered) {
          hooks.message_delivered(static_cast<MessageId>(m), ev.b, now);
        }
        break;
      }
      case EventType::DynDelivery: {
        const auto m = static_cast<std::uint32_t>(ev.d);
        MsgJob& job = msg_jobs[m][ev.b];
        job.delivered = true;
        job.completion = now;
        complete_activity(ActivityRef::message(static_cast<MessageId>(m)), ev.b, now);
        if (hooks.message_delivered) {
          hooks.message_delivered(static_cast<MessageId>(m), ev.b, now);
        }
        break;
      }
      case EventType::DynSlot:
        assert(false && "DYN steps are taken by the walker, never queued");
        break;
      case EventType::EtPortService: {
        const std::size_t port = ev.a;
        if (now < port_busy_until[port]) break;  // a service fires at busy_until
        auto& queue = chi[static_cast<int>(port)];
        // Highest-priority frame already handed to the port (multiset order
        // = priority / ready / job — FIFO among equal priorities).
        auto best = queue.end();
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (it->ready <= now) {
            best = it;
            break;
          }
        }
        if (best == queue.end()) break;  // re-armed by the next arrival
        const std::uint32_t m = best->message;
        const std::size_t job_index = best->job;
        const Time duration = tsn->duration(static_cast<MessageId>(m));
        const Time start = next_gate_fit(port, now, duration);
        if (start == kTimeNone) break;  // head-of-line blocked forever
        const Time delivery = start + duration;
        port_busy_until[port] = delivery;
        push(Event{delivery, EventType::DynDelivery, 0, 0, job_index, 0,
                   static_cast<std::int64_t>(m)});
        if (options.record_trace) {
          result.trace.push_back(TransmissionRecord{static_cast<MessageId>(m),
                                                    static_cast<int>(job_index), true,
                                                    static_cast<int>(port), start / cycle_len,
                                                    start, delivery, options.cluster, hop_of(m)});
        }
        queue.erase(best);
        // Serve the next frame once this one leaves the wire.  DynDelivery
        // ranks earlier at the same timestamp, so a successor frame enabled
        // by this delivery is already queued when the service runs.
        push(Event{delivery, EventType::EtPortService, 0, port, 0, 0, 0});
        break;
      }
    }
    flush(now);
  }
};

ClusterEngine::ClusterEngine() : impl_(new Impl) {}
ClusterEngine::~ClusterEngine() = default;

Expected<std::unique_ptr<ClusterEngine>> ClusterEngine::create(const BusLayout& layout,
                                                               const StaticSchedule& schedule,
                                                               EngineOptions options,
                                                               EngineHooks hooks) {
  return create_impl(&layout, nullptr, schedule, std::move(options), std::move(hooks));
}

Expected<std::unique_ptr<ClusterEngine>> ClusterEngine::create(const TsnLayout& layout,
                                                               const StaticSchedule& schedule,
                                                               EngineOptions options,
                                                               EngineHooks hooks) {
  return create_impl(nullptr, &layout, schedule, std::move(options), std::move(hooks));
}

Expected<std::unique_ptr<ClusterEngine>> ClusterEngine::create_impl(const BusLayout* bus,
                                                                    const TsnLayout* tsn,
                                                                    const StaticSchedule& schedule,
                                                                    EngineOptions options,
                                                                    EngineHooks hooks) {
  const Application& app = bus != nullptr ? bus->application() : tsn->application();
  const Time H = schedule.hyperperiod();
  const Time cycle_len = bus != nullptr ? bus->cycle_len() : tsn->cycle_len();

  Time horizon = options.horizon;
  if (horizon == 0) {
    if (options.hyperperiods < 1) return make_error("simulate: hyperperiods must be >= 1");
    auto scaled = checked_mul(H, options.hyperperiods);
    if (!scaled.ok()) {
      return make_error("simulate: horizon overflows the 64-bit time range (hyper-period " +
                        std::to_string(H) + " x " + std::to_string(options.hyperperiods) +
                        " hyper-periods); reduce hyperperiods or the period spread");
    }
    horizon = scaled.value();
    if (options.hyperperiods > 1 && H % cycle_len != 0) {
      // The ST table repeats every hyper-period while the DYN minislot grid
      // repeats every bus cycle; when the cycle does not divide the
      // hyper-period the two only co-terminate every lcm.  Round the
      // requested horizon up to that block so neither pattern is truncated.
      auto block = checked_lcm(H, cycle_len);
      if (!block.ok()) {
        return make_error("simulate: lcm(hyper-period " + std::to_string(H) + ", bus cycle " +
                          std::to_string(cycle_len) +
                          ") overflows the 64-bit time range — the periods and the cycle are "
                          "near-coprime; align the cycle to the period grid or simulate one "
                          "hyper-period");
      }
      auto aligned = checked_align_up(horizon, block.value());
      if (!aligned.ok()) {
        return make_error("simulate: aligning the horizon up to lcm(hyper-period, bus cycle) = " +
                          std::to_string(block.value()) +
                          " overflows the 64-bit time range; reduce hyperperiods or align the "
                          "cycle to the period grid");
      }
      horizon = aligned.value();
    }
  }
  if (horizon <= 0 || horizon % H != 0) {
    return make_error("simulate: horizon must be a positive multiple of the hyper-period");
  }
  const Time hyper_count = horizon / H;

  std::unique_ptr<ClusterEngine> engine(new ClusterEngine);
  Impl& im = *engine->impl_;
  im.layout = bus;
  im.tsn = tsn;
  im.app = &app;
  im.options = std::move(options);
  im.hooks = std::move(hooks);
  im.horizon = horizon;
  im.cycle_len = cycle_len;

  // ---- job tables ----------------------------------------------------------
  auto instances_of = [&](Time period) { return static_cast<std::size_t>(horizon / period); };
  im.task_jobs.resize(app.task_count());
  im.msg_jobs.resize(app.message_count());
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    const Time period = app.period_of(ActivityRef::task(static_cast<TaskId>(t)));
    auto& vec = im.task_jobs[t];
    vec.resize(instances_of(period));
    const std::size_t preds = app.predecessors(ActivityRef::task(static_cast<TaskId>(t))).size();
    for (std::size_t k = 0; k < vec.size(); ++k) {
      vec[k].release = static_cast<Time>(k) * period;
      vec[k].preds_pending = preds + 1;  // +1: the graph-release token
      vec[k].remaining = app.tasks()[t].wcet;
    }
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    const Time period = app.period_of(ActivityRef::message(static_cast<MessageId>(m)));
    auto& vec = im.msg_jobs[m];
    vec.resize(instances_of(period));
    for (std::size_t k = 0; k < vec.size(); ++k) {
      vec[k].release = static_cast<Time>(k) * period;
    }
  }

  // ---- initial event population -------------------------------------------
  // Graph releases.
  for (std::uint32_t g = 0; g < app.graph_count(); ++g) {
    const Time period = app.graphs()[g].period;
    for (Time r = 0; r < horizon; r += period) {
      im.push(Event{r, EventType::GraphRelease, 0, g, static_cast<std::size_t>(r / period), 0, 0});
    }
  }

  // SCS table entries, repeated every hyper-period.
  im.scs_starts.resize(app.node_count());
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    if (app.tasks()[t].policy != TaskPolicy::Scs) continue;
    const std::size_t node = index_of(app.tasks()[t].node);
    const std::size_t per_h = schedule.task_entries(static_cast<TaskId>(t)).size();
    for (Time j = 0; j < hyper_count; ++j) {
      const Time shift = j * H;
      for (const ScheduledTask& e : schedule.task_entries(static_cast<TaskId>(t))) {
        const std::size_t job =
            static_cast<std::size_t>(e.instance) + per_h * static_cast<std::size_t>(j);
        im.push(Event{e.start + shift, EventType::ScsStart, 0, node, job, 0,
                      static_cast<std::int64_t>(t)});
        im.push(Event{e.finish + shift, EventType::ScsFinish, 0, node, job, 0,
                      static_cast<std::int64_t>(t)});
        im.scs_starts[node].push_back(e.start + shift);
      }
    }
  }
  for (auto& starts : im.scs_starts) std::sort(starts.begin(), starts.end());

  // ST message deliveries replayed from the table (hyper-period-periodic,
  // exactly the analysis model of the static segment).
  im.st_replay.resize(app.message_count());
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls != MessageClass::Static) continue;
    const std::size_t per_h = schedule.message_entries(static_cast<MessageId>(m)).size();
    im.st_replay[m].resize(im.msg_jobs[m].size());
    for (Time j = 0; j < hyper_count; ++j) {
      const Time shift = j * H;
      for (const ScheduledMessage& e : schedule.message_entries(static_cast<MessageId>(m))) {
        const std::size_t job =
            static_cast<std::size_t>(e.instance) + per_h * static_cast<std::size_t>(j);
        if (job >= im.msg_jobs[m].size()) continue;
        im.st_replay[m][job] =
            StReplay{e.start + shift, e.finish + shift, (e.start + shift) / cycle_len, e.slot};
        im.push(Event{e.finish + shift, EventType::StDelivery, 0, 0, job, 0,
                      static_cast<std::int64_t>(m)});
      }
    }
  }

  im.cpus.resize(app.node_count());
  im.port_busy_until.assign(app.node_count(), 0);
  im.result.task_worst_completion.assign(app.task_count(), kTimeNone);
  im.result.message_worst_completion.assign(app.message_count(), kTimeNone);
  return engine;
}

bool ClusterEngine::done() const { return impl_->events.empty() && !impl_->has_target; }

Time ClusterEngine::next_time() const {
  const Impl& im = *impl_;
  if (im.target_first()) return im.step_time(im.target);
  return im.events.empty() ? kTimeInfinity : im.events.top().time;
}

int ClusterEngine::next_order() const {
  const Impl& im = *impl_;
  if (im.target_first()) return static_cast<int>(EventType::DynSlot);
  return im.events.empty() ? static_cast<int>(EventType::EtPortService) + 1
                           : static_cast<int>(im.events.top().type);
}

void ClusterEngine::process_next() {
  Impl& im = *impl_;
  if (im.target_first()) {
    im.send_target();
    return;
  }
  assert(!im.events.empty());
  const Event ev = im.events.top();
  im.events.pop();
  ++im.processed;
  ++im.queued;
  im.process(ev);
}

void ClusterEngine::gate_task(TaskId task) {
  for (TaskJob& job : impl_->task_jobs[index_of(task)]) ++job.preds_pending;
}

void ClusterEngine::release_gated(TaskId task, std::size_t job, Time now) {
  Impl& im = *impl_;
  if (job >= im.task_jobs[index_of(task)].size()) return;
  im.mark_task_ready(static_cast<std::uint32_t>(index_of(task)), job, now);
  im.flush(now);
}

Time ClusterEngine::horizon() const { return impl_->horizon; }

std::uint64_t ClusterEngine::events_processed() const {
  const Impl& im = *impl_;
  if (im.layout == nullptr || im.layout->max_frame_id() == 0) return im.processed;  // no DYN walk
  // Idle steps before the next event are taken, up to the horizon when done.
  return im.processed + im.steps_until(im.first_step_at(next_time()));
}

std::uint64_t ClusterEngine::queued_events() const { return impl_->queued; }

SimResult ClusterEngine::finish() {
  Impl& im = *impl_;
  for (const auto& vec : im.task_jobs) {
    for (const auto& j : vec) {
      if (!j.done) ++im.result.unfinished_jobs;
    }
  }
  for (const auto& vec : im.msg_jobs) {
    for (const auto& j : vec) {
      if (!j.delivered) ++im.result.unfinished_jobs;
    }
  }
  return std::move(im.result);
}

}  // namespace flexopt
