#include "flexopt/analysis/tsn_analysis.hpp"

#include <algorithm>
#include <string>

#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

Expected<bool> TsnLayout::assign(const Application& app, const TsnConfig& config) {
  if (!app.finalized()) return make_error("TsnLayout requires a finalized application");
  if (config.cycle <= 0) return make_error("tsn config: gating cycle must be positive");
  if (config.link_rate_mbps <= 0) return make_error("tsn config: link rate must be positive");
  const std::size_t M = app.message_count();
  if (config.gates.size() != M || config.et_priority.size() != M) {
    return make_error("tsn config: gate and priority tables must have one entry per message (" +
                      std::to_string(M) + " message(s), " + std::to_string(config.gates.size()) +
                      " gate(s), " + std::to_string(config.et_priority.size()) + " priorities)");
  }
  // The gate pattern must repeat within the hyper-period so that replaying
  // the schedule table per hyper-period (simulator) keeps every ST frame
  // inside a gate occurrence.
  const auto hp = app.hyperperiod();
  if (!hp.ok()) return hp.error();
  if (hp.value() % config.cycle != 0) {
    return make_error("tsn config: gating cycle " + format_time(config.cycle) +
                      " must divide the hyper-period " + format_time(hp.value()));
  }

  app_ = &app;
  config_ = config;
  durations_.resize(M);
  egress_port_.resize(M);
  st_ordinal_.resize(M);
  const std::size_t N = app.node_count();
  port_windows_.resize(N);
  for (auto& w : port_windows_) w.clear();
  port_closed_.assign(N, 0);
  port_max_et_.assign(N, 0);

  int st_count = 0;
  for (std::uint32_t m = 0; m < M; ++m) {
    const Message& msg = app.messages()[m];
    durations_[m] = tsn_frame_duration(msg.size_bytes, config.link_rate_mbps);
    const std::size_t port = index_of(app.task(msg.receiver).node);
    egress_port_[m] = port;
    const TsnGateWindow& gate = config.gates[m];
    if (msg.cls == MessageClass::Static) {
      st_ordinal_[m] = st_count++;
      if (gate.offset < 0 || gate.length < durations_[m]) {
        return make_error("tsn config: ST message '" + msg.name + "' needs a gate window of at "
                          "least its frame duration " + format_time(durations_[m]));
      }
      if (gate.offset + gate.length > config_.cycle) {
        return make_error("tsn config: gate window of ST message '" + msg.name +
                          "' exceeds the gating cycle");
      }
      port_windows_[port].push_back(Interval{gate.offset, gate.offset + gate.length});
      port_closed_[port] += gate.length;
    } else {
      st_ordinal_[m] = -1;
      if (gate.offset != 0 || gate.length != 0) {
        return make_error("tsn config: ET message '" + msg.name +
                          "' must have the zero gate window");
      }
      port_max_et_[port] = std::max(port_max_et_[port], durations_[m]);
    }
  }

  for (std::size_t n = 0; n < N; ++n) {
    auto& windows = port_windows_[n];
    std::sort(windows.begin(), windows.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
      if (windows[i].end > windows[i + 1].start) {
        return make_error("tsn config: gate windows overlap on the egress port of node '" +
                          app.nodes()[n].name + "'");
      }
    }
  }
  return true;
}

Expected<TsnLayout> TsnLayout::build(const Application& app, TsnConfig config) {
  TsnLayout layout;
  auto assigned = layout.assign(app, config);
  if (!assigned.ok()) return assigned.error();
  return layout;
}

Expected<StaticSchedule> build_tsn_schedule(const TsnLayout& layout,
                                            const SchedulerOptions& options) {
  const Application& app = layout.application();
  const auto hp = app.hyperperiod();
  if (!hp.ok()) return hp.error();
  const Time H = hp.value();
  const Time cycle = layout.cycle_len();

  StaticSchedule schedule(H, app.node_count(), app.task_count(), app.message_count());
  // Per-node busy intervals of already-placed SCS instances, sorted by start
  // (gate windows reserve the egress link, not the CPU, so tasks ignore
  // them).
  std::vector<std::vector<Interval>> busy(app.node_count());
  std::vector<std::vector<Time>> task_finish(app.task_count());
  std::vector<std::vector<Time>> msg_finish(app.message_count());

  // TT predecessors of TT activities are themselves TT (finalize() enforces
  // it) and precedence never crosses graphs, so instance k of an activity
  // depends exactly on instance k of each predecessor, already placed by the
  // topological sweep.
  auto finish_of = [&](ActivityRef p, std::size_t k) {
    return p.is_task() ? task_finish[p.index][k] : msg_finish[p.index][k];
  };

  for (const ActivityRef a : app.topological_order()) {
    const Time period = app.period_of(a);
    const std::size_t instances = static_cast<std::size_t>(H / period);
    if (a.is_task()) {
      const Task& task = app.task(a.as_task());
      if (task.policy != TaskPolicy::Scs) continue;
      auto& fin = task_finish[a.index];
      fin.resize(instances);
      auto& node_busy = busy[index_of(task.node)];
      for (std::size_t k = 0; k < instances; ++k) {
        const Time release = static_cast<Time>(k) * period;
        Time ready = release + task.release_offset;
        for (const ActivityRef p : app.predecessors(a)) {
          ready = std::max(ready, finish_of(p, k));
        }
        // ASAP placement into the earliest idle gap of the node.
        Time start = ready;
        for (const Interval& iv : node_busy) {
          if (iv.end <= start) continue;
          if (iv.start >= start + task.wcet) break;
          start = iv.end;
        }
        const Interval placed{start, start + task.wcet};
        node_busy.insert(std::upper_bound(node_busy.begin(), node_busy.end(), placed,
                                          [](const Interval& x, const Interval& y) {
                                            return x.start < y.start;
                                          }),
                         placed);
        fin[k] = placed.end;
        schedule.add_task_entry(
            ScheduledTask{a.as_task(), static_cast<int>(k), release, placed.start, placed.end},
            index_of(task.node));
      }
    } else {
      const Message& msg = app.message(a.as_message());
      if (msg.cls != MessageClass::Static) continue;
      const TsnGateWindow& gate = layout.config().gates[a.index];
      const Time duration = layout.duration(a.as_message());
      auto& fin = msg_finish[a.index];
      fin.resize(instances);
      std::int64_t last_occ = -1;
      for (std::size_t k = 0; k < instances; ++k) {
        const Time release = static_cast<Time>(k) * period;
        Time ready = release;
        for (const ActivityRef p : app.predecessors(a)) {
          ready = std::max(ready, finish_of(p, k));
        }
        // First gate occurrence at or after readiness; consecutive
        // instances take distinct occurrences.
        std::int64_t occ =
            ready <= gate.offset ? 0 : (ready - gate.offset + cycle - 1) / cycle;
        occ = std::max(occ, last_occ + 1);
        const Time start = gate.offset + occ * cycle;
        if (start - ready > static_cast<Time>(options.max_slot_search_cycles) * cycle) {
          return make_error("tsn schedule: no gate occurrence for ST message '" + msg.name +
                            "' within " + std::to_string(options.max_slot_search_cycles) +
                            " gating cycles of its readiness");
        }
        last_occ = occ;
        fin[k] = start + duration;
        schedule.add_message_entry(ScheduledMessage{a.as_message(), static_cast<int>(k), release,
                                                    occ, layout.st_ordinal(a.as_message()), start,
                                                    fin[k]});
      }
    }
  }
  schedule.finalize();
  return schedule;
}

namespace {

/// Interference geometry of one ET message on its egress port, fixed across
/// holistic iterations.
struct EtInterference {
  std::vector<std::uint32_t> higher;  ///< same-port ET messages with prio <= own (mutual at ties)
  Time blocking = 0;                  ///< longest lower-priority same-port ET frame
};

/// Jitter-aware non-preemptive strict-priority response-time bound on one
/// egress port (the CAN-style busy-window recurrence), inflated per
/// gate-closure occurrence by the closure length plus one guard-band idle.
/// Monotone in every jitter; kTimeInfinity past the horizon or when the
/// bound exceeds the message period (more than one pending own instance).
Time tsn_et_response_time(const TsnLayout& layout, MessageId m, const EtInterference& et,
                          const std::vector<Time>& message_jitter, Time horizon,
                          int* fp_iterations) {
  const Application& app = layout.application();
  const Time J = message_jitter[index_of(m)];
  if (is_infinite(J)) return kTimeInfinity;
  const Time C = layout.duration(m);
  const Time T = app.period_of(ActivityRef::message(m));
  const Time cycle = layout.cycle_len();
  const std::size_t port = layout.egress_port(m);
  // Per closure-coverage unit: the windows' closed time plus one guard-band
  // idle per window (a queued frame never starts unless it completes before
  // the next gate opening, so each closure wastes at most one longest-ET
  // head-of-line frame of idle time).
  const Time inflate =
      layout.port_closed_per_cycle(port) +
      static_cast<Time>(layout.port_windows(port).size()) * layout.port_max_et_frame(port);

  Time w = 0;
  for (;;) {
    if (fp_iterations != nullptr) ++*fp_iterations;
    Time next = et.blocking;
    if (inflate > 0) {
      // A window of length w overlaps at most ceil(w / cycle) + 1 <=
      // w / cycle + 2 occurrences of each gate window.
      next = sat_add(next, sat_mul(inflate, w / cycle + 2));
    }
    for (const std::uint32_t j : et.higher) {
      const Time Jj = message_jitter[j];
      if (is_infinite(Jj)) return kTimeInfinity;
      const Time Tj = app.period_of(ActivityRef::message(static_cast<MessageId>(j)));
      const std::int64_t n = (w + Jj) / Tj + 1;
      next = sat_add(next, sat_mul(layout.duration(static_cast<MessageId>(j)), n));
    }
    if (next > horizon || is_infinite(next)) return kTimeInfinity;
    if (next == w) break;
    w = next;
  }
  const Time response = sat_add(J, sat_add(w, C));
  // The busy-window argument covers one pending instance per message; a
  // response beyond the period invalidates that, so report unbounded.
  if (response > T) return kTimeInfinity;
  return response;
}

}  // namespace

Expected<AnalysisResult> analyze_tsn_cluster(const TsnLayout& layout,
                                             const AnalysisOptions& options,
                                             AnalysisWorkCounters* counters,
                                             std::span<const Time> external_task_jitter) {
  const Application& app = layout.application();
  const auto horizon_result = analysis_horizon(app);
  if (!horizon_result.ok()) return horizon_result.error();
  const Time horizon = horizon_result.value();

  if (counters != nullptr) ++counters->schedule_builds;
  auto schedule_result = build_tsn_schedule(layout, options.scheduler);
  if (!schedule_result.ok()) return schedule_result.error();

  // The holistic iteration below has analyze_system's semantics (see
  // incremental.hpp) in plain Jacobi form — same cold start, same jitter
  // propagation, same divergence pinning — with the DYN-segment step
  // replaced by the per-egress-port strict-priority bound.  Keeping the
  // semantics identical is what makes the cross-cluster Jacobi iteration
  // backend-agnostic.
  AnalysisResult result;
  result.schedule_ptr = std::make_shared<const StaticSchedule>(std::move(schedule_result).value());
  const StaticSchedule& schedule = *result.schedule_ptr;
  result.task_completion.assign(app.task_count(), 0);
  result.message_completion.assign(app.message_count(), 0);
  result.task_jitter.assign(app.task_count(), 0);
  result.message_jitter.assign(app.message_count(), 0);

  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    if (app.tasks()[t].policy == TaskPolicy::Scs) {
      result.task_completion[t] = schedule.task_wcrt(static_cast<TaskId>(t));
    }
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Static) {
      result.message_completion[m] = schedule.message_wcrt(static_cast<MessageId>(m));
    }
  }

  auto completion_of = [&](ActivityRef a) {
    return a.is_task() ? result.task_completion[a.index] : result.message_completion[a.index];
  };

  std::vector<std::vector<FpsTaskParams>> fps_on_node(app.node_count());
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    const Task& task = app.tasks()[t];
    if (task.policy != TaskPolicy::Fps) continue;
    fps_on_node[index_of(task.node)].push_back(FpsTaskParams{
        static_cast<TaskId>(t), task.wcet, app.graph(task.graph).period, 0, task.priority});
  }

  // Per-ET-message interference sets (fixed geometry across iterations).
  std::vector<EtInterference> et_sets(app.message_count());
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls != MessageClass::Dynamic) continue;
    EtInterference& et = et_sets[m];
    const std::size_t port = layout.egress_port(static_cast<MessageId>(m));
    const int prio = layout.config().et_priority[m];
    for (std::uint32_t j = 0; j < app.message_count(); ++j) {
      if (j == m || app.messages()[j].cls != MessageClass::Dynamic) continue;
      if (layout.egress_port(static_cast<MessageId>(j)) != port) continue;
      if (layout.config().et_priority[j] <= prio) {
        et.higher.push_back(j);
      } else {
        et.blocking = std::max(et.blocking, layout.duration(static_cast<MessageId>(j)));
      }
    }
  }

  bool converged = false;
  int fp_iterations = 0;
  int* const fp_out = counters != nullptr ? &fp_iterations : nullptr;
  for (int iter = 0; iter < options.max_holistic_iterations && !converged; ++iter) {
    if (counters != nullptr) ++counters->holistic_iterations;
    bool changed = false;

    // 1. Jitters of ET activities from predecessor completions.
    for (const ActivityRef a : app.topological_order()) {
      const bool is_et = a.is_task() ? app.task(a.as_task()).policy == TaskPolicy::Fps
                                     : app.message(a.as_message()).cls == MessageClass::Dynamic;
      if (!is_et) continue;
      Time jitter = a.is_task() ? app.task(a.as_task()).release_offset : 0;
      if (a.is_task() && a.index < external_task_jitter.size()) {
        const Time ext = external_task_jitter[a.index];
        jitter = is_infinite(ext) || is_infinite(jitter) ? kTimeInfinity : std::max(jitter, ext);
      }
      for (const ActivityRef p : app.predecessors(a)) {
        const Time pc = completion_of(p);
        jitter = is_infinite(pc) || is_infinite(jitter) ? kTimeInfinity : std::max(jitter, pc);
      }
      auto& slot = a.is_task() ? result.task_jitter[a.index] : result.message_jitter[a.index];
      if (slot != jitter) {
        slot = jitter;
        changed = true;
      }
    }

    // 2. FPS task response times per node (CPU scheduling is backend
    //    independent).
    for (std::size_t n = 0; n < app.node_count(); ++n) {
      auto& params = fps_on_node[n];
      for (auto& p : params) p.jitter = result.task_jitter[index_of(p.id)];
      const BusyProfile& profile = schedule.node_profile(n);
      for (const auto& p : params) {
        if (counters != nullptr) ++counters->fps_analyses;
        const Time r = fps_response_time(p, params, profile, horizon, fp_out);
        if (result.task_completion[index_of(p.id)] != r) {
          result.task_completion[index_of(p.id)] = r;
          changed = true;
        }
      }
    }

    // 3. ET message response times per egress port.
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls != MessageClass::Dynamic) continue;
      if (counters != nullptr) ++counters->dyn_analyses;
      const Time r = tsn_et_response_time(layout, static_cast<MessageId>(m), et_sets[m],
                                          result.message_jitter, horizon, fp_out);
      if (result.message_completion[m] != r) {
        result.message_completion[m] = r;
        changed = true;
      }
    }

    converged = !changed;
  }

  result.converged = converged;
  if (counters != nullptr) {
    counters->fixed_point_iterations += static_cast<std::uint64_t>(fp_iterations);
  }
  if (!converged) {
    for (std::uint32_t t = 0; t < app.task_count(); ++t) {
      if (app.tasks()[t].policy == TaskPolicy::Fps) result.task_completion[t] = kTimeInfinity;
    }
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls == MessageClass::Dynamic) {
        result.message_completion[m] = kTimeInfinity;
      }
    }
  }

  result.cost = evaluate_cost(app, result.task_completion, result.message_completion);
  return result;
}

}  // namespace flexopt
