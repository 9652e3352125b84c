#include "flexopt/netsim/netsim.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "flexopt/math/hyperperiod.hpp"
#include "flexopt/math/stats.hpp"
#include "flexopt/sim/engine.hpp"

namespace flexopt {
namespace {

constexpr std::uint32_t kNoGlobal = std::numeric_limits<std::uint32_t>::max();

/// Where a cluster-local message sits in a global message's route.
struct HopRef {
  std::uint32_t global = kNoGlobal;
  int hop = 0;
  bool final_hop = false;
};

/// One gateway transition's runtime state: the bounded forwarding queue of
/// the router object plus the per-job times the trace builder needs.
struct RouterState {
  int depth = 0;
  GatewayStats stats;
  std::vector<Time> arrival;   ///< per job: upstream hop frame delivered
  std::vector<Time> forwarded; ///< per job: downstream forwarding relay done
};

LatencyStat make_latency_stat(std::vector<double>& samples) {
  LatencyStat stat;
  if (samples.empty()) return stat;
  // One sort feeds both quantiles; percentile() would re-copy and re-sort
  // the sample per call.  percentile_sorted's p50 equals the true median
  // for even sample counts too (see math/stats.hpp).
  std::sort(samples.begin(), samples.end());
  const Summary summary = summarize(samples);
  stat.count = summary.count;
  stat.min = summary.min;
  stat.mean = summary.mean;
  stat.max = summary.max;
  stat.p50 = percentile_sorted(samples, 50.0);
  stat.p99 = percentile_sorted(samples, 99.0);
  return stat;
}

}  // namespace

Expected<NetSimResult> simulate_network(const SystemModel& model,
                                        std::span<const ClusterLayout> layouts,
                                        const MulticlusterResult& analysis,
                                        const NetSimOptions& options) {
  const std::size_t clusters = model.cluster_count();
  if (layouts.size() != clusters || analysis.clusters.size() != clusters) {
    return make_error("simulate_network: layouts/analysis do not match the model");
  }
  if (options.hyperperiods < 1) {
    return make_error("simulate_network: hyperperiods must be >= 1");
  }
  const Application& global = *model.global();
  const Time H = analysis.clusters[0].schedule().hyperperiod();

  // One shared horizon: every projection carries every graph, so all
  // clusters agree on H and job tables stay index-compatible.  For multi
  // hyper-period runs, align up so every cluster's cycle grid and the ST
  // tables co-terminate.
  auto scaled = checked_mul(H, options.hyperperiods);
  if (!scaled.ok()) {
    return make_error("simulate_network: horizon overflows the 64-bit time range (hyper-period " +
                      std::to_string(H) + " x " + std::to_string(options.hyperperiods) +
                      " hyper-periods); reduce hyperperiods or the period spread");
  }
  Time horizon = scaled.value();
  if (options.hyperperiods > 1) {
    Time block = H;
    for (const ClusterLayout& layout : layouts) {
      auto lcm = checked_lcm(block, layout.cycle_len());
      if (!lcm.ok()) {
        return make_error(
            "simulate_network: lcm of the hyper-period and the cluster cycles overflows the "
            "64-bit time range — near-coprime cycle lengths; align the cycles to the period "
            "grid or simulate one hyper-period");
      }
      block = lcm.value();
    }
    auto aligned = checked_align_up(horizon, block);
    if (!aligned.ok()) {
      return make_error("simulate_network: aligning the horizon up to the common cycle block " +
                        std::to_string(block) +
                        " overflows the 64-bit time range; reduce hyperperiods or align the "
                        "cluster cycles to the period grid");
    }
    horizon = aligned.value();
  }

  // ---- static routing tables ----------------------------------------------
  // Local task -> global task (kNoGlobal for relay tasks).
  std::vector<std::vector<std::uint32_t>> task_global(clusters);
  // Local task -> relay link it is the upstream receive / downstream
  // forwarding relay of (one past link count = none).
  const std::size_t no_link = model.relay_links().size();
  std::vector<std::vector<std::size_t>> recv_link(clusters), send_link(clusters);
  // Local message -> position in its global message's route.
  std::vector<std::vector<HopRef>> hop_ref(clusters);
  // Local message ordinal along the route, for TransmissionRecord stamps.
  std::vector<std::vector<int>> hop_index(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    const Application& app = *model.cluster_app(c);
    task_global[c].assign(app.task_count(), kNoGlobal);
    recv_link[c].assign(app.task_count(), no_link);
    send_link[c].assign(app.task_count(), no_link);
    hop_ref[c].assign(app.message_count(), HopRef{});
    hop_index[c].assign(app.message_count(), 0);
  }
  for (std::uint32_t t = 0; t < global.task_count(); ++t) {
    const LocalActivity& local = model.local_task(static_cast<TaskId>(t));
    task_global[local.cluster][local.index] = t;
  }
  for (std::uint32_t m = 0; m < global.message_count(); ++m) {
    const auto& hops = model.message_hops(static_cast<MessageId>(m));
    for (std::size_t j = 0; j < hops.size(); ++j) {
      HopRef& ref = hop_ref[hops[j].cluster][hops[j].index];
      ref.global = m;
      ref.hop = static_cast<int>(j);
      ref.final_hop = j + 1 == hops.size();
      hop_index[hops[j].cluster][hops[j].index] = static_cast<int>(j);
    }
  }
  // Hop message delivered on the upstream bus -> which transition's router
  // receives the frame.
  std::vector<std::vector<std::size_t>> msg_link(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    msg_link[c].assign(model.cluster_app(c)->message_count(), no_link);
  }
  std::vector<RouterState> routers(model.relay_links().size());
  for (std::size_t l = 0; l < model.relay_links().size(); ++l) {
    const RelayLink& link = model.relay_links()[l];
    recv_link[link.upstream_cluster][index_of(link.upstream_recv)] = l;
    send_link[link.downstream_cluster][index_of(link.downstream_send)] = l;
    const auto& hops = model.message_hops(link.global_message);
    msg_link[link.upstream_cluster][hops[link.transition].index] = l;
    RouterState& router = routers[l];
    router.stats.gateway = link.gateway;
    router.stats.from_cluster = link.upstream_cluster;
    router.stats.to_cluster = link.downstream_cluster;
    const Time period =
        global.period_of(ActivityRef::message(link.global_message));
    const std::size_t jobs = static_cast<std::size_t>(horizon / period);
    router.arrival.assign(jobs, kTimeNone);
    router.forwarded.assign(jobs, kTimeNone);
  }

  // ---- engines -------------------------------------------------------------
  NetSimResult result;
  result.horizon = horizon;
  result.task_worst_completion.assign(global.task_count(), kTimeNone);
  result.message_worst_completion.assign(global.message_count(), kTimeNone);
  std::vector<std::vector<double>> task_samples(global.task_count());
  std::vector<std::vector<double>> message_samples(global.message_count());

  std::vector<std::unique_ptr<ClusterEngine>> engines(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    EngineOptions engine_options;
    engine_options.horizon = horizon;
    engine_options.record_trace = options.record_trace;
    engine_options.cluster = static_cast<std::uint32_t>(c);
    engine_options.message_hop_index = hop_index[c];

    EngineHooks hooks;
    hooks.task_completed = [&, c](TaskId task, std::size_t job, Time when) {
      const std::uint32_t local = static_cast<std::uint32_t>(index_of(task));
      const std::uint32_t g = task_global[c][local];
      if (g != kNoGlobal) {
        const Time release =
            static_cast<Time>(job) *
            model.cluster_app(c)->period_of(ActivityRef::task(task));
        task_samples[g].push_back(static_cast<double>(when - release));
      }
      const std::size_t recv = recv_link[c][local];
      if (recv != no_link) {
        // Upstream receive relay done: release the gated forwarding relay
        // of the same job in the downstream cluster.
        const RelayLink& link = model.relay_links()[recv];
        engines[link.downstream_cluster]->release_gated(link.downstream_send, job, when);
      }
      const std::size_t send = send_link[c][local];
      if (send != no_link) {
        // Forwarding relay done: the frame left this router's queue.
        RouterState& router = routers[send];
        --router.depth;
        ++router.stats.forwarded;
        if (job < router.forwarded.size()) router.forwarded[job] = when;
      }
    };
    hooks.message_delivered = [&, c](MessageId message, std::size_t job, Time when) {
      const std::uint32_t local = static_cast<std::uint32_t>(index_of(message));
      const HopRef& ref = hop_ref[c][local];
      if (ref.global != kNoGlobal && ref.final_hop) {
        const Time release =
            static_cast<Time>(job) *
            model.cluster_app(c)->period_of(ActivityRef::message(message));
        message_samples[ref.global].push_back(static_cast<double>(when - release));
      }
      const std::size_t l = msg_link[c][local];
      if (l != no_link) {
        // The hop frame reached the gateway port: enqueue for forwarding.
        RouterState& router = routers[l];
        if (router.depth >= options.gateway_queue_capacity) ++router.stats.overflows;
        ++router.depth;
        router.stats.max_queue_depth = std::max(router.stats.max_queue_depth, router.depth);
        if (job < router.arrival.size()) router.arrival[job] = when;
      }
    };

    auto engine =
        layouts[c].kind() == ClusterBackendKind::Tsn
            ? ClusterEngine::create(layouts[c].tsn(), analysis.clusters[c].schedule(),
                                    std::move(engine_options), std::move(hooks))
            : ClusterEngine::create(layouts[c].flexray(), analysis.clusters[c].schedule(),
                                    std::move(engine_options), std::move(hooks));
    if (!engine.ok()) return engine.error();
    engines[c] = std::move(engine).value();
  }

  // Gate every forwarding relay: its trigger (the upstream receive relay)
  // lives in another cluster, so the projection gives it no predecessor.
  for (const RelayLink& link : model.relay_links()) {
    engines[link.downstream_cluster]->gate_task(link.downstream_send);
  }

  // ---- merged event loop ---------------------------------------------------
  // Global order: (time, engine event rank, cluster index) — within one
  // engine this is exactly its stand-alone order, so the single-cluster
  // network degenerates to simulate().
  while (true) {
    std::size_t best = clusters;
    Time best_time = kTimeInfinity;
    int best_order = 0;
    for (std::size_t c = 0; c < clusters; ++c) {
      if (engines[c]->done()) continue;
      const Time t = engines[c]->next_time();
      const int order = engines[c]->next_order();
      if (best == clusters || t < best_time || (t == best_time && order < best_order)) {
        best = c;
        best_time = t;
        best_order = order;
      }
    }
    if (best == clusters) break;
    engines[best]->process_next();
  }

  // ---- aggregation ---------------------------------------------------------
  result.clusters.reserve(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    result.events += engines[c]->events_processed();
    result.queued_events += engines[c]->queued_events();
    SimResult cluster_result = engines[c]->finish();
    cluster_result.horizon = horizon;
    result.unfinished_jobs += cluster_result.unfinished_jobs;
    result.precedence_violations += cluster_result.precedence_violations;
    result.clusters.push_back(std::move(cluster_result));
  }
  for (std::uint32_t t = 0; t < global.task_count(); ++t) {
    const LocalActivity& local = model.local_task(static_cast<TaskId>(t));
    result.task_worst_completion[t] =
        result.clusters[local.cluster].task_worst_completion[local.index];
  }
  for (std::uint32_t m = 0; m < global.message_count(); ++m) {
    const auto& hops = model.message_hops(static_cast<MessageId>(m));
    const LocalActivity& last = hops.back();
    result.message_worst_completion[m] =
        result.clusters[last.cluster].message_worst_completion[last.index];
  }
  result.task_latency.resize(global.task_count());
  result.message_latency.resize(global.message_count());
  for (std::uint32_t t = 0; t < global.task_count(); ++t) {
    result.task_latency[t] = make_latency_stat(task_samples[t]);
  }
  for (std::uint32_t m = 0; m < global.message_count(); ++m) {
    result.message_latency[m] = make_latency_stat(message_samples[m]);
  }
  for (const RouterState& router : routers) result.gateways.push_back(router.stats);

  // ---- per-hop traces ------------------------------------------------------
  if (options.record_trace) {
    // Transmissions by (cluster, local message, instance).
    std::vector<std::map<std::pair<std::uint32_t, int>, const TransmissionRecord*>> index(
        clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
      for (const TransmissionRecord& record : result.clusters[c].trace) {
        index[c][{static_cast<std::uint32_t>(index_of(record.message)), record.instance}] =
            &record;
      }
    }
    for (std::uint32_t m = 0; m < global.message_count(); ++m) {
      const auto& hops = model.message_hops(static_cast<MessageId>(m));
      const Time period = global.period_of(ActivityRef::message(static_cast<MessageId>(m)));
      const std::size_t jobs = static_cast<std::size_t>(horizon / period);
      for (std::size_t k = 0; k < jobs; ++k) {
        MessageTrace trace;
        trace.message = static_cast<MessageId>(m);
        trace.instance = static_cast<int>(k);
        Time previous_finish = static_cast<Time>(k) * period;
        for (std::size_t j = 0; j < hops.size(); ++j) {
          const auto it = index[hops[j].cluster].find({hops[j].index, static_cast<int>(k)});
          if (it == index[hops[j].cluster].end()) break;  // undelivered within horizon
          const TransmissionRecord& record = *it->second;
          HopRecord hop;
          hop.cluster = hops[j].cluster;
          hop.hop_index = static_cast<int>(j);
          hop.enter = previous_finish;
          if (j > 0) {
            const std::size_t l = msg_link[hops[j - 1].cluster][hops[j - 1].index];
            const Time done = l != no_link && k < routers[l].forwarded.size()
                                  ? routers[l].forwarded[k]
                                  : kTimeNone;
            hop.gateway_wait = done == kTimeNone ? 0 : done - hop.enter;
          }
          hop.bus_start = record.start;
          hop.bus_finish = record.finish;
          hop.slot = record.slot;
          hop.dynamic = record.dynamic;
          previous_finish = record.finish;
          trace.hops.push_back(hop);
        }
        if (!trace.hops.empty()) result.traces.push_back(std::move(trace));
      }
    }
  }
  return result;
}

SoundnessReport check_soundness(const SystemModel& model, const MulticlusterResult& analysis,
                                const NetSimResult& observed) {
  SoundnessReport report;
  double gap_sum = 0.0;
  report.min_gap = std::numeric_limits<double>::infinity();
  auto check = [&](std::uint32_t cluster, bool is_task, const std::string& name, Time seen,
                   Time bound) {
    if (seen == kTimeNone) return;
    ++report.checked;
    if (seen > bound) {
      report.sound = false;
      report.violations.push_back(
          SoundnessViolation{cluster, is_task, name, seen, bound});
    }
    if (bound > 0 && bound != kTimeInfinity) {
      const double gap =
          static_cast<double>(bound - seen) / static_cast<double>(bound);
      gap_sum += gap;
      report.min_gap = std::min(report.min_gap, gap);
      ++report.gap_samples;
    }
  };
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    const Application& app = *model.cluster_app(c);
    const AnalysisResult& bounds = analysis.clusters[c];
    const SimResult& seen = observed.clusters[c];
    for (std::uint32_t t = 0; t < app.task_count(); ++t) {
      check(static_cast<std::uint32_t>(c), true, app.tasks()[t].name,
            seen.task_worst_completion[t], bounds.task_completion[t]);
    }
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      check(static_cast<std::uint32_t>(c), false, app.messages()[m].name,
            seen.message_worst_completion[m], bounds.message_completion[m]);
    }
  }
  report.mean_gap = report.gap_samples > 0 ? gap_sum / static_cast<double>(report.gap_samples)
                                           : 0.0;
  if (report.gap_samples == 0) report.min_gap = 0.0;
  return report;
}

}  // namespace flexopt
