#include "flexopt/core/config_builder.hpp"

#include <algorithm>
#include <numeric>

namespace flexopt {

std::vector<int> assign_frame_ids_by_criticality(const Application& app,
                                                 const BusParams& params) {
  // Message communication times for the longest-path metric (Eq. 4).
  std::vector<Time> costs(app.message_count());
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    costs[m] = params.frame_duration(app.messages()[m].size_bytes);
  }

  std::vector<std::uint32_t> dyn;
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Dynamic) dyn.push_back(m);
  }
  std::vector<Time> crit(app.message_count(), 0);
  for (const std::uint32_t m : dyn) {
    crit[m] = app.criticality(static_cast<MessageId>(m), costs);
  }
  std::sort(dyn.begin(), dyn.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (crit[a] != crit[b]) return crit[a] < crit[b];  // most critical first
    return a < b;
  });

  std::vector<int> fids(app.message_count(), 0);
  int next = 1;
  for (const std::uint32_t m : dyn) fids[m] = next++;
  return fids;
}

std::vector<int> assign_frame_ids_arbitrary(const Application& app) {
  std::vector<int> fids(app.message_count(), 0);
  int next = 1;
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Dynamic) fids[m] = next++;
  }
  return fids;
}

std::vector<int> assign_frame_ids_shared_per_node(const Application& app) {
  std::vector<int> fid_of_node(app.node_count(), 0);
  std::vector<int> fids(app.message_count(), 0);
  int next = 1;
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls != MessageClass::Dynamic) continue;
    const std::size_t node = index_of(app.task(app.messages()[m].sender).node);
    if (fid_of_node[node] == 0) fid_of_node[node] = next++;
    fids[m] = fid_of_node[node];
  }
  return fids;
}

std::vector<NodeId> st_sender_nodes(const Application& app) {
  std::vector<bool> sends(app.node_count(), false);
  for (const auto& m : app.messages()) {
    if (m.cls == MessageClass::Static) sends[index_of(app.task(m.sender).node)] = true;
  }
  std::vector<NodeId> out;
  for (std::size_t n = 0; n < sends.size(); ++n) {
    if (sends[n]) out.push_back(static_cast<NodeId>(n));
  }
  return out;
}

std::vector<int> st_message_count_per_node(const Application& app) {
  std::vector<int> counts(app.node_count(), 0);
  for (const auto& m : app.messages()) {
    if (m.cls == MessageClass::Static) ++counts[index_of(app.task(m.sender).node)];
  }
  return counts;
}

std::vector<NodeId> assign_static_slots(const Application& app, int slot_count) {
  const std::vector<NodeId> senders = st_sender_nodes(app);
  if (senders.empty() || slot_count < static_cast<int>(senders.size())) return {};
  const std::vector<int> msg_counts = st_message_count_per_node(app);

  // Quota proportional to ST message share, at least one slot per sender.
  const int total_msgs =
      std::accumulate(senders.begin(), senders.end(), 0,
                      [&](int acc, NodeId n) { return acc + msg_counts[index_of(n)]; });
  std::vector<int> quota(senders.size(), 1);
  int assigned = static_cast<int>(senders.size());
  // Distribute the remaining slots by largest fractional share (method of
  // largest remainders over the message counts).
  while (assigned < slot_count) {
    std::size_t best = 0;
    double best_deficit = -1.0;
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const double share = total_msgs == 0
                               ? 1.0 / static_cast<double>(senders.size())
                               : static_cast<double>(msg_counts[index_of(senders[i])]) /
                                     static_cast<double>(total_msgs);
      const double deficit = share * static_cast<double>(slot_count) - quota[i];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = i;
      }
    }
    ++quota[best];
    ++assigned;
  }

  // Interleave round-robin: one slot per sender per round while quota lasts,
  // spreading each node's slots across the cycle.
  std::vector<NodeId> owners;
  owners.reserve(static_cast<std::size_t>(slot_count));
  for (int round = 0; static_cast<int>(owners.size()) < slot_count; ++round) {
    for (std::size_t i = 0; i < senders.size(); ++i) {
      if (quota[i] > round) owners.push_back(senders[i]);
    }
  }
  return owners;
}

Time min_static_slot_len(const Application& app, const BusParams& params) {
  Time max_frame = 0;
  for (const auto& m : app.messages()) {
    if (m.cls == MessageClass::Static) {
      max_frame = std::max(max_frame, params.frame_duration(m.size_bytes));
    }
  }
  if (max_frame == 0) return 0;
  return ceil_div(max_frame, params.gd_macrotick) * params.gd_macrotick;
}

DynBounds dyn_segment_bounds(const Application& app, const BusParams& params, Time st_len) {
  DynBounds bounds;
  int dyn_msgs = 0;
  int largest = 0;
  for (const auto& m : app.messages()) {
    if (m.cls != MessageClass::Dynamic) continue;
    ++dyn_msgs;
    largest = std::max(largest, params.frame_minislots(m.size_bytes));
  }
  if (dyn_msgs == 0) {
    // No DYN segment is needed, but a bus cycle cannot be empty: without a
    // static segment either, the cycle is one minislot.
    bounds.min_minislots = st_len > 0 ? 0 : 1;
    bounds.max_minislots = bounds.min_minislots;
    return bounds;
  }
  // With unique FrameIDs the highest slot number is dyn_msgs; it must still
  // satisfy the pLatestTx gate of its sender, i.e.
  //   dyn_msgs <= count - largest + 1  =>  count >= dyn_msgs + largest - 1.
  bounds.min_minislots = dyn_msgs + largest - 1;
  const Time budget = SpecLimits::kMaxCycle - st_len;
  const auto budget_slots = budget >= 0 ? budget / params.gd_minislot : 0;
  bounds.max_minislots =
      static_cast<int>(std::min<std::int64_t>(SpecLimits::kMaxMinislots, budget_slots));
  return bounds;
}

StartConfig minimal_start_config(const Application& app, const BusParams& params) {
  StartConfig start;
  start.st_senders = st_sender_nodes(app);
  start.config.frame_id = assign_frame_ids_by_criticality(app, params);
  start.config.static_slot_count = static_cast<int>(start.st_senders.size());
  start.config.static_slot_len = min_static_slot_len(app, params);
  start.config.static_slot_owner = start.st_senders;
  start.bounds = dyn_segment_bounds(
      app, params,
      static_cast<Time>(start.config.static_slot_count) * start.config.static_slot_len);
  if (start.bounds.feasible()) start.config.minislot_count = start.bounds.min_minislots;
  return start;
}

TsnConfig minimal_start_tsn_config(const Application& app) {
  TsnConfig config;
  const std::size_t M = app.message_count();
  config.gates.assign(M, TsnGateWindow{});
  config.et_priority.assign(M, 0);

  Time cycle = 0;
  for (std::uint32_t m = 0; m < M; ++m) {
    if (app.messages()[m].cls != MessageClass::Static) continue;
    cycle = std::gcd(cycle, app.period_of(ActivityRef::message(static_cast<MessageId>(m))));
  }
  if (cycle == 0) {
    // No ST traffic: the gates never close, so any divisor of the
    // hyper-period works — the smallest graph period is one.
    cycle = app.graphs()[0].period;
    for (const TaskGraph& g : app.graphs()) cycle = std::min(cycle, g.period);
  }
  config.cycle = cycle;

  std::vector<Time> durations(M);
  for (std::uint32_t m = 0; m < M; ++m) {
    durations[m] = tsn_frame_duration(app.messages()[m].size_bytes, config.link_rate_mbps);
  }

  Time cursor = 0;
  for (std::uint32_t m = 0; m < M; ++m) {
    if (app.messages()[m].cls != MessageClass::Static) continue;
    config.gates[m] = TsnGateWindow{cursor, durations[m]};
    cursor += durations[m];
  }

  std::vector<std::uint32_t> et;
  for (std::uint32_t m = 0; m < M; ++m) {
    if (app.messages()[m].cls == MessageClass::Dynamic) et.push_back(m);
  }
  std::sort(et.begin(), et.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Time ca = app.criticality(static_cast<MessageId>(a), durations);
    const Time cb = app.criticality(static_cast<MessageId>(b), durations);
    if (ca != cb) return ca < cb;  // most critical first (smallest laxity)
    return a < b;
  });
  for (std::size_t rank = 0; rank < et.size(); ++rank) {
    config.et_priority[et[rank]] = static_cast<int>(rank);
  }
  return config;
}

ClusterConfig minimal_start_cluster_config(const Application& app, const BusParams& params,
                                           ClusterBackendKind kind) {
  if (kind == ClusterBackendKind::Tsn) {
    return ClusterConfig::tsn_switch(minimal_start_tsn_config(app));
  }
  return ClusterConfig::flexray_bus(minimal_start_config(app, params).config);
}

}  // namespace flexopt
