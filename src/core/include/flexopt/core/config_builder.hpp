#pragma once

/// \file config_builder.hpp
/// Shared configuration-construction building blocks of Section 6:
/// criticality-ordered FrameID assignment (Eq. 4), quota-based round-robin
/// ST slot allocation, and the DYN segment length bounds.

#include <vector>

#include "flexopt/flexray/bus_config.hpp"
#include "flexopt/flexray/params.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/application.hpp"
#include "flexopt/model/cluster_backend.hpp"

namespace flexopt {

/// Assigns each DYN message a unique FrameID, ordered by criticality
/// CP_m = D_m - LP_m (Eq. 4): the most critical message gets FrameID 1.
/// ST messages get FrameID 0.  Returns the frame_id vector for BusConfig.
std::vector<int> assign_frame_ids_by_criticality(const Application& app,
                                                 const BusParams& params);

/// FrameID assignment ablation baselines.
/// Arbitrary: unique FrameIDs in message-declaration order.
std::vector<int> assign_frame_ids_arbitrary(const Application& app);
/// Shared: all DYN messages of one node share that node's single FrameID
/// (mimics a slot-per-node design; exercises the hp(m) delay term).
std::vector<int> assign_frame_ids_shared_per_node(const Application& app);

/// Nodes that send at least one ST message, ascending by node index.
std::vector<NodeId> st_sender_nodes(const Application& app);

/// Number of ST messages each node sends (indexed by node).
std::vector<int> st_message_count_per_node(const Application& app);

/// Distributes `slot_count` ST slots over the ST-sending nodes
/// proportionally to their ST message counts (each sender gets at least
/// one), interleaving owners round-robin across the cycle (Fig. 6, line 5).
/// Requires slot_count >= number of ST-sending nodes.
std::vector<NodeId> assign_static_slots(const Application& app, int slot_count);

/// Smallest admissible ST slot length: the largest ST frame, rounded up to
/// the macrotick grid.  0 when there are no ST messages.
Time min_static_slot_len(const Application& app, const BusParams& params);

/// Bounds for the DYN segment length in minislots (Fig. 5, line 5):
/// min = max(largest DYN frame footprint, number of DYN messages) so that
/// every frame fits (pLatestTx >= 1) and unique FrameIDs are possible;
/// max = protocol limit, further capped so the bus cycle stays within
/// 16 ms given the ST segment length `st_len`.  Without DYN messages the
/// bounds are [0, 0], or [1, 1] when `st_len` is 0 too, so that a cluster
/// with no bus traffic still gets a non-empty cycle.
struct DynBounds {
  int min_minislots = 0;
  int max_minislots = 0;
  [[nodiscard]] bool feasible() const { return min_minislots <= max_minislots; }
};
DynBounds dyn_segment_bounds(const Application& app, const BusParams& params, Time st_len);

/// The per-sender minimal starting point every neighbourhood walk seeds
/// from (SA's annealer, bench_delta_eval, the move-chain property tests):
/// criticality FrameIDs, one minimal-length ST slot per ST sender, and
/// `bounds.min_minislots` as the DYN length when the bounds are feasible
/// (minislot_count is left 0 otherwise; check `bounds.feasible()`).
struct StartConfig {
  BusConfig config;
  std::vector<NodeId> st_senders;
  DynBounds bounds;
};
StartConfig minimal_start_config(const Application& app, const BusParams& params);

/// The TSN analogue of minimal_start_config: gating cycle = gcd of the ST
/// message periods (every period divides the hyper-period, so their gcd
/// does too; falls back to the smallest graph period when there is no ST
/// traffic), exact-fit gate windows packed back to back in MessageId order,
/// and ET priorities ranked by criticality (Eq. 4) at the default link
/// rate.  The packing can exceed the cycle on hopelessly ST-heavy clusters;
/// TsnLayout::build then rejects the config and the candidate is costed
/// infeasible, mirroring an infeasible minimal_start_config.
TsnConfig minimal_start_tsn_config(const Application& app);

/// Backend-dispatching start configuration for one cluster.
ClusterConfig minimal_start_cluster_config(const Application& app, const BusParams& params,
                                           ClusterBackendKind kind);

}  // namespace flexopt
