#pragma once

/// \file cluster_backend.hpp
/// The per-cluster communication-backend vocabulary: which protocol a
/// cluster's interconnect speaks and the decision variables of each
/// backend's bus-access configuration.
///
/// Two backends exist:
///  * FlexRay — the paper's bus (ST slot table + FTDMA minislot
///    arbitration).  Its decision variables live in flexray/bus_config.hpp;
///    this header only names the backend so the model layer stays free of
///    FlexRay protocol types.
///  * TSN — a switched-Ethernet cluster with time-aware shapers
///    (IEEE 802.1Qbv-style).  Time-triggered (ST-equivalent) traffic gets a
///    dedicated per-egress gate window repeating every gating cycle;
///    event-triggered (DYN-equivalent) traffic is arbitrated per egress
///    port by non-preemptive strict priority in the gaps between gate
///    windows.  The decision variables (TsnConfig) are the gating cycle,
///    the gate window placement, and the ET priority assignment.
///
/// The model layer must not depend on the flexray module, so the shared
/// backend vocabulary (kinds, TSN configuration, move kinds) lives here;
/// the per-cluster configuration variant that also carries a BusConfig is
/// flexray/system_config.hpp's ClusterConfig.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "flexopt/model/ids.hpp"
#include "flexopt/util/expected.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

/// Which protocol a cluster's interconnect speaks.
enum class ClusterBackendKind { FlexRay, Tsn };

[[nodiscard]] const char* to_string(ClusterBackendKind kind);
[[nodiscard]] Expected<ClusterBackendKind> parse_backend_kind(std::string_view text);

/// Generator/campaign-level backend assignment policy for the multicluster
/// scenario family: every cluster FlexRay (the pre-backend behaviour),
/// every cluster TSN, or alternating FlexRay/TSN ("mixed").
enum class BackendMix { Flexray, Tsn, Mixed };

[[nodiscard]] const char* to_string(BackendMix mix);
[[nodiscard]] Expected<BackendMix> parse_backend_mix(std::string_view text);

/// The per-cluster kind a mix policy assigns: Mixed alternates starting
/// with FlexRay (cluster 0 FlexRay, cluster 1 TSN, ...), so every 2+
/// cluster mixed system contains at least one of each backend.
[[nodiscard]] ClusterBackendKind backend_for_cluster(BackendMix mix, std::size_t cluster);

/// One egress gate window within the gating cycle: the port is reserved
/// for its ST message during [offset, offset + length) every cycle.
struct TsnGateWindow {
  Time offset = 0;
  Time length = 0;

  friend bool operator==(const TsnGateWindow&, const TsnGateWindow&) = default;
};

/// The decision variables of a TSN cluster (the BusConfig analogue).  A
/// plain value type: optimisers copy and mutate it freely; TsnLayout::build
/// validates it against an application.
struct TsnConfig {
  /// Gating cycle of the time-aware shapers.  Gate windows repeat with
  /// this period on every egress port.
  Time cycle = 0;
  /// Egress link rate in Mbit/s (full-duplex switched Ethernet).  Fixed
  /// per cluster; optimisers never move it.
  int link_rate_mbps = 100;
  /// Per-message gate window, indexed by MessageId: a positive-length
  /// window for every ST message, the zero window {0, 0} for ET messages.
  std::vector<TsnGateWindow> gates;
  /// Per-message ET arbitration priority, indexed by MessageId; smaller =
  /// higher.  Entries of ST messages are ignored (keep them 0).
  std::vector<int> et_priority;

  friend bool operator==(const TsnConfig&, const TsnConfig&) = default;
};

/// Fixed per-frame Ethernet overhead: preamble + SFD (8), MAC header (14),
/// VLAN tag (4), FCS (4), interframe gap (12) bytes.
inline constexpr int kTsnFrameOverheadBytes = 42;

/// Wire time of a payload of `size_bytes` on a `link_rate_mbps` link (the
/// Eq. 1 analogue), rounded up to whole nanoseconds.
[[nodiscard]] Time tsn_frame_duration(int size_bytes, int link_rate_mbps);

/// The neighbourhood move kinds a backend's configuration supports — the
/// dispatch vocabulary of the optimizer's block-coordinate descent.
enum class BackendMoveKind {
  // FlexRay (BusConfig knobs):
  StSlotCount,
  StSlotLen,
  StSlotOwner,
  MinislotCount,
  FrameId,
  // TSN (TsnConfig knobs):
  TsnGateOffset,
  TsnGateLength,
  TsnPriority,
};

[[nodiscard]] const char* to_string(BackendMoveKind kind);

/// The move kinds declared by one backend, in canonical enumeration order.
[[nodiscard]] std::span<const BackendMoveKind> backend_move_kinds(ClusterBackendKind kind);

}  // namespace flexopt
