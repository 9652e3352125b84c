#pragma once

/// \file netsim.hpp
/// Discrete-event simulation of a gateway-connected multi-cluster system:
/// one ClusterEngine (flexopt/sim/engine.hpp) per FlexRay cluster — each a
/// timed channel driven by its ST schedule table plus FTDMA minislot
/// arbitration — advanced on one merged event order, with gateway routers
/// coupling the engines.  A cross-cluster message is simulated exactly as
/// the system model projects it: the hop frame is delivered on the upstream
/// bus, the gateway's receive relay completes, the frame enters the
/// gateway's bounded forwarding queue, and the downstream forwarding relay
/// (held back by an engine gate until the upstream receive completes) sends
/// the next hop frame.
///
/// The engines' sending DYN minislot steps take part in the merged order at
/// the rank and instant of a step-by-step walk, while each engine takes its
/// idle minislot steps in bulk; NetSimResult::events still counts one event
/// per minislot step, and NetSimResult::queued_events counts only the
/// events that passed through an engine's event queue.
///
/// The simulator is the executable ground truth for analyze_multicluster:
/// check_soundness() verifies that every observed completion is dominated
/// by the analysed bound and quantifies the pessimism gap, and
/// write_netsim_trace_json (trace_json.hpp) serializes per-hop latency
/// traces as the deterministic `flexopt-netsim-trace/1` schema.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/sim/simulator.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

struct NetSimOptions {
  /// Hyper-periods to simulate.  Values > 1 align the horizon up to a
  /// multiple of lcm(hyper-period, every cluster's bus cycle) so all ST
  /// tables and DYN cycle grids co-terminate; every cluster engine runs
  /// the same horizon to keep job indices aligned across clusters.
  int hyperperiods = 1;
  /// Record per-cluster bus transmissions and build per-hop MessageTrace
  /// records.
  bool record_trace = false;
  /// Frames a gateway may hold per outgoing transition before the
  /// simulation counts an overflow.  Frames are never dropped (the
  /// analysis assumes lossless forwarding); the counter flags undersized
  /// gateway buffers.
  int gateway_queue_capacity = 64;
};

/// One bus traversal of one message instance along its cluster route.
struct HopRecord {
  std::uint32_t cluster = 0;
  int hop_index = 0;
  /// When the frame entered this cluster: the job release for hop 0, the
  /// upstream bus delivery for later hops.
  Time enter = 0;
  /// Gateway residence (enter -> forwarding-relay completion); 0 for hop 0.
  Time gateway_wait = 0;
  Time bus_start = 0;
  Time bus_finish = 0;
  /// ST: 0-based slot index; DYN: FrameID (on this hop's cluster).
  int slot = 0;
  bool dynamic = false;
};

/// Per-hop trace of one message instance (record_trace only).
struct MessageTrace {
  MessageId message{};  ///< global MessageId
  int instance = 0;
  std::vector<HopRecord> hops;
};

/// Forwarding statistics of one gateway transition (one RelayLink).
struct GatewayStats {
  NodeId gateway{};
  std::uint32_t from_cluster = 0;
  std::uint32_t to_cluster = 0;
  int max_queue_depth = 0;
  std::int64_t forwarded = 0;
  /// Enqueues that found the queue already at capacity.
  std::int64_t overflows = 0;
};

/// Observed completion-latency distribution of one sink (graph-relative
/// times in Time units; zero count when no instance completed).
struct LatencyStat {
  std::size_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

struct NetSimResult {
  /// Worst observed graph-relative completion per *global* task; kTimeNone
  /// when no instance completed within the horizon.
  std::vector<Time> task_worst_completion;
  /// Worst observed *end-to-end* completion per global message — the
  /// delivery of its final hop frame, relative to the job release.
  std::vector<Time> message_worst_completion;
  /// Observed latency distributions per global task / message.
  std::vector<LatencyStat> task_latency;
  std::vector<LatencyStat> message_latency;
  /// Per-cluster kernel results (local activity indices; traces carry the
  /// cluster and hop_index stamps).
  std::vector<SimResult> clusters;
  /// Per-instance hop traces of every global message (record_trace only).
  std::vector<MessageTrace> traces;
  /// One entry per gateway transition, in relay-link order.
  std::vector<GatewayStats> gateways;
  Time horizon = 0;
  /// Logical events over all cluster engines, one per DYN minislot step
  /// included (ClusterEngine::events_processed).
  std::uint64_t events = 0;
  /// Events that passed through an engine's event queue
  /// (ClusterEngine::queued_events): `events` without the DYN minislot
  /// steps, which each engine's walker takes without queueing.
  std::uint64_t queued_events = 0;
  int unfinished_jobs = 0;
  int precedence_violations = 0;
};

/// Simulates the whole cluster network.  `layouts` and `analysis` must come
/// from build_system_layouts / analyze_multicluster on the same model (the
/// per-cluster ST schedules are replayed from `analysis`).  The degenerate
/// single-cluster case is exactly simulate() plus the global aggregation.
Expected<NetSimResult> simulate_network(const SystemModel& model,
                                        std::span<const ClusterLayout> layouts,
                                        const MulticlusterResult& analysis,
                                        const NetSimOptions& options = {});

/// One activity whose observed completion exceeded its analysed bound.
struct SoundnessViolation {
  std::uint32_t cluster = 0;
  bool task = false;
  std::string name;
  Time observed = 0;
  Time bound = 0;
};

/// Verdict of the observed-vs-bound cross-check, plus the pessimism gap
/// (bound - observed) / bound aggregated over every activity with a finite
/// bound and an observed completion.
struct SoundnessReport {
  bool sound = true;
  /// Cluster-local activities with an observed completion.
  std::size_t checked = 0;
  std::vector<SoundnessViolation> violations;
  double mean_gap = 0.0;
  double min_gap = 0.0;
  std::size_t gap_samples = 0;
};

/// Checks every cluster-local activity (tasks, relay tasks, hop messages)
/// of `observed` against the analyse bounds.
SoundnessReport check_soundness(const SystemModel& model, const MulticlusterResult& analysis,
                                const NetSimResult& observed);

}  // namespace flexopt
