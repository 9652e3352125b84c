#pragma once

/// \file engine.hpp
/// The steppable per-cluster simulation kernel behind simulate(): one
/// FlexRay bus (ST replay + FTDMA minislot arbitration) plus the two-
/// scheduler CPUs of the nodes attached to it, exposed as a ClusterEngine
/// that an external coordinator can advance one event at a time.
///
/// One event is one logical step: a completion, release or delivery, or
/// one DYN minislot step (one FrameID considered at one minislot counter
/// value).  The engine takes idle minislot steps in bulk: a per-engine
/// segment walker keeps the next step that sends a frame, and every step
/// before it, which has no effect, is counted in events_processed()
/// without passing through the event queue.  Only sending steps are
/// visible to a coordinator, at the rank an idle step would have had, so
/// the order of everything observable is that of a step-by-step walk.
///
/// simulate() (simulator.hpp) wraps exactly one engine and drains it — the
/// single-bus behaviour is bit-identical to the pre-refactor simulator.
/// The network simulator (flexopt/netsim/netsim.hpp) instantiates one
/// engine per cluster, merges their event queues on global time order, and
/// uses the gating hooks to couple them: a gateway forwarding relay in the
/// downstream cluster is held back (gate_task) until its upstream receive
/// relay completes (release_gated).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "flexopt/analysis/static_schedule.hpp"
#include "flexopt/analysis/tsn_analysis.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/sim/simulator.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

/// Construction-time knobs of one cluster kernel.
struct EngineOptions {
  /// Number of hyper-periods to simulate (ignored when `horizon` is set).
  int hyperperiods = 1;
  /// Explicit horizon override (0 = derive from hyperperiods).  Must be a
  /// positive multiple of the hyper-period; a network coordinator passes
  /// the same lcm-aligned horizon to every cluster engine so job tables
  /// stay index-compatible across clusters.
  Time horizon = 0;
  /// Record every bus transmission in the result trace.
  bool record_trace = false;
  /// Cluster ordinal stamped into every TransmissionRecord.
  std::uint32_t cluster = 0;
  /// Route hop ordinal per local message (indexed by local MessageId;
  /// empty = all zero) stamped into TransmissionRecord::hop_index.
  std::vector<int> message_hop_index;
};

/// Per-completion callbacks, fired while the engine processes events.  A
/// hook may call gate/release on *other* engines (cross-cluster coupling)
/// but must not re-enter the engine that fired it.
struct EngineHooks {
  /// A task job completed (SCS table finish or FPS burst end).
  std::function<void(TaskId, std::size_t job, Time when)> task_completed;
  /// A message job was delivered on this cluster's bus.
  std::function<void(MessageId, std::size_t job, Time when)> message_delivered;
};

/// One cluster's discrete-event kernel, advanced one event at a time.
class ClusterEngine {
 public:
  /// Validates options and builds job tables, the static replay and the
  /// initial event population.  `layout` and `schedule` must outlive the
  /// engine.  When `options.hyperperiods > 1` and the bus cycle does not
  /// divide the hyper-period, the horizon is aligned up to a multiple of
  /// lcm(cycle, hyper-period) so both the ST table (hyper-period-periodic,
  /// matching the analysis model) and the DYN cycle grid co-terminate.
  [[nodiscard]] static Expected<std::unique_ptr<ClusterEngine>> create(
      const BusLayout& layout, const StaticSchedule& schedule, EngineOptions options = {},
      EngineHooks hooks = {});

  /// TSN-cluster variant: ST messages are replayed from `schedule` (built by
  /// build_tsn_schedule), ET messages are queued per egress port and served
  /// non-preemptively by strict priority in the gaps between gate windows,
  /// with the same guard banding the analysis bound assumes (a frame only
  /// starts if it completes before the next window opens).
  [[nodiscard]] static Expected<std::unique_ptr<ClusterEngine>> create(
      const TsnLayout& layout, const StaticSchedule& schedule, EngineOptions options = {},
      EngineHooks hooks = {});

  ~ClusterEngine();
  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  /// True when no events remain (the horizon has been drained).
  [[nodiscard]] bool done() const;
  /// Timestamp of the next pending event (kTimeInfinity when done).
  [[nodiscard]] Time next_time() const;
  /// Tie-break rank of the next pending event at equal timestamps — the
  /// engine-internal EventType order, exposed so a coordinator merging
  /// several engines preserves the single-engine ordering semantics.
  [[nodiscard]] int next_order() const;
  /// Processes exactly one event (the queue head, or the DYN walker's next
  /// sending step together with the idle steps before it) and every CPU
  /// recomputation it triggers.
  void process_next();

  /// Adds one extra pending-predecessor token to every job of `task`,
  /// holding it back until release_gated().  Call before processing any
  /// event.  Used for gateway forwarding relays whose trigger lives in
  /// another cluster.
  void gate_task(TaskId task);
  /// Releases the gate token of one job of `task` at time `now` (>= the
  /// time of the last processed event).  When this was the final pending
  /// predecessor the job becomes ready and the CPU is recomputed.
  void release_gated(TaskId task, std::size_t job, Time now);

  /// Simulated horizon (after any lcm alignment).
  [[nodiscard]] Time horizon() const;
  /// Logical events processed so far: every event ordered before the next
  /// pending one, idle DYN minislot steps included (all of them below the
  /// horizon once done()).  Throughput metric for benches.
  [[nodiscard]] std::uint64_t events_processed() const;
  /// Events that passed through the event queue: events_processed() minus
  /// the DYN minislot steps, which the walker takes without queueing.
  [[nodiscard]] std::uint64_t queued_events() const;
  /// Finalizes unfinished-job accounting and surrenders the result.  The
  /// engine must not be stepped afterwards.
  [[nodiscard]] SimResult finish();

 private:
  ClusterEngine();
  /// Shared construction body; exactly one of `bus` / `tsn` is non-null.
  [[nodiscard]] static Expected<std::unique_ptr<ClusterEngine>> create_impl(
      const BusLayout* bus, const TsnLayout* tsn, const StaticSchedule& schedule,
      EngineOptions options, EngineHooks hooks);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace flexopt
