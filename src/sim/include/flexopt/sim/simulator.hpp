#pragma once

/// \file simulator.hpp
/// Discrete-event simulation of the full system of Section 2/3: per-node
/// CPUs running the two-scheduler kernel (SCS table + preemptive FPS in the
/// slack) and the FlexRay bus (ST slots per the schedule table, FTDMA
/// minislot arbitration with per-FrameID CHI priority queues and the
/// pLatestTx transmission gate).
///
/// The simulator serves three purposes:
///  * soundness validation — observed completions must never exceed the
///    analysis bounds (property tests);
///  * the didactic walkthroughs of Figs. 1, 3 and 4 (message timelines);
///  * letting example programs show a configured system actually running.
///
/// The event kernel itself lives in flexopt/sim/engine.hpp (ClusterEngine);
/// simulate() drains exactly one engine.  The multi-cluster network
/// simulator (flexopt/netsim/netsim.hpp) runs one engine per cluster on a
/// merged event order.  In the kernel one event is one logical step, one
/// DYN minislot step included; the idle minislot steps, which send
/// nothing, are taken in bulk, so a long DYN segment costs the walk only
/// its sending steps while traces and event counts stay those of a
/// step-by-step walk.

#include <cstdint>
#include <vector>

#include "flexopt/analysis/static_schedule.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

struct SimOptions {
  /// Number of hyper-periods to simulate.  When the bus cycle does not
  /// divide the hyper-period, values > 1 align the horizon up to a multiple
  /// of lcm(cycle, hyper-period) so the ST table replay and the DYN cycle
  /// grid co-terminate (the run then covers at least the requested span).
  int hyperperiods = 1;
  /// Record every bus transmission in SimResult::trace.
  bool record_trace = false;
};

/// One bus transmission (ST frame part or DYN frame) for trace inspection.
/// The same record shape is shared by the single-bus simulator and the
/// multi-cluster network simulator: single-bus runs leave `cluster` and
/// `hop_index` at 0.
struct TransmissionRecord {
  MessageId message{};
  int instance = 0;
  bool dynamic = false;
  /// ST: 0-based slot index; DYN: FrameID.
  int slot = 0;
  std::int64_t cycle = 0;
  Time start = 0;
  Time finish = 0;
  /// Cluster whose bus carried the transmission (0 for single-bus runs).
  std::uint32_t cluster = 0;
  /// Hop ordinal along the message's cluster route (0 = source cluster).
  int hop_index = 0;
};

struct SimResult {
  /// Worst observed graph-relative completion per task / message;
  /// kTimeNone when no instance completed within the horizon.
  std::vector<Time> task_worst_completion;
  std::vector<Time> message_worst_completion;
  /// Jobs (task or message instances) still unfinished at the horizon.
  int unfinished_jobs = 0;
  /// SCS table entries that started before their predecessors completed
  /// (indicates an inconsistent table; 0 for schedules from the list
  /// scheduler run over an aligned horizon).
  int precedence_violations = 0;
  /// Simulated horizon — hyperperiods * hyper-period, possibly rounded up
  /// by the lcm alignment described at SimOptions::hyperperiods.
  Time horizon = 0;
  std::vector<TransmissionRecord> trace;
};

/// Simulates `options.hyperperiods` hyper-periods of the system described
/// by `layout`, replaying ST traffic from `schedule` and arbitrating DYN
/// traffic online.
Expected<SimResult> simulate(const BusLayout& layout, const StaticSchedule& schedule,
                             const SimOptions& options = {});

}  // namespace flexopt
