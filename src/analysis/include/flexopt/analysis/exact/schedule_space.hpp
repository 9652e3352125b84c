#pragma once

/// \file schedule_space.hpp
/// Exact DYN-segment schedule-space exploration (the np-schedulability-
/// analysis idea adapted to FlexRay FTDMA): a breadth-first reachability
/// walk over bus cycles whose states are keyed by the per-message
/// transmitted-job count, with identical-state merging and dominance
/// pruning.
///
/// The explored behaviour space is a superset of the simulator's: each DYN
/// job of message m released at r = k * T_m becomes ready (reaches the
/// sender CHI) somewhere in [r, r + J_m], where J_m is the converged
/// holistic release jitter — a sound bound on the sender's completion.  Per
/// cycle the walk classifies each pending head job as
///  * must-ready  (r + J_m <= earliest possible slot time of its FrameID) —
///    certainly in the CHI when its minislot arrives, or
///  * maybe-ready (released before the cycle ends) — either arrived in time
///    or not, so a state with k of them stands for 2^k readiness subsets,
/// and then replays the minislot arbitration exactly as the discrete-event
/// engine does (sim/engine.cpp DynSlot): walk FrameIDs from the segment
/// start, transmit the highest-priority ready head if the slot counter is
/// within the owner's pLatestTx, advance the counter by the frame's
/// minislot count (else by one).  A maybe-ready message's readiness is read
/// only at its own FrameID's arbitration, within pLatestTx, and only if no
/// better-priority candidate there is ready, so one depth-first walk per
/// state branches on it there and covers all 2^k subsets at once.  Where
/// the engine breaks priority ties by CHI arrival order — unresolvable from
/// intervals — the walk forks over every tied candidate.  Supersets on
/// every axis means: max explored finish >= every finish the simulator can
/// observe.
///
/// Counting: each walked branch stands for the readiness subsets that drive
/// the walk down it, and `transitions` and `merged_states` count those
/// subsets — (subset, terminal fork) pairs — so they do not depend on how
/// the walk shares work between subsets.
///
/// Dominance: of two states in the same cycle, the one with pointwise >=
/// transmitted counts has pointwise less backlog, so every future finish
/// reachable from it is also reachable (no later) from the less progressed
/// state; the more progressed state is dropped.  The swept states are
/// distinct, so a state that covers another has a strictly smaller count
/// sum; the sweep compares only such pairs.
///
/// Stationary stretches: when a cycle's merge gives back exactly the
/// frontier it started from, row for row (typically one state whose "not
/// sent" branch dominates every fork of a maybe-ready head whose jitter
/// spans many cycles), every later cycle walks the same branches, shifted by
/// whole cycles, and merges back to the same frontier — until a pending
/// head changes readiness class: absent -> maybe at cycle floor(r / C), or
/// maybe -> must at cycle ceil((r + J - st_len - (fid - 1) * gd) / C), for
/// a head released at r with jitter J on cycle length C.  The cycles of
/// such a stretch before its last one are taken in one step; only the last
/// one, whose finishes are the stretch's latest, is walked.  The counters
/// stay those of the cycle-by-cycle walk: `explored_states`, `transitions`
/// and `merged_states` count every cycle the stretch spans, and a state
/// budget that runs out inside it aborts at the same cycle with the same
/// counts.  `walked_cycles` counts only the cycles actually walked.
///
/// The walk is single-threaded and its result is a function of the state
/// *set* of each cycle, never of iteration order: each cycle's successors are
/// routed to 32 buckets by a hash of the transmitted-count key, each bucket
/// is deduplicated through an open-addressing table and, when it holds at
/// most 256 states, swept for dominance on its own; when at most 256 states
/// survive, the whole frontier is swept once more.  Larger sets skip the
/// O(n^2) sweep but still merge identical states.  A state whose maybe-ready
/// set exceeds 12 messages aborts the exploration with
/// ExactFallback::BudgetExceeded.

#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/analysis_mode.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

class BusLayout;

/// Outcome of one cluster's exploration.
struct ScheduleSpaceResult {
  ExactFallback fallback = ExactFallback::None;
  /// Worst explored finish per message, graph-relative, indexed by
  /// MessageId.  kTimeInfinity for ST messages and for DYN messages whose
  /// jobs did not all complete within the cycle horizon (no refinement) —
  /// i.e. exactly the values to feed analyze_system's dyn_message_caps.
  /// Empty when `fallback` != None.
  std::vector<Time> worst_completion;
  std::uint64_t explored_states = 0;  ///< frontier sizes summed over cycles
  /// Successors with work left, counted per readiness subset, minus the
  /// states kept: identical-key + dominance merges.
  std::uint64_t merged_states = 0;
  /// (readiness subset, terminal fork) pairs over all explored states.
  std::uint64_t transitions = 0;
  /// Bus cycles walked state by state; the cycles of a stationary stretch
  /// taken in one step are not among them.
  std::uint64_t walked_cycles = 0;
};

/// Explores all DYN jobs released in [0, hyperperiod) to completion, walking
/// bus cycles up to `horizon` (use analysis_horizon).  `message_jitter` must
/// hold finite converged holistic release jitters for every DYN message
/// (callers gate on convergence first).
[[nodiscard]] ScheduleSpaceResult explore_dyn_schedule_space(
    const BusLayout& layout, std::span<const Time> message_jitter, Time horizon,
    const ExactOptions& options);

}  // namespace flexopt
