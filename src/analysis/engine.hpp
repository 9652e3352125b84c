#pragma once

/// \file engine.hpp
/// Private to the analysis module: the holistic engine (Section 5) behind
/// analyze_system and analyze_multicluster.
///
/// analyze_system_into runs the holistic fixed point as a chaotic
/// (Gauss-Seidel-style) relaxation: one merged jitter + response pass per
/// sweep in topological order, recomputing a recurrence only when a jitter
/// it reads moved.  The iteration is monotone from below, so every fair
/// update order — a Jacobi schedule too, one sweep per dependency hop —
/// reaches the same least fixed point.  Every run starts cold: TT
/// completions from the table, ET completions and all jitters at 0.  A run
/// still moving after AnalysisOptions::max_holistic_iterations sweeps pins
/// every ET completion to infinity (a non-stabilised monotone value is not
/// a safe bound); where a Jacobi schedule would stop at that cap, the
/// relaxation may still converge.  The per-recurrence caps
/// (kFpsMaxIterations for FPS) depend on the order too: the relaxation and
/// a Jacobi schedule can each report unbounded a task the other bounds.

#include <span>

#include "flexopt/analysis/arena.hpp"
#include "flexopt/analysis/incremental.hpp"
#include "flexopt/analysis/system_analysis.hpp"

namespace flexopt {

/// The holistic analysis of `layout`, with all fixed-point state in `arena`
/// and the outcome in `out`, both reused across calls: allocation-free when
/// the schedule table is cached.  `external_task_jitter` and
/// `dyn_message_caps` are analyze_system's hooks.  On error, `out` is
/// unspecified.
Expected<bool> analyze_system_into(const BusLayout& layout, const AnalysisOptions& options,
                                   AnalysisComponentCache& cache, AnalysisArena& arena,
                                   AnalysisResult& out, AnalysisWorkCounters* counters = nullptr,
                                   std::span<const Time> external_task_jitter = {},
                                   std::span<const Time> dyn_message_caps = {});

}  // namespace flexopt
