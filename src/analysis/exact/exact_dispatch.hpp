#pragma once

/// \file exact_dispatch.hpp
/// Private to the analysis module: the AnalysisMode::Exact dispatch target
/// of analyze_multicluster (which documents the exact mode).  Callers go
/// through analyze_multicluster, the exact backend's only entry point.

#include <span>

#include "flexopt/analysis/multicluster.hpp"

namespace flexopt::detail {

Expected<MulticlusterResult> analyze_multicluster_exact(
    const SystemModel& model, std::span<const ClusterLayout> layouts,
    const AnalysisOptions& options, std::span<AnalysisComponentCache* const> caches,
    AnalysisWorkCounters* counters);

}  // namespace flexopt::detail
