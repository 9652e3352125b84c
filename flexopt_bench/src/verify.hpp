#pragma once

/// \file verify.hpp
/// The verify pipeline of one configured system, as `flexopt_cli simulate`
/// runs it: build_system_layouts -> analyze_multicluster (holistic)
/// [-> analyze_multicluster (exact) -> make_pessimism_report]
/// -> simulate_network + check_soundness, each call timed and spanned.

#include <cstdint>
#include <string>

#include "flexopt/analysis/analysis_mode.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/flexray/params.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/system_model.hpp"
#include "report.hpp"

namespace flexbench {

struct VerifyResult {
  /// Empty when every step succeeded and every check held.
  std::string error;
  Record record;
  double total_ms = 0.0;
  double layout_us = 0.0;
  double holistic_us = 0.0;
  double exact_us = 0.0;
  double simulate_ms = 0.0;
  double soundness_us = 0.0;
  int cross_iterations = 0;
  std::uint64_t events = 0;
  // Exact mode only.
  std::uint64_t exact_states = 0;
  std::uint64_t exact_merged = 0;
  std::size_t clusters = 0;
  std::size_t fallback_clusters = 0;
  double gap_sum = 0.0;  ///< sum of (holistic - exact) / holistic over ET activities
  std::size_t gap_activities = 0;
};

/// Runs the pipeline on `config`.  With `exact` set, the exact backend runs
/// with those options after the holistic analysis; the simulation is checked
/// against the exact bounds (observed <= exact) and every exact bound
/// against its holistic one (exact <= holistic); otherwise against the
/// holistic bounds.  The record is the final analysis's system cost and
/// schedulability plus, in exact mode, the explored states.
VerifyResult verify_system(const flexopt::SystemModel& model, const flexopt::BusParams& params,
                           const flexopt::SystemConfig& config,
                           const flexopt::ExactOptions* exact, Tracer* tracer,
                           std::int64_t scenario);

}  // namespace flexbench
