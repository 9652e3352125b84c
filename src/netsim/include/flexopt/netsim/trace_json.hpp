#pragma once

/// \file trace_json.hpp
/// Deterministic JSON serialization of a network-simulation run — the
/// `flexopt-netsim-trace/1` schema.  Byte-identical output for identical
/// inputs (flexopt/io/json_writer.hpp), so CI and the property suites can
/// diff repeated runs directly.
///
/// Document layout (fixed key order):
///   schema, clusters, hyperperiods, horizon, events, unfinished_jobs,
///   precedence_violations, sound, checked, mean_gap, min_gap,
///   violations[], tasks[], messages[], gateways[], traces[]
/// Times are integer Time units; kTimeNone / kTimeInfinity serialize as
/// null.  `tasks` and `messages` carry the observed worst completion, the
/// analysed bound and the observed latency distribution per *global*
/// activity; `traces` (record_trace runs only) carries per-instance
/// HopRecord chains.  `hyperperiods` is the count the run simulated,
/// horizon / hyper-period, which from 2 requested hyper-periods on may
/// exceed the request (see NetSimOptions::hyperperiods).

#include <string>

#include "flexopt/netsim/netsim.hpp"

namespace flexopt {

[[nodiscard]] std::string write_netsim_trace_json(const SystemModel& model,
                                                  const MulticlusterResult& analysis,
                                                  const NetSimResult& result,
                                                  const SoundnessReport& soundness);

}  // namespace flexopt
