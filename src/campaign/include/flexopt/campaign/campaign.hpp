#pragma once

/// \file campaign.hpp
/// The scenario campaign subsystem: a CampaignSpec describes a sweep grid
/// over the generator family of flexopt/gen/scenario.hpp (node counts x
/// topologies x traffic mixes x utilisation bands x period sets x payload
/// caps x replicates), expand_grid() unrolls it into per-scenario plans
/// with derived seeds, and CampaignRunner fans the scenarios across the
/// workers of parallel_for, solving each with every requested registry
/// algorithm.
///
/// Determinism contract: with no wall-clock budget, the records (and the
/// JSON/CSV summaries in flexopt/campaign/report.hpp) are byte-identical
/// for any worker-thread count — each scenario is generated from a seed
/// derived only from (base_seed, scenario index) and solved on its own
/// single-threaded evaluator, so campaign-level parallelism never leaks
/// into per-scenario results.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flexopt/analysis/analysis_mode.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"

namespace flexopt {

/// Closed utilisation interval the generator draws targets from.
struct UtilBand {
  double lo = 0.0;
  double hi = 0.0;
  friend bool operator==(const UtilBand& a, const UtilBand& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// A full sweep description.  Vectors are grid axes (the cartesian product
/// is swept, innermost axis last = replicates); scalars are shared by every
/// scenario.
struct CampaignSpec {
  std::string name = "campaign";

  // --- grid axes ---------------------------------------------------------
  std::vector<int> node_counts{3};
  std::vector<Topology> topologies{Topology::RandomDag};
  /// Cluster counts for Topology::MultiCluster cells (the other families
  /// are single-bus and ignore the value).  Values are validated to [1, 4];
  /// the multicluster generator itself requires 2..4.
  std::vector<int> cluster_counts{2};
  /// Backend-mix axis for Topology::MultiCluster cells (see
  /// backend_for_cluster).  Any non-flexray value requires every topology
  /// in the grid to be multicluster; the default single value keeps
  /// pre-backend specs' scenario indices (and seeds) unchanged.
  std::vector<BackendMix> backends{BackendMix::Flexray};
  /// Analysis-backend axis: which backend produces every evaluator bound of
  /// the cell (holistic | exact; see flexopt/analysis/analysis_mode.hpp).
  /// `exact` additionally records the holistic-vs-exact pessimism of every
  /// winner.  The default single value keeps pre-axis specs' scenario
  /// indices (and seeds) unchanged.
  std::vector<AnalysisMode> analysis_modes{AnalysisMode::Holistic};
  std::vector<TrafficMix> traffic_mixes{TrafficMix::Mixed};
  std::vector<UtilBand> node_util_bands{{0.25, 0.45}};
  std::vector<UtilBand> bus_util_bands{{0.10, 0.40}};
  /// Each entry is one axis value: the period_choices set handed to the
  /// generator.
  std::vector<std::vector<Time>> period_sets{
      {timeunits::ms(20), timeunits::ms(40), timeunits::ms(80)}};
  std::vector<int> message_size_caps{32};
  /// Scenarios per grid cell (distinct derived seeds).
  int replicates = 1;

  // --- shared scenario shape --------------------------------------------
  int tasks_per_node = 10;
  int tasks_per_graph = 5;
  /// TT share for TrafficMix::Mixed cells (St/DynOnly override it).
  double tt_share = 0.5;
  /// Share of graphs that cross clusters in MultiCluster cells.
  double inter_cluster_share = 0.25;
  double deadline_factor = 1.0;
  std::uint64_t base_seed = 1;

  // --- solving -----------------------------------------------------------
  /// OptimizerRegistry names, each run on every scenario (default params).
  /// "portfolio" composes the members below.
  std::vector<std::string> algorithms{"obc-cf"};
  /// Member list for "portfolio" runs (empty = PortfolioSpec's default).
  /// The member-level worker budget comes from CampaignOptions::threads:
  /// the runner splits it between scenario-level and member-level
  /// parallelism so a campaign never oversubscribes the machine.
  std::vector<std::string> portfolio_members;
  /// Per-solve budgets (0 = unlimited).  A wall-clock budget trades the
  /// determinism contract for bounded runtime.
  long max_evaluations = 0;
  double max_wall_seconds = 0.0;
  /// Re-simulate every analysable winner on the discrete-event network
  /// simulator (flexopt/netsim) for one hyper-period and record the
  /// observed-vs-bound verdict and pessimism gap per run.
  bool sim_check = false;
};

/// One expanded grid cell instance: the fully resolved generator spec plus
/// the axis values echoed for grouping/reporting.
struct ScenarioPlan {
  std::size_t index = 0;
  ScenarioSpec scenario;
  UtilBand node_util;
  UtilBand bus_util;
  AnalysisMode analysis_mode = AnalysisMode::Holistic;
};

/// Deterministic scenario seed for `index` under `base_seed` (splitmix64;
/// exposed so tests and external tooling can reproduce single scenarios).
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index);

/// Validates the spec (non-empty axes, replicates >= 1, band ordering) and
/// unrolls the grid in a fixed axis order.  Generator-level validation
/// (divisibility, period positivity) happens per scenario at run time so a
/// partially degenerate grid is skipped-and-recorded, not rejected.
[[nodiscard]] Expected<std::vector<ScenarioPlan>> expand_grid(const CampaignSpec& spec);

/// Result of one algorithm on one scenario.
struct AlgorithmRun {
  std::string algorithm;
  bool feasible = false;
  /// Eq. 5 cost (kInvalidConfigCost when no analysable configuration).
  double cost = kInvalidConfigCost;
  long evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  SolveStatus status = SolveStatus::Complete;
  /// Winning member id of a "portfolio" run ("sa#2"); empty otherwise.
  std::string portfolio_winner;
  /// CampaignSpec::sim_check results: true when the winning configuration
  /// was re-simulated on the network simulator (analysable winners only).
  bool simulated = false;
  /// Observed <= bound for every simulated activity (vacuously true when
  /// not simulated).
  bool sim_sound = true;
  /// Mean pessimism gap (bound - observed) / bound over the simulated
  /// activities with finite bounds; 0 when not simulated.
  double sim_gap = 0.0;
  /// Analysis backend this run solved with (the plan's analysis_mode).
  AnalysisMode analysis_mode = AnalysisMode::Holistic;
  /// AnalysisMode::Exact lane: true when the winner's holistic-vs-exact
  /// pessimism was computed (analysable winners of exact cells only).
  bool exact_ran = false;
  /// True when any cluster of the exact run fell back to holistic bounds
  /// (budget exceeded, unsupported backend, ... — recorded, never silent).
  bool exact_fallback = false;
  /// Schedule-space states explored across clusters.
  std::uint64_t exact_states = 0;
  /// ET activities whose exact bound is strictly below the holistic one.
  std::size_t exact_refined = 0;
  /// Mean / max relative gap (holistic - exact) / holistic over the
  /// winner's ET activities with finite holistic bounds; 0 when !exact_ran.
  double exact_gap_mean = 0.0;
  double exact_gap_max = 0.0;
  /// Wall-clock of this solve; non-deterministic, excluded from summaries
  /// unless timing output is requested.
  double wall_seconds = 0.0;
};

/// Everything recorded about one scenario of the campaign.
struct ScenarioRecord {
  ScenarioPlan plan;
  /// False when generation failed; `error` says why and `runs` is empty
  /// (the campaign skips-and-records degenerate scenarios, it never
  /// aborts on them).
  bool generated = false;
  std::string error;
  std::size_t task_count = 0;
  std::size_t message_count = 0;
  std::size_t graph_count = 0;
  /// FlexRay clusters of the generated system (1 for single-bus families).
  std::size_t cluster_count = 1;
  /// Realised (post-scaling) bus utilisation of the generated system.
  double bus_util_realized = 0.0;
  std::vector<AlgorithmRun> runs;
};

struct CampaignResult {
  CampaignSpec spec;
  BusParams params;
  /// One record per plan, in plan (grid) order.
  std::vector<ScenarioRecord> scenarios;
  /// Whole-campaign wall-clock (non-deterministic; timing output only).
  double wall_seconds = 0.0;
};

struct CampaignOptions {
  /// The campaign's thread budget; 0 = hardware concurrency.  Scenario
  /// workers take min(budget, scenarios) of it and every portfolio solve
  /// races its members on the share left per scenario worker.  Does not
  /// affect results (see the determinism contract above).
  int threads = 0;
  /// Called after each finished scenario (from worker threads, serialized
  /// internally).
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Expands the grid and runs every (scenario, algorithm) pair.  Errors only
/// on spec-level problems (empty axes, unknown algorithm names); per
/// scenario failures are recorded in the result.
class CampaignRunner {
 public:
  CampaignRunner(CampaignSpec spec, BusParams params)
      : spec_(std::move(spec)), params_(params) {}

  [[nodiscard]] Expected<CampaignResult> run(const CampaignOptions& options = {});

 private:
  CampaignSpec spec_;
  BusParams params_;
};

}  // namespace flexopt
