// flexopt_cli — FlexRay bus optimisation front-end.
//
// Subcommands:
//
//   flexopt_cli solve <system-file> [--algorithm NAME] [--seed N] [--budget N]
//               [--time-limit S] [--threads N] [--members LIST]
//               [--analysis-mode MODE] [--json FILE] [--progress] [--no-cache]
//               [--simulate] [--dump]
//       Optimise one system described in the flexopt/io/system_format.hpp
//       plain-text format; prints the chosen configuration and per-activity
//       worst-case response times; exit code 0 iff schedulable.  --threads
//       caps the worker threads: the evaluator's batch workers, or with
//       --algorithm portfolio the members racing in parallel (results are
//       independent of --threads).  --members ("4xsa,obc-ee") composes the
//       portfolio's racing members.  --analysis-mode holistic|exact selects the
//       analysis backend: `exact` refines every evaluator bound with the
//       schedule-space backend and reports the winner's pessimism.
//       --simulate replays the winner on the network simulator.  --json
//       writes the deterministic machine-readable report of
//       flexopt/io/solve_report_json.hpp.
//
//   flexopt_cli simulate <system-file> [--algorithm NAME] [--seed N] [--budget N]
//               [--time-limit S] [--threads N] [--hyperperiods N] [--trace FILE]
//               [--no-cache]
//       Optimise the system, then replay the winning configuration on the
//       discrete-event network simulator (flexopt/netsim/netsim.hpp):
//       per-cluster observed-vs-bound tables, gateway queue statistics and
//       the soundness verdict (every observed completion dominated by the
//       analyze_multicluster bound).  --trace writes the deterministic
//       flexopt-netsim-trace/1 JSON document with per-hop latency traces.
//       Exit code 0 iff the verdict is sound.
//
//   flexopt_cli campaign <spec-file> [--threads N] [--json FILE] [--csv FILE]
//               [--budget N] [--time-limit S] [--timing] [--quiet]
//       Expand the sweep grid of a campaign spec file
//       (flexopt/campaign/spec_format.hpp), solve every scenario with every
//       requested algorithm, print an aggregate table and optionally write
//       the JSON/CSV summaries.  With no wall-clock limit the summaries are
//       byte-identical for any --threads value.
//
// Invoking without a subcommand keeps the legacy behaviour (solve).
// `--algorithm list` prints the optimizer registry.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/campaign/report.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "flexopt/io/system_format.hpp"
#include "flexopt/math/hyperperiod.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/netsim/trace_json.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;

namespace {

int usage() {
  std::cerr
      << "usage: flexopt_cli [solve] <system-file> [--algorithm NAME|list] [--seed N]\n"
         "                   [--budget MAX_EVALUATIONS] [--time-limit SECONDS]\n"
         "                   [--threads N] [--members LIST]\n"
         "                   [--analysis-mode holistic|exact] [--json FILE]\n"
         "                   [--progress] [--no-cache] [--simulate] [--dump]\n"
         "       flexopt_cli simulate <system-file> [--algorithm NAME] [--seed N]\n"
         "                   [--budget N] [--time-limit S] [--threads N]\n"
         "                   [--hyperperiods N] [--trace FILE] [--no-cache]\n"
         "       flexopt_cli campaign <spec-file> [--threads N] [--json FILE]\n"
         "                   [--csv FILE] [--budget N] [--time-limit S]\n"
         "                   [--timing] [--quiet]\n";
  return 2;
}

/// Strict numeric argument parsing: trailing garbage ("--budget 1e6",
/// "--threads 2x") must error, not silently run a different experiment.
template <typename T, typename Convert>
bool parse_arg(const char* text, Convert convert, T& out) {
  try {
    std::size_t pos = 0;
    out = convert(text, &pos);
    return text[0] != '\0' && text[pos] == '\0';
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_long_arg(const char* text, long& out) {
  return parse_arg(text, [](const std::string& s, std::size_t* p) { return std::stol(s, p); },
                   out);
}

bool parse_int_arg(const char* text, int& out) {
  return parse_arg(text, [](const std::string& s, std::size_t* p) { return std::stoi(s, p); },
                   out);
}

bool parse_u64_arg(const char* text, std::uint64_t& out) {
  if (text[0] == '-') return false;
  return parse_arg(text,
                   [](const std::string& s, std::size_t* p) { return std::stoull(s, p); }, out);
}

bool parse_double_arg(const char* text, double& out) {
  return parse_arg(text, [](const std::string& s, std::size_t* p) { return std::stod(s, p); },
                   out);
}

int numeric_arg_error(const std::string& flag) {
  std::cerr << "invalid numeric value for " << flag << "\n";
  return usage();
}

/// Checks that the analysis can run on every cluster of `model`: a
/// hyper-period so long that the response horizon overflows Time is an
/// input error, not an unschedulable system.  Prints the diagnostic and
/// returns false otherwise.
bool check_analysable(const SystemModel& model) {
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    const auto horizon = analysis_horizon(*model.cluster_app(c));
    if (!horizon.ok()) {
      std::cerr << "cluster " << c << ": " << horizon.error().message << "\n";
      return false;
    }
  }
  return true;
}

/// A solve's cost, or "-" when nothing analysable was found (the cost is
/// then the invalid-configuration sentinel, not a measurement).
std::string fmt_cost(double cost) {
  return cost >= kInvalidConfigCost ? "-" : fmt_double(cost, 1) + " us";
}

int list_algorithms() {
  Table table({"algorithm", "description"});
  for (const OptimizerInfo& info : OptimizerRegistry::list()) {
    table.add_row({info.name, info.description});
  }
  table.print(std::cout);
  return 0;
}

/// A result file staged through a sibling temp file: opening probes
/// writability before the solve/campaign runs, commit() renames over the
/// target only on success, and the destructor cleans up the temp file
/// otherwise — a failed run never clobbers previous results.
class PendingOutput {
 public:
  bool open_for(const std::string& target) {
    path_ = target;
    tmp_ = target + ".tmp";
    out_.open(tmp_, std::ios::binary);
    return static_cast<bool>(out_);
  }

  [[nodiscard]] bool pending() const { return out_.is_open(); }

  bool commit(const std::string& content) {
    out_ << content;
    out_.flush();
    if (!out_) return false;
    out_.close();
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) return false;
    committed_ = true;
    return true;
  }

  ~PendingOutput() {
    if (!tmp_.empty() && !committed_) std::remove(tmp_.c_str());
  }

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream out_;
  bool committed_ = false;
};

// ---- solve ----------------------------------------------------------------

int solve_main(int argc, char** argv) {
  std::string path;
  std::string algorithm = "obc-cf";
  std::string members_arg;
  bool members_set = false;
  std::string json_path;
  SolveRequest request;
  EvaluatorOptions evaluator_options;
  AnalysisMode analysis_mode = AnalysisMode::Holistic;
  bool show_progress = false;
  bool run_sim = false;
  bool dump = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--algorithm" && i + 1 < argc) {
      algorithm = argv[++i];
    } else if (arg == "--analysis-mode" && i + 1 < argc) {
      auto mode = parse_analysis_mode(argv[++i]);
      if (!mode.ok()) {
        std::cerr << mode.error().message << "\n";
        return usage();
      }
      analysis_mode = mode.value();
    } else if (arg == "--members" && i + 1 < argc) {
      members_arg = argv[++i];
      members_set = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      std::uint64_t seed = 0;
      if (!parse_u64_arg(argv[++i], seed)) return numeric_arg_error(arg);
      request.seed = seed;
    } else if (arg == "--budget" && i + 1 < argc) {
      if (!parse_long_arg(argv[++i], request.max_evaluations)) return numeric_arg_error(arg);
    } else if (arg == "--time-limit" && i + 1 < argc) {
      if (!parse_double_arg(argv[++i], request.max_wall_seconds)) return numeric_arg_error(arg);
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], evaluator_options.threads)) return numeric_arg_error(arg);
    } else if (arg == "--progress") {
      show_progress = true;
    } else if (arg == "--no-cache") {
      evaluator_options.cache_enabled = false;
    } else if (arg == "--simulate") {
      run_sim = true;
    } else if (arg == "--dump") {
      dump = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (request.max_evaluations < 0 || request.max_wall_seconds < 0.0 ||
      evaluator_options.threads < 0) {
    std::cerr << "--budget, --time-limit and --threads must be >= 0 (0 means the algorithm's "
                 "own budget, no time limit, and hardware concurrency)\n";
    return usage();
  }
  if (algorithm == "list") return list_algorithms();
  if (path.empty()) return usage();

  // --members composes the portfolio payload; it is meaningless for the
  // single algorithms, so passing it there must error, not be silently
  // dropped.  A portfolio races its members on --threads workers (its
  // members solve on one-thread evaluators of their own).
  if (members_set && !is_portfolio_algorithm(algorithm)) {
    std::cerr << "--members requires --algorithm portfolio\n";
    return usage();
  }
  OptimizerParams optimizer_params;
  if (is_portfolio_algorithm(algorithm)) {
    PortfolioSpec portfolio;
    if (members_set) {
      // An explicitly empty list errors in parse_portfolio_members —
      // silently racing the default members instead would be the worst
      // failure mode for a reproducible experiment.
      auto members = parse_portfolio_members(members_arg);
      if (!members.ok()) {
        std::cerr << members.error().message << "\n";
        return 2;
      }
      portfolio.members = std::move(members).value();
    }
    portfolio.jobs = evaluator_options.threads;
    optimizer_params = std::move(portfolio);
  }

  auto optimizer = OptimizerRegistry::create(algorithm, optimizer_params);
  if (!optimizer.ok()) {
    std::cerr << optimizer.error().message << "\n";
    return 2;
  }

  PendingOutput json_out;
  if (!json_path.empty() && !json_out.open_for(json_path)) {
    std::cerr << "cannot write '" << json_path << "'\n";
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open '" << path << "'\n";
    return 2;
  }
  auto parsed = parse_system(in);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.error().message << "\n";
    return 2;
  }
  const Application& app = parsed.value().app;
  const BusParams& params = parsed.value().params;
  std::cout << "system: " << app.task_count() << " tasks, " << app.message_count()
            << " messages, " << app.graph_count() << " graphs, " << app.node_count()
            << " nodes";
  if (app.cluster_count() > 1) std::cout << ", " << app.cluster_count() << " clusters";
  std::cout << "\n";
  if (dump) {
    std::cout << write_system(app, params);
    return 0;
  }
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  if (!model.ok()) {
    std::cerr << "system projection: " << model.error().message << "\n";
    return 2;
  }
  if (!check_analysable(model.value())) return 2;

  if (show_progress) {
    request.progress = [](const SolveProgress& p) {
      std::cerr << "[" << p.algorithm << "] " << p.evaluations;
      if (p.max_evaluations > 0) std::cerr << "/" << p.max_evaluations;
      std::cerr << " analyses, best cost " << fmt_cost(p.best_cost) << ", "
                << fmt_double(p.elapsed_seconds, 1) << " s\r";
      return true;  // never cancels; Ctrl-C remains the way out
    };
  }

  // `exact` routes every evaluator bound through the schedule-space backend.
  AnalysisOptions analysis_options;
  analysis_options.mode = analysis_mode;
  CostEvaluator evaluator(model.value(), params, analysis_options, evaluator_options);
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  const OptimizationOutcome& outcome = report.outcome;
  if (show_progress) std::cerr << "\n";

  // Exact-mode lane: re-analyse the winner with the schedule-space backend
  // so both the JSON report and the human output carry its pessimism.
  std::unique_ptr<PessimismReport> pessimism;
  if (analysis_mode == AnalysisMode::Exact && outcome.cost.value < kInvalidConfigCost) {
    auto layouts = build_system_layouts(model.value(), params, outcome.system);
    auto exact = layouts.ok()
                     ? analyze_multicluster(model.value(), layouts.value(), analysis_options)
                     : Expected<MulticlusterResult>(layouts.error());
    if (exact.ok()) {
      std::vector<const Application*> apps;
      for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
        apps.push_back(model.value().cluster_app(c).get());
      }
      pessimism = std::make_unique<PessimismReport>(
          make_pessimism_report(apps, exact.value().clusters));
    } else {
      std::cerr << "exact analysis: " << exact.error().message << "\n";
    }
  }

  if (json_out.pending() &&
      !json_out.commit(write_solve_json(app, algorithm, report, false, pessimism.get()) +
                       "\n")) {
    std::cerr << "cannot write '" << json_path << "'\n";
    return 2;
  }

  std::cout << "\n" << outcome.algorithm << ": "
            << (outcome.feasible ? "SCHEDULABLE" : "not schedulable") << ", cost "
            << fmt_cost(outcome.cost.value) << ", " << outcome.evaluations << " analyses in "
            << fmt_double(outcome.wall_seconds, 3) << " s ("
            << to_string(report.status) << ", " << report.cache_hits << " cache hits)\n";
  std::cout << "incremental: " << report.components_recomputed << " components recomputed, "
            << report.components_reused << " reused\n";
  {
    const EvaluatorWorkStats& profile = report.profile;
    std::cout << "profile: " << profile.analysis.holistic_iterations
              << " holistic iterations, " << profile.analysis.fixed_point_iterations
              << " fixed-point iterations, " << profile.arena_reuses << "/"
              << (profile.arena_binds + profile.arena_reuses) << " arena reuses";
    if (profile.components_per_evaluation.count() > 0) {
      std::cout << ", " << fmt_double(profile.components_per_evaluation.mean(), 1)
                << " components/evaluation";
    }
    std::cout << "\n";
    if (profile.analysis.exact_states_explored > 0 ||
        profile.analysis.exact_frontier_reused > 0) {
      std::cout << "exact: " << profile.analysis.exact_states_explored
                << " states explored, " << profile.analysis.exact_states_deduped
                << " deduped, " << profile.analysis.exact_frontier_reused
                << " frontiers reused\n";
    }
  }
  if (pessimism != nullptr) {
    std::cout << "pessimism: " << pessimism->refined << "/" << pessimism->activities
              << " ET activities refined, gap mean " << fmt_percent(pessimism->mean_gap)
              << ", max " << fmt_percent(pessimism->max_gap) << ", "
              << pessimism->explored_states << " states explored";
    if (pessimism->any_fallback) std::cout << " (holistic fallback on some clusters)";
    std::cout << "\n";
  }
  if (!report.members.empty()) {
    std::cout << "portfolio winner: " << report.winner << "\n";
    Table members({"member", "status", "cost [us]", "feasible", "analyses", "cache hits",
                   "improvements"});
    for (const MemberSolveReport& member : report.members) {
      members.add_row({member.member + (member.winner ? " *" : ""), to_string(member.status),
                       member.cost >= kInvalidConfigCost ? "-" : fmt_double(member.cost, 1),
                       member.feasible ? "yes" : "no", std::to_string(member.evaluations),
                       std::to_string(member.cache_hits),
                       std::to_string(member.improvements.size())});
    }
    members.print(std::cout);
  }
  if (outcome.cost.value >= kInvalidConfigCost) {
    std::cerr << "no analysable configuration found"
              << (outcome.error.empty() ? "" : ": " + outcome.error) << "\n";
    return 1;
  }

  // Per-cluster reporting, for every cluster count: each cluster has its
  // own bus configuration and its projection's WCRTs already include
  // cross-cluster relay jitter.  Usually a cache hit (the solve evaluated on
  // this evaluator); portfolio solves race members on sibling evaluators,
  // so the winning product may be analysed once more here.
  const SystemModel& sys = evaluator.system_model();
  const auto evaluation = evaluator.evaluate_system(outcome.system);
  if (!evaluation.valid) {
    std::cerr << "analysis: " << evaluation.error << "\n";
    return 1;
  }
  for (std::size_t c = 0; c < sys.cluster_count(); ++c) {
    const Application& capp = *sys.cluster_app(c);
    const ClusterConfig& cluster_cfg = outcome.system.clusters[c];
    if (cluster_cfg.kind == ClusterBackendKind::Tsn) {
      const TsnConfig& tsn = cluster_cfg.tsn;
      int windows = 0;
      for (const TsnGateWindow& gate : tsn.gates) {
        if (gate.length > 0) ++windows;
      }
      std::cout << "\ncluster " << c << " (tsn): " << windows << " gate windows / "
                << format_time(tsn.cycle) << " cycle @ " << tsn.link_rate_mbps << " Mbit/s\n";
    } else {
      const BusConfig& cfg = cluster_cfg.flexray;
      std::cout << "\ncluster " << c << " (flexray): " << cfg.static_slot_count
                << " ST slots x " << format_time(cfg.static_slot_len) << ", DYN "
                << cfg.minislot_count << " minislots\n";
      Table fids({"message", "FrameID"});
      for (std::uint32_t m = 0; m < capp.message_count(); ++m) {
        if (cfg.frame_id[m] > 0) {
          fids.add_row({capp.messages()[m].name, std::to_string(cfg.frame_id[m])});
        }
      }
      if (fids.rows() > 0) fids.print(std::cout);
    }
    Table wcrt({"activity", "kind", "WCRT", "deadline", "status"});
    const AnalysisResult& cluster = evaluation.cluster_analysis[c];
    auto add_row = [&](const std::string& name, const char* kind, Time r, Time d) {
      wcrt.add_row({name, kind, format_time(r), format_time(d), r <= d ? "ok" : "MISS"});
    };
    for (std::uint32_t t = 0; t < capp.task_count(); ++t) {
      add_row(capp.tasks()[t].name,
              capp.tasks()[t].policy == TaskPolicy::Scs ? "SCS" : "FPS",
              cluster.task_completion[t],
              capp.effective_deadline(ActivityRef::task(static_cast<TaskId>(t))));
    }
    for (std::uint32_t m = 0; m < capp.message_count(); ++m) {
      add_row(capp.messages()[m].name,
              capp.messages()[m].cls == MessageClass::Static ? "ST" : "DYN",
              cluster.message_completion[m],
              capp.effective_deadline(ActivityRef::message(static_cast<MessageId>(m))));
    }
    wcrt.print(std::cout);
  }
  if (run_sim) {
    auto layouts = build_system_layouts(sys, params, outcome.system);
    auto mc = layouts.ok()
                  ? analyze_multicluster(sys, layouts.value(), AnalysisOptions{})
                  : Expected<MulticlusterResult>(layouts.error());
    auto sim = mc.ok() ? simulate_network(sys, layouts.value(), mc.value())
                       : Expected<NetSimResult>(mc.error());
    if (!sim.ok()) {
      std::cerr << "simulation: " << sim.error().message << "\n";
    } else {
      const SoundnessReport verdict = check_soundness(sys, mc.value(), sim.value());
      std::cout << "\nsimulated one hyper-period across " << sys.cluster_count()
                << " cluster" << (sys.cluster_count() > 1 ? "s" : "") << ": "
                << sim.value().unfinished_jobs << " unfinished jobs, "
                << sim.value().precedence_violations << " precedence violations, "
                << (verdict.sound ? "observed <= bound for all "
                                  : "BOUND VIOLATIONS among ")
                << verdict.checked << " checked activities\n";
    }
  }
  return outcome.feasible ? 0 : 1;
}

// ---- simulate -------------------------------------------------------------

std::string fmt_observed(Time t) { return t == kTimeNone ? "-" : format_time(t); }

std::string fmt_gap(Time observed, Time bound) {
  if (observed == kTimeNone || bound <= 0 || bound == kTimeInfinity) return "-";
  return fmt_percent(static_cast<double>(bound - observed) / static_cast<double>(bound));
}

int simulate_main(int argc, char** argv) {
  std::string path;
  std::string algorithm = "obc-cf";
  std::string trace_path;
  SolveRequest request;
  EvaluatorOptions evaluator_options;
  NetSimOptions sim_options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--algorithm" && i + 1 < argc) {
      algorithm = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      std::uint64_t seed = 0;
      if (!parse_u64_arg(argv[++i], seed)) return numeric_arg_error(arg);
      request.seed = seed;
    } else if (arg == "--budget" && i + 1 < argc) {
      if (!parse_long_arg(argv[++i], request.max_evaluations)) return numeric_arg_error(arg);
    } else if (arg == "--time-limit" && i + 1 < argc) {
      if (!parse_double_arg(argv[++i], request.max_wall_seconds)) return numeric_arg_error(arg);
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], evaluator_options.threads)) return numeric_arg_error(arg);
    } else if (arg == "--hyperperiods" && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], sim_options.hyperperiods)) return numeric_arg_error(arg);
    } else if (arg == "--no-cache") {
      evaluator_options.cache_enabled = false;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (request.max_evaluations < 0 || request.max_wall_seconds < 0.0 ||
      evaluator_options.threads < 0) {
    std::cerr << "--budget, --time-limit and --threads must be >= 0 (0 means the algorithm's "
                 "own budget, no time limit, and hardware concurrency)\n";
    return usage();
  }
  if (sim_options.hyperperiods < 1) {
    std::cerr << "--hyperperiods must be >= 1\n";
    return usage();
  }
  if (algorithm == "list") return list_algorithms();
  if (path.empty()) return usage();

  // As in solve, a portfolio races its members on --threads workers.
  OptimizerParams optimizer_params;
  if (is_portfolio_algorithm(algorithm)) {
    PortfolioSpec portfolio;
    portfolio.jobs = evaluator_options.threads;
    optimizer_params = std::move(portfolio);
  }
  auto optimizer = OptimizerRegistry::create(algorithm, optimizer_params);
  if (!optimizer.ok()) {
    std::cerr << optimizer.error().message << "\n";
    return 2;
  }

  PendingOutput trace_out;
  if (!trace_path.empty() && !trace_out.open_for(trace_path)) {
    std::cerr << "cannot write '" << trace_path << "'\n";
    return 2;
  }
  sim_options.record_trace = trace_out.pending();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open '" << path << "'\n";
    return 2;
  }
  auto parsed = parse_system(in);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.error().message << "\n";
    return 2;
  }
  const Application& app = parsed.value().app;
  const BusParams& params = parsed.value().params;
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  if (!model.ok()) {
    std::cerr << "system projection: " << model.error().message << "\n";
    return 2;
  }
  if (!check_analysable(model.value())) return 2;
  const SystemModel& sys = model.value();
  std::cout << "system: " << app.task_count() << " tasks, " << app.message_count()
            << " messages, " << sys.cluster_count() << " cluster"
            << (sys.cluster_count() > 1 ? "s" : "") << "\n";

  CostEvaluator evaluator(sys, params, AnalysisOptions{}, evaluator_options);
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  const OptimizationOutcome& outcome = report.outcome;
  std::cout << outcome.algorithm << ": "
            << (outcome.feasible ? "SCHEDULABLE" : "not schedulable") << ", cost "
            << fmt_cost(outcome.cost.value) << ", " << outcome.evaluations << " analyses\n";
  if (outcome.cost.value >= kInvalidConfigCost) {
    std::cerr << "no analysable configuration found"
              << (outcome.error.empty() ? "" : ": " + outcome.error) << "; nothing to simulate\n";
    return 1;
  }

  auto layouts = build_system_layouts(sys, params, outcome.system);
  if (!layouts.ok()) {
    std::cerr << "layout: " << layouts.error().message << "\n";
    return 2;
  }
  auto analysis = analyze_multicluster(sys, layouts.value(), AnalysisOptions{});
  if (!analysis.ok()) {
    std::cerr << "analysis: " << analysis.error().message << "\n";
    return 2;
  }
  auto result = simulate_network(sys, layouts.value(), analysis.value(), sim_options);
  if (!result.ok()) {
    std::cerr << "simulation: " << result.error().message << "\n";
    return 2;
  }
  const NetSimResult& net = result.value();
  const SoundnessReport verdict = check_soundness(sys, analysis.value(), net);

  // From 2 hyper-periods on, the simulator aligns its horizon up to a
  // multiple of lcm(hyper-period, every cluster's bus cycle).
  const Time hyperperiod = analysis.value().clusters[0].schedule().hyperperiod();
  const std::int64_t simulated = net.horizon / hyperperiod;
  if (simulated != sim_options.hyperperiods) {
    Time block = hyperperiod;
    for (const ClusterLayout& layout : layouts.value()) {
      block = checked_lcm(block, layout.cycle_len()).value();
    }
    std::cerr << "note: --hyperperiods " << sim_options.hyperperiods << " ran " << simulated
              << " hyper-periods: the horizon is aligned up to a multiple of lcm(hyper-period, "
                 "bus cycles) = "
              << format_time(block) << "\n";
  }
  std::cout << "\nsimulated " << simulated << " hyper-period" << (simulated > 1 ? "s" : "")
            << " (horizon " << format_time(net.horizon) << ", " << net.events << " events): "
            << net.unfinished_jobs << " unfinished jobs, " << net.precedence_violations
            << " precedence violations\n";

  for (std::size_t c = 0; c < sys.cluster_count(); ++c) {
    const Application& capp = *sys.cluster_app(c);
    const AnalysisResult& bounds = analysis.value().clusters[c];
    const SimResult& observed = net.clusters[c];
    std::cout << "\ncluster " << c << " (observed worst vs analysed bound):\n";
    Table table({"activity", "kind", "observed", "bound", "gap", "status"});
    auto add = [&](const std::string& name, const char* kind, Time seen, Time bound) {
      table.add_row({name, kind, fmt_observed(seen), format_time(bound), fmt_gap(seen, bound),
                     seen != kTimeNone && seen > bound ? "VIOLATION" : "ok"});
    };
    for (std::uint32_t t = 0; t < capp.task_count(); ++t) {
      add(capp.tasks()[t].name, capp.tasks()[t].policy == TaskPolicy::Scs ? "SCS" : "FPS",
          observed.task_worst_completion[t], bounds.task_completion[t]);
    }
    for (std::uint32_t m = 0; m < capp.message_count(); ++m) {
      add(capp.messages()[m].name,
          capp.messages()[m].cls == MessageClass::Static ? "ST" : "DYN",
          observed.message_worst_completion[m], bounds.message_completion[m]);
    }
    table.print(std::cout);
  }

  if (!net.gateways.empty()) {
    std::cout << "\ngateway queues:\n";
    Table gw({"gateway", "route", "forwarded", "max depth", "overflows"});
    for (const GatewayStats& g : net.gateways) {
      gw.add_row({app.node(g.gateway).name,
                  std::to_string(g.from_cluster) + " -> " + std::to_string(g.to_cluster),
                  std::to_string(g.forwarded), std::to_string(g.max_queue_depth),
                  std::to_string(g.overflows)});
    }
    gw.print(std::cout);
  }

  std::cout << "\nsoundness: "
            << (verdict.sound ? "observed <= bound for all " : "BOUND VIOLATIONS among ")
            << verdict.checked << " checked activities";
  if (verdict.gap_samples > 0) {
    std::cout << " (pessimism gap mean " << fmt_percent(verdict.mean_gap) << ", min "
              << fmt_percent(verdict.min_gap) << ")";
  }
  std::cout << "\n";
  for (const SoundnessViolation& v : verdict.violations) {
    std::cerr << "violation: cluster " << v.cluster << (v.task ? " task " : " message ")
              << v.name << " observed " << format_time(v.observed) << " > bound "
              << format_time(v.bound) << "\n";
  }

  if (trace_out.pending() &&
      !trace_out.commit(write_netsim_trace_json(sys, analysis.value(), net, verdict))) {
    std::cerr << "cannot write '" << trace_path << "'\n";
    return 2;
  }
  return verdict.sound ? 0 : 1;
}

// ---- campaign -------------------------------------------------------------

int campaign_main(int argc, char** argv) {
  std::string spec_path;
  std::string json_path;
  std::string csv_path;
  CampaignOptions options;
  long budget_override = -1;
  double time_limit_override = -1.0;
  bool timing = false;
  bool quiet = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], options.threads)) return numeric_arg_error(arg);
      if (options.threads < 0) {
        std::cerr << "--threads must be >= 0\n";
        return usage();
      }
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--budget" && i + 1 < argc) {
      if (!parse_long_arg(argv[++i], budget_override)) return numeric_arg_error(arg);
      if (budget_override < 0) {
        std::cerr << "--budget must be >= 0\n";
        return usage();
      }
    } else if (arg == "--time-limit" && i + 1 < argc) {
      if (!parse_double_arg(argv[++i], time_limit_override)) return numeric_arg_error(arg);
      if (time_limit_override < 0.0) {
        std::cerr << "--time-limit must be >= 0\n";
        return usage();
      }
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      spec_path = arg;
    }
  }
  if (spec_path.empty()) return usage();
  if (!json_path.empty() && json_path == csv_path) {
    std::cerr << "--json and --csv must name different files\n";
    return usage();
  }

  // Probe the output paths up front — an unwritable path must fail in
  // seconds, not after a multi-minute campaign — but stage through sibling
  // temp files so a failed run never clobbers previous results.
  PendingOutput json_out;
  if (!json_path.empty() && !json_out.open_for(json_path)) {
    std::cerr << "cannot write '" << json_path << "'\n";
    return 2;
  }
  PendingOutput csv_out;
  if (!csv_path.empty() && !csv_out.open_for(csv_path)) {
    std::cerr << "cannot write '" << csv_path << "'\n";
    return 2;
  }

  std::ifstream in(spec_path);
  if (!in) {
    std::cerr << "cannot open '" << spec_path << "'\n";
    return 2;
  }
  auto spec = parse_campaign(in);
  if (!spec.ok()) {
    std::cerr << spec.error().message << "\n";
    return 2;
  }
  if (budget_override >= 0) spec.value().max_evaluations = budget_override;
  if (time_limit_override >= 0.0) spec.value().max_wall_seconds = time_limit_override;

  if (!quiet) {
    options.progress = [](std::size_t done, std::size_t total) {
      std::cerr << "\rscenario " << done << "/" << total;
      if (done == total) std::cerr << "\n";
    };
  }

  // The Section 7 bus parameters (10 Mbit/s, 5 us minislots) — the campaign
  // spec sweeps the application side; the bus is fixed like in the paper.
  BusParams params;
  CampaignRunner runner(spec.value(), params);
  auto result = runner.run(options);
  if (!result.ok()) {
    std::cerr << result.error().message << "\n";
    return 2;
  }

  std::size_t skipped = 0;
  for (const ScenarioRecord& record : result.value().scenarios) {
    if (!record.generated) ++skipped;
  }
  const bool all_skipped = skipped == result.value().scenarios.size();
  if (all_skipped) {
    std::cerr << "campaign '" << result.value().spec.name
              << "': every scenario failed generation\n";
    for (const ScenarioRecord& record : result.value().scenarios) {
      std::cerr << "skipped scenario " << record.plan.index << ": " << record.error << "\n";
      break;  // they are all degenerate; one reason is enough
    }
  }
  if (!quiet && !all_skipped) {
    std::cout << "campaign '" << result.value().spec.name << "': "
              << result.value().scenarios.size() << " scenarios (" << skipped
              << " skipped) in " << fmt_double(result.value().wall_seconds, 1) << " s\n\n";
    Table table({"algorithm", "scenarios", "schedulable", "cost p50 [us]", "cost p90 [us]",
                 "analyses/scenario"});
    for (const std::string& name : result.value().spec.algorithms) {
      const AlgorithmAggregate agg = aggregate_runs(result.value(), name);
      table.add_row({name, std::to_string(agg.scenarios),
                     std::to_string(agg.schedulable) + " (" +
                         fmt_percent(agg.schedulable_fraction) + ")",
                     agg.analysable > 0 ? fmt_double(agg.cost_p50, 1) : "-",
                     agg.analysable > 0 ? fmt_double(agg.cost_p90, 1) : "-",
                     fmt_double(agg.evaluations_mean, 1)});
    }
    table.print(std::cout);
    for (const ScenarioRecord& record : result.value().scenarios) {
      if (!record.generated) {
        std::cerr << "skipped scenario " << record.plan.index << ": " << record.error << "\n";
      }
    }
  }

  if (json_out.pending() && !json_out.commit(write_campaign_json(result.value(), timing))) {
    std::cerr << "cannot write '" << json_path << "'\n";
    return 2;
  }
  if (csv_out.pending() && !csv_out.commit(write_campaign_csv(result.value(), timing))) {
    std::cerr << "cannot write '" << csv_path << "'\n";
    return 2;
  }
  return all_skipped ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "campaign") return campaign_main(argc - 2, argv + 2);
    if (first == "simulate") return simulate_main(argc - 2, argv + 2);
    if (first == "solve") return solve_main(argc - 2, argv + 2);
    if (first == "--help" || first == "-h") return usage();
  }
  // Legacy spelling: no subcommand = solve.
  return solve_main(argc - 1, argv + 1);
}
