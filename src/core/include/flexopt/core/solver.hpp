#pragma once

/// \file solver.hpp
/// The unified optimisation surface: a polymorphic Optimizer interface and
/// a string-keyed OptimizerRegistry with self-registering factories for the
/// four algorithms of the paper (bbc, obc-ee, obc-cf, sa).  Front-ends
/// (CLI, benches, examples, services) drive optimisation exclusively
/// through this header:
///
///   auto optimizer = OptimizerRegistry::create("obc-cf");
///   if (!optimizer.ok()) ...;                 // unknown name, bad payload
///   SolveRequest request;
///   request.max_evaluations = 5000;
///   SolveReport report = optimizer.value()->solve(evaluator, request);
///
/// The old per-algorithm option structs remain the tuning payloads, passed
/// through OptimizerParams at creation time.

#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "flexopt/core/bbc.hpp"
#include "flexopt/core/obc.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/core/solve_types.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

/// OBC with the exhaustive DYN-length strategy (OBC-EE).
struct ObcEeParams {
  ObcOptions obc;
  ExhaustiveDynOptions dyn;
};

/// OBC with the curve-fitting DYN-length strategy (OBC-CF, the paper's
/// contribution).
struct ObcCfParams {
  ObcOptions obc;
  CurveFitDynOptions dyn;
};

/// Per-algorithm tuning payload handed to OptimizerRegistry::create;
/// monostate selects the algorithm's defaults.  PortfolioSpec (defined in
/// solve_types.hpp) is the payload of the "portfolio" meta-optimizer.
using OptimizerParams = std::variant<std::monostate, BbcOptions, ObcEeParams, ObcCfParams,
                                     SaOptions, PortfolioSpec>;

/// A bus-access optimisation algorithm behind the unified API.  Stateless
/// across solves: one instance may serve any number of sequential solve()
/// calls (on the same or different evaluators).
///
/// Implementations override solve_cluster(), which optimises ONE bus: the
/// evaluator's focus coordinate (CostEvaluator::set_focus) — the bus of a
/// single-cluster FlexRay system, which is focused from construction, or
/// one FlexRay coordinate of a multi-cluster configuration product.  The
/// evaluator scores every candidate against the full system either way.
/// Front-ends call solve(), which hands a focused evaluator straight to
/// solve_cluster, drives an unfocused multi-cluster system through a
/// deterministic block-coordinate descent over the clusters (focusing each
/// FlexRay cluster in turn), and solves a single-cluster TSN system with
/// the TSN descent (flexopt/core/tsn_search.hpp).
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Registry name ("bbc", "obc-ee", "obc-cf", "sa", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Algorithm hook: optimise the evaluator's focused cluster.
  virtual SolveReport solve_cluster(CostEvaluator& evaluator, const SolveRequest& request) = 0;
  /// Unified entry point (see class comment).  Also guarantees
  /// outcome.system is filled for every solve.
  SolveReport solve(CostEvaluator& evaluator, const SolveRequest& request);
  SolveReport solve(CostEvaluator& evaluator) { return solve(evaluator, SolveRequest{}); }
};

struct OptimizerInfo {
  std::string name;
  std::string description;
};

/// Process-wide, thread-safe registry of optimizer factories.  The four
/// built-in algorithms self-register; additional algorithms can be added
/// with register_optimizer or a static Registrar.
class OptimizerRegistry {
 public:
  using Factory =
      std::function<Expected<std::unique_ptr<Optimizer>>(const OptimizerParams&)>;

  /// Instantiates the named optimizer.  Names are case-insensitive and the
  /// legacy CLI spellings ("obccf", "obcee") are accepted as aliases.
  /// Errors on unknown names (the message lists the valid set) and on
  /// payloads of the wrong type.
  [[nodiscard]] static Expected<std::unique_ptr<Optimizer>> create(
      std::string_view name, const OptimizerParams& params = {});

  /// All registered algorithms, sorted by name.
  [[nodiscard]] static std::vector<OptimizerInfo> list();

  [[nodiscard]] static bool contains(std::string_view name);

  /// Registers (or replaces) a factory under `name`.
  static void register_optimizer(std::string name, std::string description, Factory factory);

  /// Registers a factory at static-initialisation time:
  ///   static OptimizerRegistry::Registrar r{"my-alg", "...", factory};
  struct Registrar {
    Registrar(std::string name, std::string description, Factory factory) {
      register_optimizer(std::move(name), std::move(description), std::move(factory));
    }
  };
};

namespace detail {
/// Defined in builtin_optimizers.cpp; referenced by every registry lookup
/// so the linker keeps the built-in factories even in static-library
/// builds.
void ensure_builtin_optimizers_registered();
}  // namespace detail

}  // namespace flexopt
