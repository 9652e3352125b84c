#include <memory>
#include <utility>

#include "flexopt/core/portfolio.hpp"
#include "flexopt/core/solver.hpp"

/// \file builtin_optimizers.cpp
/// The four algorithms of the paper behind the unified Optimizer interface,
/// registered under the names the Fig. 9 evaluation uses: bbc, obc-ee,
/// obc-cf, sa.  Each wrapper builds a SolveControl from the SolveRequest,
/// runs the algorithm core, and reports how the run ended plus the
/// evaluator-cache deltas.

namespace flexopt {
namespace {

template <typename Fn>
SolveReport run_with_control(CostEvaluator& evaluator, const SolveRequest& request,
                             std::string_view algorithm, Fn&& run) {
  const EvaluatorCacheStats before = evaluator.cache_stats();
  const EvaluatorWorkStats work_before = evaluator.work_stats();
  SolveControl control(request, evaluator, algorithm);
  SolveReport report;
  report.outcome = run(control);
  report.status = control.status();
  const EvaluatorCacheStats after = evaluator.cache_stats();
  report.cache_hits = after.hits - before.hits;
  report.cache_misses = after.misses - before.misses;
  const EvaluatorWorkStats work_after = evaluator.work_stats();
  report.components_recomputed =
      work_after.analysis.components() - work_before.analysis.components();
  report.components_reused = work_after.components_reused() - work_before.components_reused();
  report.profile = work_after.since(work_before);
  return report;
}

class BbcOptimizer final : public Optimizer {
 public:
  explicit BbcOptimizer(BbcOptions options) : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "bbc"; }
  SolveReport solve_cluster(CostEvaluator& evaluator, const SolveRequest& request) override {
    return run_with_control(evaluator, request, "BBC", [&](SolveControl& control) {
      return optimize_bbc(evaluator, options_, &control);
    });
  }

 private:
  BbcOptions options_;
};

class ObcEeOptimizer final : public Optimizer {
 public:
  explicit ObcEeOptimizer(ObcEeParams params) : params_(std::move(params)) {}
  [[nodiscard]] std::string_view name() const override { return "obc-ee"; }
  SolveReport solve_cluster(CostEvaluator& evaluator, const SolveRequest& request) override {
    return run_with_control(evaluator, request, "OBC-EE", [&](SolveControl& control) {
      ExhaustiveDynSearch strategy(params_.dyn);
      return optimize_obc(evaluator, strategy, params_.obc, &control);
    });
  }

 private:
  ObcEeParams params_;
};

class ObcCfOptimizer final : public Optimizer {
 public:
  explicit ObcCfOptimizer(ObcCfParams params) : params_(std::move(params)) {}
  [[nodiscard]] std::string_view name() const override { return "obc-cf"; }
  SolveReport solve_cluster(CostEvaluator& evaluator, const SolveRequest& request) override {
    return run_with_control(evaluator, request, "OBC-CF", [&](SolveControl& control) {
      CurveFitDynSearch strategy(params_.dyn);
      return optimize_obc(evaluator, strategy, params_.obc, &control);
    });
  }

 private:
  ObcCfParams params_;
};

class SaOptimizer final : public Optimizer {
 public:
  explicit SaOptimizer(SaOptions options) : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "sa"; }
  SolveReport solve_cluster(CostEvaluator& evaluator, const SolveRequest& request) override {
    SaOptions options = options_;
    if (request.seed) options.seed = *request.seed;
    if (request.max_evaluations > 0) options.max_evaluations = request.max_evaluations;
    return run_with_control(evaluator, request, "SA", [&](SolveControl& control) {
      OptimizationOutcome outcome = optimize_sa(evaluator, options, &control);
      // SA's own loop enforces the same budget and usually exits before the
      // control notices; fix up the status so the report says *why* it
      // ended (BudgetExhausted, not Complete) when the budget was the reason.
      control.mark_budget_exhausted_if_spent(evaluator);
      return outcome;
    });
  }

 private:
  SaOptions options_;
};

/// Extracts the expected payload type, accepting monostate as "defaults".
template <typename Params, typename Impl>
Expected<std::unique_ptr<Optimizer>> make_from(const OptimizerParams& params,
                                               const char* name) {
  if (std::holds_alternative<std::monostate>(params)) {
    return std::unique_ptr<Optimizer>(std::make_unique<Impl>(Params{}));
  }
  if (const Params* p = std::get_if<Params>(&params)) {
    return std::unique_ptr<Optimizer>(std::make_unique<Impl>(*p));
  }
  return make_error(std::string("optimizer '") + name +
                    "' was given a parameter payload of the wrong type");
}

}  // namespace

namespace detail {

void ensure_builtin_optimizers_registered() {
  static const bool registered = [] {
    OptimizerRegistry::register_optimizer(
        "bbc", "Basic Bus Configuration: minimal ST segment + DYN length sweep (Fig. 5)",
        [](const OptimizerParams& p) { return make_from<BbcOptions, BbcOptimizer>(p, "bbc"); });
    OptimizerRegistry::register_optimizer(
        "obc-ee", "Optimised Bus Configuration, exhaustive DYN length search (Fig. 6)",
        [](const OptimizerParams& p) {
          return make_from<ObcEeParams, ObcEeOptimizer>(p, "obc-ee");
        });
    OptimizerRegistry::register_optimizer(
        "obc-cf", "Optimised Bus Configuration, curve-fitting DYN length search (Fig. 6+8)",
        [](const OptimizerParams& p) {
          return make_from<ObcCfParams, ObcCfOptimizer>(p, "obc-cf");
        });
    OptimizerRegistry::register_optimizer(
        "sa", "Simulated annealing over the full configuration space (Section 7 baseline)",
        [](const OptimizerParams& p) { return make_from<SaOptions, SaOptimizer>(p, "sa"); });
    OptimizerRegistry::register_optimizer(
        "portfolio",
        "Racing portfolio of registry members (seeds derived per member; deterministic winner)",
        [](const OptimizerParams& p) -> Expected<std::unique_ptr<Optimizer>> {
          if (std::holds_alternative<std::monostate>(p)) {
            return make_portfolio_optimizer(PortfolioSpec{});
          }
          if (const PortfolioSpec* spec = std::get_if<PortfolioSpec>(&p)) {
            return make_portfolio_optimizer(*spec);
          }
          return make_error(
              "optimizer 'portfolio' was given a parameter payload of the wrong type");
        });
    return true;
  }();
  (void)registered;
}

}  // namespace detail
}  // namespace flexopt
