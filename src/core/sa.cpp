#include "flexopt/core/sa.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "flexopt/core/bbc.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/obc.hpp"
#include "flexopt/core/solve_types.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {

// Geometric cooling: T0 = kInitialTemperatureFactor * |initial cost|, then
// kIterationsPerTemperature moves per temperature and T *= kCooling.
constexpr double kInitialTemperatureFactor = 0.25;
constexpr double kCooling = 0.97;
constexpr int kIterationsPerTemperature = 20;

bool random_neighbour_move(BusConfig& config, const Application& app, const BusParams& params,
                           Rng& rng, const std::vector<NodeId>& st_senders, int dyn_min,
                           int dyn_max) {
  const Time payload_step = SpecLimits::kPayloadStepBits * params.gd_bit;
  const Time len_min = min_static_slot_len(app, params);
  const Time len_max = SpecLimits::kMaxStaticSlotMacroticks * params.gd_macrotick;

  switch (rng.uniform_int(0, 5)) {
    case 0: {  // +- one ST slot
      if (st_senders.empty()) return false;
      const int delta = rng.chance(0.5) ? 1 : -1;
      const int next = config.static_slot_count + delta;
      if (next < static_cast<int>(st_senders.size()) || next > SpecLimits::kMaxStaticSlots) {
        return false;
      }
      config.static_slot_count = next;
      config.static_slot_owner = assign_static_slots(app, next);
      return true;
    }
    case 1: {  // +- ST slot length (payload-increment steps)
      if (config.static_slot_count == 0) return false;
      const Time delta = payload_step * rng.uniform_int(1, 4) * (rng.chance(0.5) ? 1 : -1);
      const Time next = config.static_slot_len + delta;
      if (next < len_min || next > len_max) return false;
      config.static_slot_len = next;
      return true;
    }
    case 2: {  // +- DYN segment length
      if (dyn_max == 0) return false;
      const int delta =
          static_cast<int>(rng.uniform_int(1, 64)) * (rng.chance(0.5) ? 1 : -1);
      const int next = config.minislot_count + delta;
      if (next < dyn_min || next > dyn_max) return false;
      config.minislot_count = next;
      return true;
    }
    case 3: {  // reassign one ST slot to another sender
      if (config.static_slot_owner.size() < 2 || st_senders.size() < 2) return false;
      const std::size_t slot = rng.index(config.static_slot_owner.size());
      config.static_slot_owner[slot] = st_senders[rng.index(st_senders.size())];
      return true;
    }
    case 4: {  // swap the FrameIDs of two DYN messages
      std::vector<std::size_t> dyn;
      for (std::size_t m = 0; m < config.frame_id.size(); ++m) {
        if (config.frame_id[m] != 0) dyn.push_back(m);
      }
      if (dyn.size() < 2) return false;
      const std::size_t a = dyn[rng.index(dyn.size())];
      const std::size_t b = dyn[rng.index(dyn.size())];
      if (a == b) return false;
      std::swap(config.frame_id[a], config.frame_id[b]);
      return true;
    }
    case 5: {  // move one DYN message to a random FrameID
      std::vector<std::size_t> dyn;
      for (std::size_t m = 0; m < config.frame_id.size(); ++m) {
        if (config.frame_id[m] != 0) dyn.push_back(m);
      }
      if (dyn.empty() || config.minislot_count < 1) return false;
      const std::size_t m = dyn[rng.index(dyn.size())];
      config.frame_id[m] =
          static_cast<int>(rng.uniform_int(1, std::min(config.minislot_count,
                                                       static_cast<int>(dyn.size()) * 2)));
      return true;
    }
    default:
      return false;
  }
}

OptimizationOutcome optimize_sa(CostEvaluator& evaluator, const SaOptions& options,
                                SolveControl* control) {
  const auto t0 = std::chrono::steady_clock::now();
  const Application& app = evaluator.application();
  const BusParams& params = evaluator.params();
  const long evals_before = evaluator.evaluations();
  Rng rng(options.seed);

  OptimizationOutcome outcome;
  outcome.algorithm = "SA";

  // Initial state: a coarse BBC sweep (Fig. 5) seeds the annealer with a
  // constructive solution; SA then explores slot counts/lengths/ownership
  // and FrameIDs around it.  The seeding evaluations count against the
  // budget, and SA keeps the best-ever solution, so it never reports worse
  // than the basic configuration.
  const StartConfig start = minimal_start_config(app, params);
  const std::vector<NodeId>& senders = start.st_senders;
  const DynBounds& bounds = start.bounds;
  if (!bounds.feasible()) return outcome;
  BusConfig current = start.config;

  BbcOptions seed_options;
  seed_options.max_sweep_points =
      static_cast<int>(std::min<long>(16, std::max<long>(2, options.max_evaluations / 8)));
  OptimizationOutcome seed = optimize_bbc(evaluator, seed_options, control);
  {
    // A quick OBC-CF pass often lands in feasibility pockets the coarse BBC
    // sweep misses; starting the annealer there makes the budgeted SA a
    // meaningful near-optimal reference (the paper's SA simply ran for
    // hours instead).  Both seeding passes are charged to the budget.
    CurveFitDynOptions cf_options;
    cf_options.n_max = 5;
    CurveFitDynSearch cf(cf_options);
    const OptimizationOutcome alt = optimize_obc(evaluator, cf, {}, control);
    if (alt.cost.value < seed.cost.value) seed = alt;
  }
  double current_cost = kInvalidConfigCost;
  if (seed.cost.value < kInvalidConfigCost) {
    current = seed.config;
    current_cost = seed.cost.value;
    outcome.config = current;
    outcome.cost = seed.cost;
    outcome.feasible = seed.feasible;
  } else {
    current.minislot_count = bounds.min_minislots;
    const auto eval = evaluator.evaluate(current);
    if (eval.valid) {
      current_cost = eval.cost.value;
      outcome.config = current;
      outcome.cost = eval.cost;
      outcome.feasible = eval.cost.schedulable;
    }
  }

  double temperature =
      std::max(1.0, std::abs(current_cost) * kInitialTemperatureFactor);
  const double t_min = 1e-3;

  while (evaluator.evaluations() - evals_before < options.max_evaluations &&
         temperature > t_min) {
    if (control != nullptr && control->should_stop(evaluator)) break;
    for (int i = 0; i < kIterationsPerTemperature; ++i) {
      if (evaluator.evaluations() - evals_before >= options.max_evaluations) break;
      if (control != nullptr && control->should_stop(evaluator)) break;
      BusConfig neighbour = current;
      bool moved = false;
      for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
        moved = random_neighbour_move(neighbour, app, params, rng, senders,
                                      bounds.min_minislots, SpecLimits::kMaxMinislots);
      }
      if (!moved) continue;

      // The slot form returns a reference into the evaluator's thread
      // slot — valid here because nothing else evaluates on this thread
      // before the next iteration overwrites it.
      const CostEvaluator::Evaluation& eval = evaluator.evaluate_in_slot(neighbour);
      const double cost = eval.valid ? eval.cost.value : kInvalidConfigCost;
      const double delta = cost - current_cost;
      if (delta <= 0.0 || rng.uniform_real(0.0, 1.0) < std::exp(-delta / temperature)) {
        current = std::move(neighbour);
        current_cost = cost;
      }
      if (eval.valid && eval.cost.value < outcome.cost.value) {
        outcome.config = current;
        outcome.cost = eval.cost;
        outcome.feasible = eval.cost.schedulable;
        if (control != nullptr) control->note_best(outcome.cost);
        if (outcome.feasible && options.stop_at_first_feasible) {
          outcome.evaluations = evaluator.evaluations() - evals_before;
          outcome.wall_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
          return outcome;
        }
      }
    }
    temperature *= kCooling;
  }

  outcome.evaluations = evaluator.evaluations() - evals_before;
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return outcome;
}

}  // namespace flexopt
