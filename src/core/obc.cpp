#include "flexopt/core/obc.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/solve_types.hpp"

namespace flexopt {

/// ST slot lengths explored per slot count.  The paper steps by 20 * gdBit
/// up to 661 macroticks; the cap bounds the loop, the step is widened to
/// cover [min, 661 MT] with this many samples when needed.
constexpr int kMaxSlotLenSteps = 8;

OptimizationOutcome optimize_obc(CostEvaluator& evaluator, DynSegmentStrategy& dyn_strategy,
                                 const ObcOptions& options, SolveControl* control) {
  const auto t0 = std::chrono::steady_clock::now();
  const Application& app = evaluator.application();
  const BusParams& params = evaluator.params();
  const long evals_before = evaluator.evaluations();

  OptimizationOutcome outcome;
  outcome.algorithm = std::string("OBC-") + dyn_strategy.name();

  // Fig. 6 line 1: FrameID assignment, as in BBC.
  const std::vector<int> frame_ids = options.criticality_frame_ids
                                         ? assign_frame_ids_by_criticality(app, params)
                                         : assign_frame_ids_arbitrary(app);

  const std::vector<NodeId> senders = st_sender_nodes(app);
  const int slots_min = static_cast<int>(senders.size());
  const int slots_max =
      std::min(SpecLimits::kMaxStaticSlots, slots_min + options.max_extra_slots);

  const Time len_min = min_static_slot_len(app, params);
  const Time len_max = SpecLimits::kMaxStaticSlotMacroticks * params.gd_macrotick;
  const Time payload_step = SpecLimits::kPayloadStepBits * params.gd_bit;
  // Widen the step so at most kMaxSlotLenSteps lengths are tried, keeping
  // it a multiple of the 2-byte payload increment.
  Time len_step = payload_step;
  if (len_min < len_max) {
    const Time span = len_max - len_min;
    const Time needed = span / (kMaxSlotLenSteps - 1);
    len_step = std::max(payload_step, ceil_div(needed, payload_step) * payload_step);
  }

  auto finish = [&](OptimizationOutcome out) {
    out.evaluations = evaluator.evaluations() - evals_before;
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return out;
  };

  // Fig. 6 lines 2-9: nested ST exploration.
  for (int slot_count = std::max(slots_min, senders.empty() ? 0 : slots_min);
       slot_count <= std::max(slots_max, slots_min); ++slot_count) {
    int len_steps = 0;
    const int len_steps_cap = slot_count == 0 ? 1 : kMaxSlotLenSteps;
    for (Time slot_len = len_min; slot_len <= len_max && len_steps < len_steps_cap;
         slot_len += len_step, ++len_steps) {
      if (control != nullptr && control->should_stop(evaluator)) return finish(outcome);
      BusConfig base;
      base.frame_id = frame_ids;
      base.static_slot_count = slot_count;
      base.static_slot_len = slot_count > 0 ? slot_len : 0;
      base.static_slot_owner = assign_static_slots(app, slot_count);

      const Time st_len = static_cast<Time>(slot_count) * base.static_slot_len;
      const DynBounds bounds = dyn_segment_bounds(app, params, st_len);
      if (!bounds.feasible()) continue;

      const DynSearchResult dyn = dyn_strategy.search(
          evaluator, base, bounds.min_minislots, bounds.max_minislots, control);
      if (!dyn.exact) continue;

      if (dyn.cost.value < outcome.cost.value) {
        outcome.cost = dyn.cost;
        outcome.config = base;
        outcome.config.minislot_count = dyn.minislots;
        outcome.feasible = dyn.cost.schedulable;
        if (control != nullptr) control->note_best(outcome.cost);
      }
      // Fig. 6 line 7: stop as soon as a feasible configuration is found.
      if (outcome.feasible) return finish(outcome);
    }
    if (slot_count == 0) break;  // no ST senders: nothing more to explore
  }

  return finish(outcome);
}

}  // namespace flexopt
