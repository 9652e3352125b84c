#pragma once

/// \file portfolio.hpp
/// The "portfolio" meta-optimizer: races N registry members (any key x
/// derived seed, e.g. 4x multi-start SA + OBC-EE) on PortfolioSpec::jobs
/// workers of parallel_for over one shared application, publishing improvements to a lock-cheap shared
/// incumbent and selecting the global best as the winner.
///
/// Determinism contract (default mode): every member solves on its own
/// single-threaded evaluator with seed derive_seed(base, index) and its own
/// fixed share of the evaluation budget, so each member's trajectory is a
/// function of (application, member index, base seed) only; the winner is
/// the cost-argmin with ties broken by member index.  The winning BusConfig,
/// its cost, and every member sub-report (minus wall_seconds) are therefore
/// bit-identical for any PortfolioSpec::jobs value and any worker claim
/// order.  Two requests trade that contract for speed, exactly like the
/// campaign runner's wall-clock caveat: SolveRequest::max_wall_seconds and
/// PortfolioSpec::racing_cut.
///
/// The shared incumbent serves three roles: aggregated progress reporting
/// (SolveProgress::best_cost is the global best while the race runs),
/// cooperative cancellation fan-out (the parent cancel flag or a false
/// progress return stops every member at its next cancellation point), and
/// — in racing_cut mode — early-cutting members that are strictly
/// dominated by another member's published best.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flexopt/core/solver.hpp"

namespace flexopt {

/// True iff `key` names the portfolio meta-optimizer in any spelling the
/// registry accepts (names are case-insensitive there).  Front-ends that
/// special-case portfolio handling (CLI payloads, campaign thread budgets)
/// must use this instead of comparing against "portfolio" directly.
[[nodiscard]] bool is_portfolio_algorithm(std::string_view key);

/// Parses the CLI/spec member-list syntax: comma- or whitespace-separated
/// registry keys, each optionally repeated with an NxKEY prefix —
/// "4xsa,obc-ee" = {sa, sa, sa, sa, obc-ee}.  Errors on empty lists, bad
/// counts, unknown keys, and "portfolio" itself (no nesting).
[[nodiscard]] Expected<std::vector<std::string>> parse_portfolio_members(std::string_view text);

/// Renders a member list back to the canonical NxKEY spelling
/// ("4xsa+obc-ee") used in reports and bench labels.
[[nodiscard]] std::string format_portfolio_members(const std::vector<std::string>& members);

/// Validates `spec` (non-empty known members, no nesting, jobs >= 0,
/// claim_order a permutation when present) and builds the optimizer the
/// registry serves under "portfolio".
[[nodiscard]] Expected<std::unique_ptr<Optimizer>> make_portfolio_optimizer(PortfolioSpec spec);

}  // namespace flexopt
