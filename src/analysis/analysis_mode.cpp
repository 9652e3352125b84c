#include "flexopt/analysis/analysis_mode.hpp"

#include <array>
#include <string>

#include "flexopt/util/suggest.hpp"

namespace flexopt {

const char* to_string(AnalysisMode mode) {
  switch (mode) {
    case AnalysisMode::Holistic:
      return "holistic";
    case AnalysisMode::Exact:
      return "exact";
  }
  return "?";
}

Expected<AnalysisMode> parse_analysis_mode(std::string_view text) {
  if (text == "holistic") return AnalysisMode::Holistic;
  if (text == "exact") return AnalysisMode::Exact;
  static constexpr std::array<std::string_view, 2> kModes = {"holistic", "exact"};
  return make_error("unknown analysis mode '" + std::string(text) +
                    "' (expected holistic or exact)" +
                    suggest_hint(text, kModes));
}

const char* to_string(ExactFallback fallback) {
  switch (fallback) {
    case ExactFallback::None:
      return "none";
    case ExactFallback::UnsupportedBackend:
      return "unsupported-backend";
    case ExactFallback::NoDynMessages:
      return "no-dyn-messages";
    case ExactFallback::NotConverged:
      return "not-converged";
    case ExactFallback::UnboundedJitter:
      return "unbounded-jitter";
    case ExactFallback::BudgetExceeded:
      return "budget-exceeded";
    case ExactFallback::InvalidOptions:
      return "invalid-options";
  }
  return "?";
}

}  // namespace flexopt
