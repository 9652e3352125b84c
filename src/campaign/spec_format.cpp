#include "flexopt/campaign/spec_format.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

#include "flexopt/core/portfolio.hpp"
#include "flexopt/io/system_format.hpp"
#include "flexopt/util/suggest.hpp"

namespace flexopt {
namespace {

Error line_error(int line, const std::string& message) {
  return make_error("campaign spec line " + std::to_string(line) + ": " + message);
}

Expected<double> parse_double(const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) return make_error("trailing characters in '" + text + "'");
    return v;
  } catch (const std::exception&) {
    return make_error("expected a number, got '" + text + "'");
  }
}

Expected<std::int64_t> parse_int(const std::string& text) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(text, &pos);
    if (pos != text.size()) return make_error("trailing characters in '" + text + "'");
    return v;
  } catch (const std::exception&) {
    return make_error("expected an integer, got '" + text + "'");
  }
}

/// Range-checked int parse: out-of-range values must error, not wrap — a
/// truncated count silently runs a different experiment.
Expected<int> parse_int32(const std::string& text) {
  auto v = parse_int(text);
  if (!v.ok()) return v.error();
  if (v.value() < std::numeric_limits<int>::min() ||
      v.value() > std::numeric_limits<int>::max()) {
    return make_error("value out of range: '" + text + "'");
  }
  return static_cast<int>(v.value());
}

Expected<std::uint64_t> parse_uint(const std::string& text) {
  if (!text.empty() && text[0] == '-') {
    return make_error("expected an unsigned integer, got '" + text + "'");
  }
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(text, &pos);
    if (pos != text.size()) return make_error("trailing characters in '" + text + "'");
    return v;
  } catch (const std::exception&) {
    return make_error("expected an unsigned integer, got '" + text + "'");
  }
}

/// Every keyword the parser understands, for the unknown-keyword
/// diagnostic below.  Keep in sync with the dispatch chain in
/// parse_campaign (a keyword added there but not here degrades the "did
/// you mean" hint for its near-typos; spec_format_test's keyword tests
/// cover the common spellings).
constexpr std::string_view kKeywords[] = {
    "name",
    "nodes",
    "topology",
    "clusters",
    "backend",
    "analysis_mode",
    "traffic",
    "node_util",
    "bus_util",
    "periods",
    "message_bytes",
    "replicates",
    "tasks_per_node",
    "tasks_per_graph",
    "tt_share",
    "inter_share",
    "deadline_factor",
    "seed",
    "algorithms",
    "portfolio_members",
    "budget",
    "time_limit",
    "sim_check",
};

std::string unknown_keyword_message(const std::string& keyword) {
  return "unknown keyword '" + keyword + "'" + suggest_hint(keyword, kKeywords);
}

Expected<UtilBand> parse_band(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return make_error("expected lo:hi utilisation band, got '" + text + "'");
  }
  auto lo = parse_double(text.substr(0, colon));
  if (!lo.ok()) return lo.error();
  auto hi = parse_double(text.substr(colon + 1));
  if (!hi.ok()) return hi.error();
  return UtilBand{lo.value(), hi.value()};
}

}  // namespace

Expected<CampaignSpec> parse_campaign(std::istream& in) {
  CampaignSpec spec;
  std::string line;
  int line_no = 0;
  // Axis keywords replace the built-in default on their first occurrence
  // and extend the axis afterwards (periods always extends: each line is
  // one period-set axis value).
  bool nodes_set = false, topo_set = false, clusters_set = false, backend_set = false,
       mode_set = false, traffic_set = false, node_util_set = false, bus_util_set = false,
       periods_set = false, bytes_set = false, algorithms_set = false;

  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string keyword;
    if (!(tokens >> keyword)) continue;  // blank / comment-only line

    std::vector<std::string> values;
    for (std::string v; tokens >> v;) values.push_back(std::move(v));
    if (values.empty()) return line_error(line_no, "'" + keyword + "' needs a value");
    const std::string& first = values.front();
    // Scalar keywords take exactly one value; surplus tokens on a line that
    // is not an axis would otherwise vanish silently — the worst failure
    // mode for a reproducible-experiment spec.
    const bool is_axis = keyword == "nodes" || keyword == "topology" ||
                         keyword == "clusters" || keyword == "backend" ||
                         keyword == "analysis_mode" || keyword == "traffic" ||
                         keyword == "node_util" || keyword == "bus_util" ||
                         keyword == "periods" || keyword == "message_bytes" ||
                         keyword == "algorithms" || keyword == "portfolio_members";
    if (!is_axis && values.size() > 1) {
      return line_error(line_no, "'" + keyword + "' takes a single value");
    }

    if (keyword == "name") {
      spec.name = first;
    } else if (keyword == "nodes") {
      if (!nodes_set) spec.node_counts.clear();
      nodes_set = true;
      for (const std::string& v : values) {
        auto n = parse_int32(v);
        if (!n.ok()) return line_error(line_no, n.error().message);
        spec.node_counts.push_back(n.value());
      }
    } else if (keyword == "topology") {
      if (!topo_set) spec.topologies.clear();
      topo_set = true;
      for (const std::string& v : values) {
        auto t = parse_topology(v);
        if (!t.ok()) return line_error(line_no, t.error().message);
        spec.topologies.push_back(t.value());
      }
    } else if (keyword == "clusters") {
      if (!clusters_set) spec.cluster_counts.clear();
      clusters_set = true;
      for (const std::string& v : values) {
        auto c = parse_int32(v);
        if (!c.ok()) return line_error(line_no, c.error().message);
        spec.cluster_counts.push_back(c.value());
      }
    } else if (keyword == "backend") {
      if (!backend_set) spec.backends.clear();
      backend_set = true;
      for (const std::string& v : values) {
        auto b = parse_backend_mix(v);
        if (!b.ok()) return line_error(line_no, b.error().message);
        spec.backends.push_back(b.value());
      }
    } else if (keyword == "analysis_mode") {
      if (!mode_set) spec.analysis_modes.clear();
      mode_set = true;
      for (const std::string& v : values) {
        auto m = parse_analysis_mode(v);
        if (!m.ok()) return line_error(line_no, m.error().message);
        spec.analysis_modes.push_back(m.value());
      }
    } else if (keyword == "traffic") {
      if (!traffic_set) spec.traffic_mixes.clear();
      traffic_set = true;
      for (const std::string& v : values) {
        auto t = parse_traffic_mix(v);
        if (!t.ok()) return line_error(line_no, t.error().message);
        spec.traffic_mixes.push_back(t.value());
      }
    } else if (keyword == "node_util") {
      if (!node_util_set) spec.node_util_bands.clear();
      node_util_set = true;
      for (const std::string& v : values) {
        auto band = parse_band(v);
        if (!band.ok()) return line_error(line_no, band.error().message);
        spec.node_util_bands.push_back(band.value());
      }
    } else if (keyword == "bus_util") {
      if (!bus_util_set) spec.bus_util_bands.clear();
      bus_util_set = true;
      for (const std::string& v : values) {
        auto band = parse_band(v);
        if (!band.ok()) return line_error(line_no, band.error().message);
        spec.bus_util_bands.push_back(band.value());
      }
    } else if (keyword == "periods") {
      if (!periods_set) spec.period_sets.clear();
      periods_set = true;
      std::vector<Time> periods;
      for (const std::string& v : values) {
        auto p = parse_duration(v);
        if (!p.ok()) return line_error(line_no, p.error().message);
        periods.push_back(p.value());
      }
      spec.period_sets.push_back(std::move(periods));
    } else if (keyword == "message_bytes") {
      if (!bytes_set) spec.message_size_caps.clear();
      bytes_set = true;
      for (const std::string& v : values) {
        auto b = parse_int32(v);
        if (!b.ok()) return line_error(line_no, b.error().message);
        spec.message_size_caps.push_back(b.value());
      }
    } else if (keyword == "replicates") {
      auto v = parse_int32(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      spec.replicates = v.value();
    } else if (keyword == "tasks_per_node") {
      auto v = parse_int32(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      spec.tasks_per_node = v.value();
    } else if (keyword == "tasks_per_graph") {
      auto v = parse_int32(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      spec.tasks_per_graph = v.value();
    } else if (keyword == "tt_share") {
      auto v = parse_double(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      spec.tt_share = v.value();
    } else if (keyword == "inter_share") {
      auto v = parse_double(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      spec.inter_cluster_share = v.value();
    } else if (keyword == "deadline_factor") {
      auto v = parse_double(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      spec.deadline_factor = v.value();
    } else if (keyword == "seed") {
      auto v = parse_uint(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      spec.base_seed = v.value();
    } else if (keyword == "algorithms") {
      if (!algorithms_set) spec.algorithms.clear();
      algorithms_set = true;
      for (const std::string& v : values) spec.algorithms.push_back(v);
    } else if (keyword == "portfolio_members") {
      // Member tokens accept the CLI repetition syntax ("4xsa"); expansion
      // and validation happen in parse_portfolio_members so the spec file
      // and --members agree on spelling.
      std::string joined;
      for (const std::string& v : values) {
        if (!joined.empty()) joined += ",";
        joined += v;
      }
      auto members = parse_portfolio_members(joined);
      if (!members.ok()) return line_error(line_no, members.error().message);
      spec.portfolio_members = std::move(members).value();
    } else if (keyword == "budget") {
      auto v = parse_int(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      if (v.value() < 0) return line_error(line_no, "budget must be >= 0");
      spec.max_evaluations = v.value();
    } else if (keyword == "time_limit") {
      auto v = parse_double(first);
      if (!v.ok()) return line_error(line_no, v.error().message);
      if (v.value() < 0.0) return line_error(line_no, "time_limit must be >= 0");
      spec.max_wall_seconds = v.value();
    } else if (keyword == "sim_check") {
      if (first == "on" || first == "true" || first == "1") {
        spec.sim_check = true;
      } else if (first == "off" || first == "false" || first == "0") {
        spec.sim_check = false;
      } else {
        return line_error(line_no, "sim_check expects on/off, got '" + first + "'");
      }
    } else {
      return line_error(line_no, unknown_keyword_message(keyword));
    }
  }
  return spec;
}

Expected<CampaignSpec> parse_campaign_text(const std::string& text) {
  std::istringstream in(text);
  return parse_campaign(in);
}

}  // namespace flexopt
