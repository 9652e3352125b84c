// flexopt_bench: end-to-end and per-layer benchmark of the flexopt library
// over three closed-loop workloads (fig9_campaign, multicluster_portfolio,
// exact_verify).  Every solve is budgeted by evaluations, never by wall
// clock, so every cost, evaluation count and bound is deterministic for a
// seed and only time varies.  See README.md for the metric definitions.
//
//   flexopt_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--out FILE] [--trace-out FILE]
//
// Prints the environment, every metric (name, value, unit, better
// direction), the record digest and, when traced, the per-layer self-time
// table.  --out writes the same as JSON, --trace-out the traced run's
// spans as Chrome trace-event JSON.  Exits 1 when the correctness gate
// fails (observed > bound, exact > holistic, a failed call, or a traced or
// repeated pass whose records differ from the first untraced pass).

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "flexopt/io/json_writer.hpp"
#include "flexopt/util/table.hpp"
#include "report.hpp"

namespace {

using namespace flexbench;

constexpr const char* kWorkloads[] = {"fig9_campaign", "multicluster_portfolio",
                                      "exact_verify"};

int usage(const std::string& why) {
  std::cerr << "flexopt_bench: " << why
            << "\nusage: flexopt_bench --workload fig9_campaign|multicluster_portfolio|"
               "exact_verify --seed N --seconds S --trace 0|1\n"
               "                     [--tiny] [--out FILE] [--trace-out FILE]\n";
  return 2;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// CPUs this process may run on, as `nproc` counts them.  Inside a
/// container hardware_concurrency() may count every CPU of the host.
int usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text << "\n";
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.threads = usable_cpus();
  std::string out_path;
  std::string trace_path;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
        have_seconds = options.seconds > 0.0;
      } else if (arg == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--out" && has_value) {
        out_path = argv[++i];
      } else if (arg == "--trace-out" && has_value) {
        trace_path = argv[++i];
      } else {
        return usage("unknown argument '" + arg + "'");
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known) return usage("unknown workload '" + options.workload + "'");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }

  const char* sha = std::getenv("FLEXOPT_BENCH_GIT_SHA");
  const std::vector<std::pair<std::string, std::string>> env = {
      {"git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown"},
      {"compiler", FLEXOPT_BENCH_COMPILER},
      {"build_type", FLEXOPT_BENCH_BUILD_TYPE},
      {"nproc", std::to_string(usable_cpus())},
      {"threads", std::to_string(options.threads)},
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", number(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"population", options.tiny ? "tiny" : "full"},
  };
  std::cout << "== flexopt_bench " << options.workload << " ==\n";
  for (const auto& [key, value] : env) std::cout << "env " << key << " = " << value << "\n";
  if (std::string(FLEXOPT_BENCH_BUILD_TYPE) != "Release") {
    const std::string warning = std::string("WARNING: ") + FLEXOPT_BENCH_BUILD_TYPE +
                                " build, not Release: timings are not comparable";
    std::cout << "!!! " << warning << " !!!\n";
    std::cerr << "!!! " << warning << " !!!\n";
  }

  Tracer tracer;
  Tracer* active = options.trace ? &tracer : nullptr;
  Outcome out;
  try {
    if (options.workload == "fig9_campaign") {
      out = run_fig9_campaign(options, active);
    } else if (options.workload == "multicluster_portfolio") {
      out = run_multicluster_portfolio(options, active);
    } else {
      out = run_exact_verify(options, active);
    }
  } catch (const std::exception& e) {
    std::cerr << "flexopt_bench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  out.add("failed_share", "ratio", "lower", Scope::EndToEnd,
          ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  flexopt::Table table({"metric", "value", "unit", "better", "scope"});
  for (const Metric& m : out.metrics) {
    table.add_row({m.name, number(m.value), m.unit, m.better,
                   m.scope == Scope::EndToEnd ? "end_to_end" : "per_layer"});
  }
  table.print(std::cout);
  const std::uint64_t records_digest = digest(out.records);
  std::cout << "digest " << options.workload << " seed " << options.seed << ": "
            << hex64(records_digest) << " over " << out.records.size()
            << " (cost, feasible, evaluations) records\n";
  if (options.trace) {
    std::cout << "per-layer self time (traced pass):\n";
    flexopt::Table layers({"layer", "spans", "total ms", "self ms"});
    for (const LayerTime& t : tracer.layer_times()) {
      layers.add_row({t.layer, std::to_string(t.spans), flexopt::fmt_double(t.total_ms, 1),
                      flexopt::fmt_double(t.self_ms, 1)});
    }
    layers.print(std::cout);
  }
  std::cout << "correctness: " << (correct ? "ok" : "FAILED") << ", " << out.failed
            << " failed of " << out.attempted << " operations\n";
  for (const std::string& why : out.failures) std::cout << "  failure: " << why << "\n";

  if (!out_path.empty()) {
    flexopt::JsonWriter json;
    json.begin_object();
    json.field("schema", "flexopt-bench/1");
    json.key("env").begin_object();
    for (const auto& [key, value] : env) json.field(key, value);
    json.end_object();
    json.field("correct", correct);
    json.field("attempted", out.attempted);
    json.field("failed", out.failed);
    json.key("failures").begin_array();
    for (const std::string& why : out.failures) json.value(why);
    json.end_array();
    json.field("digest", hex64(records_digest));
    json.field("records", out.records.size());
    json.key("metrics").begin_array();
    for (const Metric& m : out.metrics) {
      json.begin_object()
          .field("name", m.name)
          .field("value", m.value)
          .field("unit", m.unit)
          .field("better", m.better)
          .field("scope", m.scope == Scope::EndToEnd ? "end_to_end" : "per_layer")
          .end_object();
    }
    json.end_array();
    json.end_object();
    if (!write_file(out_path, json.str())) {
      std::cerr << "flexopt_bench: cannot write " << out_path << "\n";
      return 1;
    }
  }
  if (options.trace && !trace_path.empty()) {
    if (!write_file(trace_path, tracer.chrome_trace_json(env))) {
      std::cerr << "flexopt_bench: cannot write " << trace_path << "\n";
      return 1;
    }
    std::cout << "chrome trace: " << trace_path << "\n";
  }
  return correct ? 0 : 1;
}
