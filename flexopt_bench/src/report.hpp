#pragma once

/// \file report.hpp
/// What one benchmark run produces: named metrics with unit and
/// better-direction, the per-operation records whose digest proves
/// determinism, and the failure count of the correctness gate.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace flexbench {

/// Settings of one run, from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// A few systems per workload and small budgets: the self-test size.
  bool tiny = false;
  /// Load of the solve workloads: campaign scenario workers and portfolio
  /// jobs.  Set to the hardware thread count.
  int threads = 1;
};

enum class Scope { EndToEnd, PerLayer };

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  Scope scope = Scope::EndToEnd;
  double value = 0.0;
};

/// Deterministic outcome of one operation (a solve, or one system's verify
/// pipeline).  For solves: winner cost, schedulability, charged
/// evaluations.  For verifies: exact-mode system cost, schedulability,
/// explored schedule-space states.
struct Record {
  double cost = 0.0;
  bool feasible = false;
  long evaluations = 0;
};

[[nodiscard]] bool same_record(const Record& a, const Record& b);
/// FNV-1a over the bit patterns of every record, in order.
[[nodiscard]] std::uint64_t digest(const std::vector<Record>& records);

struct Outcome {
  std::vector<Metric> metrics;
  /// Records of the first untraced pass, in operation order.
  std::vector<Record> records;
  long attempted = 0;
  long failed = 0;
  /// Human-readable reasons of the first failures.
  std::vector<std::string> failures;

  void add(const std::string& name, const char* unit, const char* better, Scope scope,
           double value);
  void fail(const std::string& why);
  /// Counts one operation; fails it with `why` unless `ok`.
  void check(bool ok, const std::string& why);
  /// Compares `replay` (a later or traced pass) with `records`
  /// element-wise; each mismatch is one failure.
  void compare_records(const std::vector<Record>& replay, const char* what);
};

/// p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double pct(std::vector<double> values, double p);
[[nodiscard]] double ratio(double numerator, double denominator);
/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Repeats `pass` (at least once) while the next pass is predicted to end
/// within `seconds` of the first pass's start.
template <class Pass>
void run_passes(double seconds, Pass&& pass) {
  const auto start = Clock::now();
  int passes = 0;
  double last = 0.0;
  do {
    const auto t0 = Clock::now();
    pass(passes);
    last = seconds_since(t0);
    ++passes;
  } while (seconds_since(start) + last <= seconds);
}

/// Pins the calling thread to each CPU it may run on, in turn; restores
/// the thread's CPU mask when destroyed.  Without affinity support it has
/// one turn and pins nothing.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  [[nodiscard]] std::size_t turns() const { return cpus_.empty() ? 1 : cpus_.size(); }
  void pin(std::size_t turn);

 private:
  std::vector<int> cpus_;
};

/// Set-up is `setup(0)`, run once before the measured passes to build the
/// population.  This times further rounds and returns their median in
/// seconds.  It runs after the passes.  Set-up takes milliseconds, and on a
/// shared host one CPU can be a third slower than another for seconds at a
/// time, so a process whose rounds all ran on one CPU drew its set-up time
/// from whichever CPU that was.  The rounds are therefore spread evenly
/// over every CPU, kSetupSeconds in all: on each, one untimed round warms
/// its caches, then at least kMinSetupRoundsPerCpu rounds are timed.
constexpr int kMinSetupRoundsPerCpu = 4;
constexpr double kSetupSeconds = 1.0;
template <class Setup>
double median_setup_seconds(Setup&& setup) {
  std::vector<double> walls;
  CpuRotation rotation;
  const double per_cpu = kSetupSeconds / static_cast<double>(rotation.turns());
  int round = 1;
  for (std::size_t turn = 0; turn < rotation.turns(); ++turn) {
    rotation.pin(turn);
    setup(round++);
    const auto start = Clock::now();
    for (int timed = 0; timed < kMinSetupRoundsPerCpu || seconds_since(start) < per_cpu;
         ++timed) {
      const auto t0 = Clock::now();
      setup(round++);
      walls.push_back(seconds_since(t0));
    }
  }
  return pct(walls, 50.0);
}

/// Adds the per-layer self time of every traced layer and the tracing
/// overhead, from a tracer that recorded the traced passes.
void add_trace_metrics(Outcome& out, const Tracer& tracer, double untraced_wall,
                       double traced_wall);

Outcome run_fig9_campaign(const RunOptions& options, Tracer* tracer);
Outcome run_multicluster_portfolio(const RunOptions& options, Tracer* tracer);
Outcome run_exact_verify(const RunOptions& options, Tracer* tracer);

}  // namespace flexbench
