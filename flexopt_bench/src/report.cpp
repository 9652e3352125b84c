#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <span>

#include "flexopt/math/stats.hpp"

namespace flexbench {

bool same_record(const Record& a, const Record& b) {
  return std::memcmp(&a.cost, &b.cost, sizeof a.cost) == 0 && a.feasible == b.feasible &&
         a.evaluations == b.evaluations;
}

std::uint64_t digest(const std::vector<Record>& records) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const Record& r : records) {
    mix(&r.cost, sizeof r.cost);
    const unsigned char feasible = r.feasible ? 1 : 0;
    mix(&feasible, 1);
    const long long evaluations = r.evaluations;
    mix(&evaluations, sizeof evaluations);
  }
  return h;
}

void Outcome::add(const std::string& name, const char* unit, const char* better, Scope scope,
                  double value) {
  metrics.push_back({name, unit, better, scope, value});
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

void Outcome::check(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) fail(why);
}

void Outcome::compare_records(const std::vector<Record>& replay, const char* what) {
  if (replay.size() != records.size()) {
    fail(std::string(what) + ": " + std::to_string(replay.size()) + " records vs " +
         std::to_string(records.size()));
    return;
  }
  for (std::size_t i = 0; i < replay.size(); ++i) {
    if (!same_record(replay[i], records[i])) {
      fail(std::string(what) + ": record " + std::to_string(i) + " differs");
    }
  }
}

double pct(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  return flexopt::percentile(std::span<const double>(values), p);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  (void)sched_setaffinity(0, sizeof allowed, &allowed);
}

void CpuRotation::pin(std::size_t turn) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void add_trace_metrics(Outcome& out, const Tracer& tracer, double untraced_wall,
                       double traced_wall) {
  out.add("trace.overhead_pct", "%", "lower", Scope::PerLayer,
          100.0 * ratio(traced_wall - untraced_wall, untraced_wall));
  std::size_t spans = 0;
  for (const LayerTime& t : tracer.layer_times()) {
    spans += t.spans;
    out.add("self_ms." + t.layer, "ms", "lower", Scope::PerLayer, t.self_ms);
  }
  out.add("trace.spans", "count", "lower", Scope::PerLayer, static_cast<double>(spans));
}

}  // namespace flexbench
