#pragma once

/// \file trace.hpp
/// In-memory span and counter recorder for the traced benchmark runs.
/// Spans are opened by the benchmark around its calls into each flexopt
/// layer (one src/ module per layer); nothing inside the library is
/// instrumented.  Spans nest per thread: a span's parent is the innermost
/// span open on the same thread when it started.  Everything stays in
/// memory until the run ends, then is written out as Chrome trace-event
/// JSON and summarised as per-layer self time.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace flexbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span on this thread
  std::string layer;         ///< src/ module name ("gen", "core", ...) or "bench"
  std::string name;
  std::int64_t scenario = -1;  ///< system the span works on; -1 = none
  std::uint32_t thread = 0;
  double start_us = 0.0;  ///< relative to the tracer's creation
  double end_us = 0.0;
};

/// Per-layer time of one traced run.  Self time is a span's duration minus
/// the part covered by its child spans, summed over the layer's spans.
struct LayerTime {
  std::string layer;
  std::size_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span; a null tracer makes it a no-op, so untraced passes share
  /// the traced code path at the cost of one branch per call.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, std::string name, std::int64_t scenario = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord record_;
  };

  /// Adds `amount` to the named counter (thread-safe).
  void count(const std::string& name, double amount);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::map<std::string, double> counts() const;
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

  /// Chrome trace-event JSON (complete "X" events, one track per thread);
  /// `metadata` lands in the top-level otherData object.
  [[nodiscard]] std::string chrome_trace_json(
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  [[nodiscard]] double now_us() const;
  void finish(SpanRecord&& record);

  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_, counts_, next_id_
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counts_;
  std::uint64_t next_id_ = 1;
};

}  // namespace flexbench
