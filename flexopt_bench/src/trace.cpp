#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "flexopt/io/json_writer.hpp"

namespace flexbench {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

Tracer::Span::Span(Tracer* tracer, const char* layer, std::string name, std::int64_t scenario)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mutex_);
    record_.id = tracer_->next_id_++;
  }
  record_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  record_.layer = layer;
  record_.name = std::move(name);
  record_.scenario = scenario;
  record_.thread = thread_index();
  t_open_spans.push_back(record_.id);
  record_.start_us = tracer_->now_us();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_us = tracer_->now_us();
  t_open_spans.pop_back();
  tracer_->finish(std::move(record_));
}

void Tracer::finish(SpanRecord&& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

void Tracer::count(const std::string& name, double amount) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += amount;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.id < b.id;
  });
  return out;
}

std::map<std::string, double> Tracer::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

std::vector<LayerTime> Tracer::layer_times() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, double> child_us;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, LayerTime> by_layer;
  for (const SpanRecord& s : all) {
    LayerTime& t = by_layer[s.layer];
    t.layer = s.layer;
    ++t.spans;
    const double dur = s.end_us - s.start_us;
    const auto it = child_us.find(s.id);
    const double children = it == child_us.end() ? 0.0 : it->second;
    t.total_ms += dur / 1000.0;
    t.self_ms += std::max(0.0, dur - children) / 1000.0;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, t] : by_layer) out.push_back(t);
  std::sort(out.begin(), out.end(),
            [](const LayerTime& a, const LayerTime& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::string Tracer::chrome_trace_json(
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  flexopt::JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();
  for (const SpanRecord& s : spans()) {
    json.begin_object()
        .field("name", s.name)
        .field("cat", s.layer)
        .field("ph", "X")
        .field("ts", s.start_us)
        .field("dur", s.end_us - s.start_us)
        .field("pid", 1)
        .field("tid", s.thread);
    json.key("args")
        .begin_object()
        .field("id", s.id)
        .field("parent", s.parent)
        .field("scenario", static_cast<long long>(s.scenario))
        .end_object();
    json.end_object();
  }
  json.end_array();
  json.field("displayTimeUnit", "ms");
  json.key("otherData").begin_object();
  for (const auto& [key, value] : metadata) json.field(key, value);
  for (const auto& [name, amount] : counts()) json.field("count." + name, amount);
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace flexbench
