#include "flexopt/netsim/trace_json.hpp"

#include <cmath>

#include "flexopt/io/json_writer.hpp"

namespace flexopt {
namespace {

/// Times serialize as integers; the two sentinels as explicit null.
void time_field(JsonWriter& writer, std::string_view name, Time t) {
  writer.key(name);
  if (t == kTimeNone || t == kTimeInfinity) {
    writer.null_value();
  } else {
    writer.value(static_cast<long long>(t));
  }
}

/// A latency statistic that is undefined (NaN/Inf — e.g. computed over a
/// poisoned sample) must not leak into the document as a number; emit it
/// as explicit null so downstream readers see "absent", never garbage.
void stat_field(JsonWriter& writer, std::string_view name, double v) {
  writer.key(name);
  if (std::isfinite(v)) {
    writer.value(v);
  } else {
    writer.null_value();
  }
}

void latency_field(JsonWriter& writer, const LatencyStat& stat) {
  writer.key("latency").begin_object();
  writer.field("count", static_cast<unsigned long long>(stat.count));
  if (stat.count > 0) {
    stat_field(writer, "min", stat.min);
    stat_field(writer, "mean", stat.mean);
    stat_field(writer, "p50", stat.p50);
    stat_field(writer, "p99", stat.p99);
    stat_field(writer, "max", stat.max);
  }
  writer.end_object();
}

}  // namespace

std::string write_netsim_trace_json(const SystemModel& model,
                                    const MulticlusterResult& analysis,
                                    const NetSimResult& result,
                                    const SoundnessReport& soundness) {
  const Application& global = *model.global();
  // The hyper-periods actually simulated: from 2 on, the simulator aligns
  // its horizon up to a multiple of lcm(hyper-period, bus cycles).
  const Time hyperperiod = analysis.clusters[0].schedule().hyperperiod();
  JsonWriter writer;
  writer.begin_object();
  writer.field("schema", "flexopt-netsim-trace/1");
  writer.field("clusters", static_cast<unsigned long long>(model.cluster_count()));
  writer.field("hyperperiods", static_cast<long long>(result.horizon / hyperperiod));
  writer.field("horizon", static_cast<long long>(result.horizon));
  writer.field("events", static_cast<unsigned long long>(result.events));
  writer.field("unfinished_jobs", result.unfinished_jobs);
  writer.field("precedence_violations", result.precedence_violations);
  writer.field("sound", soundness.sound);
  writer.field("checked", static_cast<unsigned long long>(soundness.checked));
  writer.field("mean_gap", soundness.mean_gap);
  writer.field("min_gap", soundness.min_gap);

  writer.key("violations").begin_array();
  for (const SoundnessViolation& v : soundness.violations) {
    writer.begin_object();
    writer.field("cluster", v.cluster);
    writer.field("kind", v.task ? "task" : "message");
    writer.field("name", v.name);
    time_field(writer, "observed", v.observed);
    time_field(writer, "bound", v.bound);
    writer.end_object();
  }
  writer.end_array();

  writer.key("tasks").begin_array();
  for (std::uint32_t t = 0; t < global.task_count(); ++t) {
    const LocalActivity& local = model.local_task(static_cast<TaskId>(t));
    writer.begin_object();
    writer.field("name", global.tasks()[t].name);
    writer.field("cluster", local.cluster);
    time_field(writer, "observed", result.task_worst_completion[t]);
    time_field(writer, "bound", analysis.clusters[local.cluster].task_completion[local.index]);
    latency_field(writer, result.task_latency[t]);
    writer.end_object();
  }
  writer.end_array();

  writer.key("messages").begin_array();
  for (std::uint32_t m = 0; m < global.message_count(); ++m) {
    const auto& hops = model.message_hops(static_cast<MessageId>(m));
    const LocalActivity& last = hops.back();
    writer.begin_object();
    writer.field("name", global.messages()[m].name);
    writer.field("hops", static_cast<unsigned long long>(hops.size()));
    time_field(writer, "observed", result.message_worst_completion[m]);
    time_field(writer, "bound", analysis.clusters[last.cluster].message_completion[last.index]);
    latency_field(writer, result.message_latency[m]);
    writer.end_object();
  }
  writer.end_array();

  writer.key("gateways").begin_array();
  for (const GatewayStats& gw : result.gateways) {
    writer.begin_object();
    writer.field("gateway", global.nodes()[index_of(gw.gateway)].name);
    writer.field("from_cluster", gw.from_cluster);
    writer.field("to_cluster", gw.to_cluster);
    writer.field("max_queue_depth", gw.max_queue_depth);
    writer.field("forwarded", static_cast<long long>(gw.forwarded));
    writer.field("overflows", static_cast<long long>(gw.overflows));
    writer.end_object();
  }
  writer.end_array();

  writer.key("traces").begin_array();
  for (const MessageTrace& trace : result.traces) {
    writer.begin_object();
    writer.field("message", global.messages()[index_of(trace.message)].name);
    writer.field("instance", trace.instance);
    writer.key("hops").begin_array();
    for (const HopRecord& hop : trace.hops) {
      writer.begin_object();
      writer.field("cluster", hop.cluster);
      writer.field("hop", hop.hop_index);
      time_field(writer, "enter", hop.enter);
      time_field(writer, "gateway_wait", hop.gateway_wait);
      time_field(writer, "bus_start", hop.bus_start);
      time_field(writer, "bus_finish", hop.bus_finish);
      writer.field("slot", hop.slot);
      writer.field("dynamic", hop.dynamic);
      writer.end_object();
    }
    writer.end_array();
    writer.end_object();
  }
  writer.end_array();

  writer.end_object();
  return writer.str() + "\n";
}

}  // namespace flexopt
