#pragma once

/// \file static_schedule.hpp
/// The static schedule table produced by the list scheduler (Fig. 2 of the
/// paper): start times for every SCS task instance within one hyper-period
/// and (cycle, slot) placements for every ST message instance.

#include <vector>

#include "flexopt/analysis/busy_profile.hpp"
#include "flexopt/model/ids.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

struct ScheduledTask {
  TaskId task{};
  /// Instance number within the hyper-period (release = instance * period).
  int instance = 0;
  Time release = 0;
  Time start = 0;
  Time finish = 0;
  friend bool operator==(const ScheduledTask&, const ScheduledTask&) = default;
};

struct ScheduledMessage {
  MessageId message{};
  int instance = 0;
  Time release = 0;  ///< sender-graph release of this instance
  /// Bus cycle index (0-based, unbounded) and ST slot index (0-based).
  std::int64_t cycle = 0;
  int slot = 0;
  /// Absolute transmission window on the bus.
  Time start = 0;
  Time finish = 0;
  friend bool operator==(const ScheduledMessage&, const ScheduledMessage&) = default;
};

/// Immutable result of static scheduling.  Indexed lookups are by the dense
/// task/message ids of the Application.
class StaticSchedule {
 public:
  StaticSchedule(Time hyperperiod, std::size_t node_count, std::size_t task_count,
                 std::size_t message_count);

  /// Room for `count` entries of one task, message or node, so that a
  /// builder that knows its job counts appends without regrowing.
  void reserve_task_entries(TaskId t, std::size_t count);
  void reserve_message_entries(MessageId m, std::size_t count);
  void reserve_node_entries(std::size_t node_index, std::size_t count);

  void add_task_entry(ScheduledTask entry, std::size_t node_index);
  void add_message_entry(ScheduledMessage entry);

  [[nodiscard]] Time hyperperiod() const { return hyperperiod_; }
  [[nodiscard]] const std::vector<ScheduledTask>& task_entries(TaskId t) const {
    return per_task_[index_of(t)];
  }
  [[nodiscard]] const std::vector<ScheduledMessage>& message_entries(MessageId m) const {
    return per_message_[index_of(m)];
  }
  /// All SCS entries on one node, in start order (sorted by finalize()).
  [[nodiscard]] const std::vector<ScheduledTask>& node_entries(std::size_t node_index) const {
    return per_node_[node_index];
  }

  /// Worst-case response time of an SCS task over its instances
  /// (max finish - release); kTimeInfinity if it has no entries.
  [[nodiscard]] Time task_wcrt(TaskId t) const;
  /// Worst-case response time of an ST message over its instances.
  [[nodiscard]] Time message_wcrt(MessageId m) const;

  /// CPU-busy profile of a node (period = hyper-period), for FPS analysis.
  /// Valid after finalize().
  [[nodiscard]] const BusyProfile& node_profile(std::size_t node_index) const {
    return profiles_[node_index];
  }

  /// Sorts per-node entries and builds the busy profiles.
  void finalize();
  /// The same, building every profile through `buffer` (caller-owned
  /// scratch, reused across nodes and calls).
  void finalize(std::vector<Interval>& buffer);

 private:
  Time hyperperiod_;
  std::vector<std::vector<ScheduledTask>> per_task_;
  std::vector<std::vector<ScheduledMessage>> per_message_;
  std::vector<std::vector<ScheduledTask>> per_node_;
  std::vector<BusyProfile> profiles_;
};

}  // namespace flexopt
