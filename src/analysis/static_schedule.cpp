#include "flexopt/analysis/static_schedule.hpp"

#include <algorithm>

namespace flexopt {

StaticSchedule::StaticSchedule(Time hyperperiod, std::size_t node_count,
                               std::size_t task_count, std::size_t message_count)
    : hyperperiod_(hyperperiod),
      per_task_(task_count),
      per_message_(message_count),
      per_node_(node_count) {}

void StaticSchedule::reserve_task_entries(TaskId t, std::size_t count) {
  per_task_[index_of(t)].reserve(count);
}

void StaticSchedule::reserve_message_entries(MessageId m, std::size_t count) {
  per_message_[index_of(m)].reserve(count);
}

void StaticSchedule::reserve_node_entries(std::size_t node_index, std::size_t count) {
  per_node_[node_index].reserve(count);
}

void StaticSchedule::add_task_entry(ScheduledTask entry, std::size_t node_index) {
  per_task_[index_of(entry.task)].push_back(entry);
  per_node_[node_index].push_back(entry);
}

void StaticSchedule::add_message_entry(ScheduledMessage entry) {
  per_message_[index_of(entry.message)].push_back(entry);
}

Time StaticSchedule::task_wcrt(TaskId t) const {
  const auto& entries = per_task_[index_of(t)];
  if (entries.empty()) return kTimeInfinity;
  Time worst = 0;
  for (const auto& e : entries) worst = std::max(worst, e.finish - e.release);
  return worst;
}

Time StaticSchedule::message_wcrt(MessageId m) const {
  const auto& entries = per_message_[index_of(m)];
  if (entries.empty()) return kTimeInfinity;
  Time worst = 0;
  for (const auto& e : entries) worst = std::max(worst, e.finish - e.release);
  return worst;
}

void StaticSchedule::finalize() {
  std::vector<Interval> buffer;
  finalize(buffer);
}

void StaticSchedule::finalize(std::vector<Interval>& buffer) {
  profiles_.resize(per_node_.size());
  for (std::size_t n = 0; n < per_node_.size(); ++n) {
    auto& entries = per_node_[n];
    std::sort(entries.begin(), entries.end(),
              [](const ScheduledTask& a, const ScheduledTask& b) { return a.start < b.start; });
    buffer.clear();
    for (const auto& e : entries) {
      // Wrap entries into [0, H): the table repeats with the hyper-period.
      const Time s = e.start % hyperperiod_;
      const Time f = s + (e.finish - e.start);
      if (f <= hyperperiod_) {
        buffer.push_back({s, f});
      } else {
        buffer.push_back({s, hyperperiod_});
        buffer.push_back({0, f - hyperperiod_});
      }
    }
    clamp_and_normalize(buffer, hyperperiod_);
    profiles_[n].assign_normalized(buffer, hyperperiod_);
  }
}

}  // namespace flexopt
