// Exact-backend property lane (`ctest -R exact -L property`): across >= 25
// scenarios spanning single-cluster FlexRay, multi-cluster FlexRay and
// mixed FlexRay/TSN systems, the three-level sandwich holds for every
// analysable activity under the minimal start configuration:
//
//   netsim observed  <=  exact WCRT  <=  holistic WCRT
//
// (left: the simulator replays real schedules inside the explored
// behaviour space; right: the exact backend clamps to holistic by
// construction — both inequalities checked empirically here).  Plus:
// exact evaluation is bit-deterministic across evaluator worker counts
// (jobs 1 vs 8), so campaign results never depend on the thread schedule;
// and the exploration engine's ExactClusterInfo records — states, merges,
// transitions, refined bounds — match a recorded digest over the same
// scenario breadth; and the engine's walk, which branches on a maybe-ready
// message only at its own FrameID's arbitration, matches a reference that
// replays the cycle once per readiness subset, field for field.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/exact/schedule_space.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kScenarios = 25;
constexpr int kMaxAttempts = 100;

BusParams lane_params() {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  return params;
}

/// Scenario `attempt` of the lane, cycling through the three families.
ScenarioSpec lane_spec(int attempt, Rng& rng) {
  ScenarioSpec spec;
  const int family = attempt % 3;
  if (family == 0) {
    // Single-cluster FlexRay, Section-7-style.
    spec.base.nodes = 2 + static_cast<int>(rng.uniform_int(0, 2));
    spec.base.deadline_factor = 0.7;
  } else {
    spec.topology = Topology::MultiCluster;
    spec.traffic = TrafficMix::DynOnly;
    spec.clusters = 2 + static_cast<int>(rng.uniform_int(0, 2));
    spec.inter_cluster_share = 0.25;
    spec.base.nodes = spec.clusters * 2;
    spec.base.tasks_per_node = 4;
    spec.base.tasks_per_graph = 4;
    spec.base.deadline_factor = 2.0;
    // Family 2 alternates FlexRay and TSN clusters (the mixed systems).
    if (family == 2) spec.backend = BackendMix::Mixed;
  }
  spec.base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

/// Reference for explore_dyn_schedule_space: the same cycle-by-cycle
/// reachability walk, hash buckets, merging and pruning, except that every
/// state replays its whole minislot walk once for each of the 2^k readiness
/// subsets of its k maybe-ready messages, and the dominance sweeps sit
/// behind `prune`.
namespace reference {

struct DynMsg {
  std::uint32_t message = 0;
  int fid = 0;
  int priority = 0;
  int minislots = 0;
  Time occupancy = 0;
  Time period = 0;
  Time jitter = 0;
  std::uint32_t jobs = 0;
};

constexpr std::size_t kBucketBits = 5;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
constexpr std::size_t kDominanceSweepLimit = 256;
constexpr std::size_t kMaxBranchMessages = 12;
constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

std::uint64_t hash_key(const std::uint32_t* row, std::size_t width) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < width; ++i) {
    h ^= row[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct Walk {
  int fid = 1;
  std::int64_t counter = 1;
  Time slot_time = 0;
  std::size_t sent_at = 0;
};

bool row_all_done(const std::uint32_t* row, const std::vector<DynMsg>& dyn) {
  for (std::size_t i = 0; i < dyn.size(); ++i) {
    if (row[i] < dyn[i].jobs) return false;
  }
  return true;
}

/// Drops every row from row `from` on that another row of that range
/// covers (pointwise <=).
void sweep_dominated(std::vector<std::uint32_t>& rows, std::size_t from, std::size_t width) {
  const std::size_t n = rows.size() / width - from;
  if (n < 2) return;
  std::uint32_t* base = rows.data() + from * width;
  std::vector<char> dead(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n && dead[a] == 0; ++b) {
      if (a == b) continue;
      bool covers = true;
      for (std::size_t i = 0; i < width; ++i) covers &= base[b * width + i] <= base[a * width + i];
      if (covers) dead[a] = 1;
    }
  }
  std::size_t write = 0;
  for (std::size_t a = 0; a < n; ++a) {
    if (dead[a] != 0) continue;
    if (write != a) {
      std::memmove(base + write * width, base + a * width, width * sizeof(std::uint32_t));
    }
    ++write;
  }
  rows.resize((from + write) * width);
}

ScheduleSpaceResult explore(const BusLayout& layout, std::span<const Time> message_jitter,
                            Time horizon, std::uint64_t max_states, bool prune) {
  ScheduleSpaceResult result;
  const Application& app = layout.application();
  const auto hp_result = app.hyperperiod();
  if (!hp_result.ok()) {
    result.fallback = ExactFallback::NotConverged;
    return result;
  }
  const Time window = hp_result.value();

  std::vector<DynMsg> dyn;
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls != MessageClass::Dynamic) continue;
    DynMsg d;
    d.message = m;
    const auto id = static_cast<MessageId>(m);
    d.fid = layout.frame_id(id);
    d.priority = app.messages()[m].priority;
    d.minislots = layout.message_minislots(id);
    d.occupancy = layout.message_occupancy(id);
    d.period = app.graph(app.messages()[m].graph).period;
    d.jitter = m < message_jitter.size() ? message_jitter[m] : kTimeInfinity;
    if (is_infinite(d.jitter)) {
      result.fallback = ExactFallback::UnboundedJitter;
      return result;
    }
    d.jobs = static_cast<std::uint32_t>(window / d.period);
    dyn.push_back(d);
  }
  if (dyn.empty()) {
    result.fallback = ExactFallback::NoDynMessages;
    return result;
  }
  const std::size_t width = dyn.size();

  const int max_fid = layout.max_frame_id();
  std::vector<std::vector<std::size_t>> by_fid(static_cast<std::size_t>(max_fid) + 1);
  for (std::size_t i = 0; i < width; ++i) by_fid[dyn[i].fid].push_back(i);
  for (auto& group : by_fid) {
    std::sort(group.begin(), group.end(), [&](std::size_t a, std::size_t b) {
      return std::make_pair(dyn[a].priority, dyn[a].message) <
             std::make_pair(dyn[b].priority, dyn[b].message);
    });
  }
  std::vector<std::int64_t> p_latest(static_cast<std::size_t>(max_fid) + 1, -1);
  for (int fid = 1; fid <= max_fid; ++fid) {
    NodeId owner{};
    if (layout.frame_id_owner(fid, &owner)) p_latest[fid] = layout.p_latest_tx(owner);
  }

  const Time cycle_len = layout.cycle_len();
  const Time st_len = layout.st_segment_len();
  const Time gd = layout.params().gd_minislot;
  const std::int64_t minislot_count = layout.config().minislot_count;
  const Time max_cycles = horizon / cycle_len + 1;

  std::vector<std::uint32_t> frontier(width, 0);
  std::vector<std::uint32_t> next;
  std::array<std::vector<std::uint32_t>, kBuckets> buckets;
  std::vector<std::uint32_t> slots;
  std::vector<Time> worst(width, 0);
  std::vector<char> must(width, 0);
  std::vector<char> ready(width, 0);
  std::vector<std::size_t> maybe;
  std::vector<std::size_t> tied;
  std::vector<Walk> stack;
  std::vector<std::uint32_t> pool;

  for (Time cycle = 0; cycle < max_cycles && !frontier.empty(); ++cycle) {
    result.explored_states += frontier.size() / width;
    if (result.explored_states > max_states) {
      result.fallback = ExactFallback::BudgetExceeded;
      return result;
    }
    const Time cycle_start = cycle * cycle_len;
    const Time seg_start = cycle_start + st_len;

    std::uint64_t transitions = 0;
    std::uint64_t pending = 0;
    for (auto& bucket : buckets) bucket.clear();
    for (std::size_t r = 0; r * width < frontier.size(); ++r) {
      const std::uint32_t* state = frontier.data() + r * width;
      maybe.clear();
      for (std::size_t i = 0; i < width; ++i) {
        must[i] = 0;
        if (state[i] >= dyn[i].jobs) continue;
        const Time release = static_cast<Time>(state[i]) * dyn[i].period;
        const Time earliest_slot = seg_start + static_cast<Time>(dyn[i].fid - 1) * gd;
        if (release + dyn[i].jitter <= earliest_slot) {
          must[i] = 1;
        } else if (release < cycle_start + cycle_len) {
          maybe.push_back(i);
        }
      }
      if (maybe.size() > kMaxBranchMessages) {
        result.fallback = ExactFallback::BudgetExceeded;
        return result;
      }

      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << maybe.size()); ++mask) {
        std::copy(must.begin(), must.end(), ready.begin());
        for (std::size_t b = 0; b < maybe.size(); ++b) {
          if ((mask >> b) & 1) ready[maybe[b]] = 1;
        }
        stack.clear();
        pool.assign(state, state + width);
        stack.push_back(Walk{1, 1, seg_start, 0});
        while (!stack.empty()) {
          Walk w = stack.back();
          stack.pop_back();
          if (w.fid > max_fid || w.counter > minislot_count) {
            ++transitions;
            const std::uint32_t* sent = pool.data() + w.sent_at;
            if (!row_all_done(sent, dyn)) {
              ++pending;
              auto& bucket = buckets[hash_key(sent, width) >> (64 - kBucketBits)];
              bucket.insert(bucket.end(), sent, sent + width);
            }
            continue;
          }
          tied.clear();
          if (w.counter <= p_latest[static_cast<std::size_t>(w.fid)]) {
            int best_priority = 0;
            for (const std::size_t i : by_fid[static_cast<std::size_t>(w.fid)]) {
              if (ready[i] == 0 || pool[w.sent_at + i] >= dyn[i].jobs) continue;
              if (!tied.empty() && dyn[i].priority != best_priority) break;
              best_priority = dyn[i].priority;
              tied.push_back(i);
            }
          }
          if (tied.empty()) {
            w.slot_time += gd;
            w.counter += 1;
            w.fid += 1;
            stack.push_back(w);
            continue;
          }
          for (const std::size_t i : tied) {
            const std::size_t fork_at = pool.size();
            pool.resize(fork_at + width);
            std::copy_n(pool.data() + w.sent_at, width, pool.data() + fork_at);
            const Time finish = w.slot_time + dyn[i].occupancy;
            const Time release = static_cast<Time>(pool[fork_at + i]) * dyn[i].period;
            worst[i] = std::max(worst[i], finish - release);
            pool[fork_at + i] += 1;
            Walk n = w;
            n.sent_at = fork_at;
            n.slot_time += static_cast<Time>(dyn[i].minislots) * gd;
            n.counter += dyn[i].minislots;
            n.fid += 1;
            stack.push_back(n);
          }
        }
      }
    }
    result.transitions += transitions;
    ++result.walked_cycles;

    next.clear();
    for (const auto& bucket : buckets) {
      const std::size_t candidates = bucket.size() / width;
      if (candidates == 0) continue;
      const std::size_t from = next.size() / width;
      std::size_t table_size = 1;
      while (table_size < candidates * 2) table_size <<= 1;
      slots.assign(table_size, kEmptySlot);
      std::uint32_t unique = 0;
      for (std::size_t r = 0; r < candidates; ++r) {
        const std::uint32_t* row = bucket.data() + r * width;
        std::size_t probe = hash_key(row, width) & (table_size - 1);
        for (;;) {
          const std::uint32_t at = slots[probe];
          if (at == kEmptySlot) {
            slots[probe] = unique++;
            next.insert(next.end(), row, row + width);
            break;
          }
          if (std::equal(row, row + width, next.data() + (from + at) * width)) break;
          probe = (probe + 1) & (table_size - 1);
        }
      }
      if (prune && unique <= kDominanceSweepLimit) sweep_dominated(next, from, width);
    }
    if (prune && next.size() / width <= kDominanceSweepLimit) sweep_dominated(next, 0, width);
    result.merged_states += pending - next.size() / width;
    frontier.swap(next);
  }

  result.worst_completion.assign(app.message_count(), kTimeInfinity);
  for (std::size_t i = 0; i < width; ++i) {
    bool covered = true;
    for (std::size_t r = 0; r * width < frontier.size(); ++r) {
      covered = covered && frontier[r * width + i] >= dyn[i].jobs;
    }
    if (covered) result.worst_completion[dyn[i].message] = worst[i];
  }
  return result;
}

}  // namespace reference

/// Every ScheduleSpaceResult field of the engine equals the reference's,
/// except `walked_cycles`: the reference walks every cycle, the engine
/// takes a stationary stretch's cycles before its last one in one step.
void expect_same_exploration(const ScheduleSpaceResult& lazy, const ScheduleSpaceResult& eager,
                             const std::string& label) {
  EXPECT_EQ(lazy.fallback, eager.fallback) << label;
  EXPECT_EQ(lazy.explored_states, eager.explored_states) << label;
  EXPECT_EQ(lazy.merged_states, eager.merged_states) << label;
  EXPECT_EQ(lazy.transitions, eager.transitions) << label;
  EXPECT_EQ(lazy.worst_completion, eager.worst_completion) << label;
  EXPECT_LE(lazy.walked_cycles, eager.walked_cycles) << label;
}

/// A hand-built bus for the stationary-stretch cases: N0 sends `messages`
/// DYN messages to N1 on FrameIDs 1, 2, ..., each in its own 1 ms graph; a
/// 3 ms graph on N1 makes the window 3 ms, so every message has 3 jobs.
struct StretchBus {
  Application app;
  BusParams params = lane_params();
  std::vector<MessageId> dyn;
  std::unique_ptr<BusLayout> layout;
  Time horizon = 0;

  explicit StretchBus(int messages) {
    const NodeId n0 = app.add_node("N0");
    const NodeId n1 = app.add_node("N1");
    for (int k = 0; k < messages; ++k) {
      const std::string name = std::to_string(k);
      const GraphId g = app.add_graph("g" + name, timeunits::ms(1), timeunits::ms(1));
      const TaskId src = app.add_task(g, "src" + name, n0, timeunits::us(10), TaskPolicy::Fps, k);
      const TaskId dst = app.add_task(g, "dst" + name, n1, timeunits::us(10), TaskPolicy::Fps, k);
      dyn.push_back(app.add_message(g, "m" + name, src, dst, 8, MessageClass::Dynamic, k));
    }
    const GraphId slow = app.add_graph("slow", timeunits::ms(3), timeunits::ms(3));
    app.add_task(slow, "idle", n1, timeunits::us(10), TaskPolicy::Fps, messages);
    auto fin = app.finalize();
    if (!fin.ok()) throw std::runtime_error(fin.error().message);

    BusConfig config;
    config.static_slot_count = 2;
    config.static_slot_len = timeunits::us(20);
    config.static_slot_owner = {n0, n1};
    config.minislot_count = 4 * messages + 8;
    config.frame_id.assign(app.message_count(), 0);
    for (int k = 0; k < messages; ++k) config.frame_id[index_of(dyn[k])] = k + 1;
    auto built = BusLayout::build(app, params, config);
    if (!built.ok()) throw std::runtime_error(built.error().message);
    layout = std::make_unique<BusLayout>(std::move(built).value());
    auto h = analysis_horizon(app);
    if (!h.ok()) throw std::runtime_error(h.error().message);
    horizon = h.value();
  }

  /// The engine and the reference explore under `jitter` (indexed by
  /// MessageId) at each budget; both must agree field for field.
  /// Returns the engine's unbudgeted result.
  ScheduleSpaceResult compare(const std::vector<Time>& jitter,
                              std::initializer_list<std::uint64_t> budgets) const {
    ExactOptions options;
    options.max_states = std::numeric_limits<std::uint64_t>::max();
    const ScheduleSpaceResult full =
        explore_dyn_schedule_space(*layout, jitter, horizon, options);
    expect_same_exploration(
        full, reference::explore(*layout, jitter, horizon, options.max_states, true), "no budget");
    for (const std::uint64_t max_states : budgets) {
      options.max_states = max_states;
      expect_same_exploration(explore_dyn_schedule_space(*layout, jitter, horizon, options),
                              reference::explore(*layout, jitter, horizon, max_states, true),
                              "budget " + std::to_string(max_states));
    }
    return full;
  }
};

/// (a) One DYN message whose jitter spans 24 bus cycles (10 cycles per
/// period): job 0 is maybe-ready in cycles 0-24 and must-ready in 25, jobs
/// 1 and 2 are maybe-ready for the 9 cycles before theirs.  In those cycles
/// the "not sent" state dominates every fork and the one-state frontier
/// merges back to itself, so the engine walks each stretch's first and
/// last cycle and the must-ready one after it: 9 of the 46 cycles.
/// Budgets that run out inside a stretch, at its last cycle or just after
/// it abort where the cycle-by-cycle walk does, with its counts.
TEST(ExactProperty, StationaryStretchMatchesEagerReference) {
  StretchBus bus(1);
  const Time cycle = bus.layout->cycle_len();
  ASSERT_EQ(timeunits::ms(1), 10 * cycle);
  std::vector<Time> jitter(bus.app.message_count(), 0);
  jitter[index_of(bus.dyn[0])] = 24 * cycle + cycle / 2;
  const ScheduleSpaceResult full =
      bus.compare(jitter, {1, 2, 7, 23, 24, 25, 26, 30, 35, 36, 40, 45});
  ASSERT_EQ(full.fallback, ExactFallback::None);
  EXPECT_LT(full.worst_completion[index_of(bus.dyn[0])], kTimeInfinity);
  EXPECT_EQ(full.explored_states, 46u);
  EXPECT_EQ(full.walked_cycles, 9u);
}

/// (b) A message whose jitter outlasts the horizon is never must-ready, so
/// the adversary keeps it unsent: the one-state frontier stays put, in
/// stretches between the other message's class changes, and after that
/// message's last job in one stretch that runs into the cycle horizon
/// (cycles 21-100 of 101).  The message stays uncovered (no refinement).
/// Its jitter is the largest finite Time, so the class thresholds saturate.
TEST(ExactProperty, NeverSentMessageStretchRunsIntoTheHorizon) {
  StretchBus bus(2);
  const Time cycle = bus.layout->cycle_len();
  std::vector<Time> jitter(bus.app.message_count(), 0);
  jitter[index_of(bus.dyn[0])] = 3 * cycle;
  jitter[index_of(bus.dyn[1])] = kTimeInfinity - 1;
  const Time max_cycles = bus.horizon / cycle + 1;
  ASSERT_EQ(max_cycles, 101);
  const ScheduleSpaceResult full = bus.compare(jitter, {5, 6, 22, 50, 100});
  ASSERT_EQ(full.fallback, ExactFallback::None);
  EXPECT_LT(full.worst_completion[index_of(bus.dyn[0])], kTimeInfinity);
  EXPECT_EQ(full.worst_completion[index_of(bus.dyn[1])], kTimeInfinity);
  EXPECT_EQ(full.explored_states, 101u);
  EXPECT_EQ(full.walked_cycles, 15u);
}

/// Entry-wise `lhs <= rhs`; `rhs` may be infinite anywhere.
void expect_bounded_by(const std::vector<Time>& lhs, const std::vector<Time>& rhs,
                       int attempt, const char* what) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_LE(lhs[i], rhs[i]) << "scenario " << attempt << " " << what << "[" << i << "]";
  }
}

TEST(ExactProperty, ObservedLeExactLeHolisticAcrossScenarios) {
  Rng rng(20260808);
  const BusParams params = lane_params();
  int analysed = 0;
  int mixed_analysed = 0;
  for (int attempt = 0; attempt < kMaxAttempts && analysed < kScenarios; ++attempt) {
    const ScenarioSpec spec = lane_spec(attempt, rng);
    auto app = generate_scenario(spec, params);
    if (!app.ok()) continue;
    auto built = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(built.ok()) << built.error().message;
    const SystemModel& model = built.value();

    SystemConfig config;
    bool feasible = true;
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      const ClusterBackendKind backend =
          model.cluster_app(c)->cluster_backend(ClusterId{0});
      ClusterConfig cluster =
          minimal_start_cluster_config(*model.cluster_app(c), params, backend);
      if (cluster.kind == ClusterBackendKind::FlexRay) {
        const StartConfig start = minimal_start_config(*model.cluster_app(c), params);
        feasible = feasible && start.bounds.feasible();
      }
      config.clusters.push_back(std::move(cluster));
    }
    if (!feasible) continue;
    auto layouts = build_system_layouts(model, params, config);
    if (!layouts.ok()) continue;

    auto holistic = analyze_multicluster(model, layouts.value(), AnalysisOptions{});
    ASSERT_TRUE(holistic.ok()) << holistic.error().message;
    AnalysisOptions exact_options;
    exact_options.mode = AnalysisMode::Exact;
    auto exact = analyze_multicluster(model, layouts.value(), exact_options);
    ASSERT_TRUE(exact.ok()) << exact.error().message;
    ASSERT_EQ(exact.value().clusters.size(), holistic.value().clusters.size());

    // Right inequality: exact <= holistic per cluster, per activity; and
    // every cluster carries its ExactClusterInfo (fallbacks recorded).
    for (std::size_t c = 0; c < exact.value().clusters.size(); ++c) {
      const AnalysisResult& e = exact.value().clusters[c];
      ASSERT_NE(e.exact, nullptr) << "scenario " << attempt << " cluster " << c;
      expect_bounded_by(e.task_completion, holistic.value().clusters[c].task_completion,
                        attempt, "task");
      expect_bounded_by(e.message_completion,
                        holistic.value().clusters[c].message_completion, attempt, "message");
    }

    // Left inequality: replay on the simulator and check every observed
    // completion against the *exact* bounds (the tighter side).
    auto sim = simulate_network(model, layouts.value(), exact.value());
    ASSERT_TRUE(sim.ok()) << sim.error().message;
    const SoundnessReport verdict = check_soundness(model, exact.value(), sim.value());
    EXPECT_TRUE(verdict.sound) << "scenario " << attempt << ": "
                               << verdict.violations.size() << " observed > exact";
    EXPECT_EQ(sim.value().precedence_violations, 0u) << "scenario " << attempt;

    ++analysed;
    if (spec.backend == BackendMix::Mixed) ++mixed_analysed;
  }
  // The lane must actually exercise its advertised breadth.
  ASSERT_GE(analysed, kScenarios);
  EXPECT_GT(mixed_analysed, 0);
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(const std::vector<Time>& values) {
    mix(values.size());
    for (const Time v : values) mix(static_cast<std::uint64_t>(v));
  }
};

/// Pins the exploration engine's results bit for bit: every cluster's
/// ExactClusterInfo — fallback, engine counters, refinements — plus its
/// refined bounds and cost, over 25 scenarios at the default and at a small
/// state budget (the latter exercises the budget-abort counters), folds into
/// one digest.  The expected value was recorded with the 32-shard parallel
/// engine this serial one replaced; any change to exploration order,
/// merging, pruning or counting moves it.
TEST(ExactProperty, ExplorationMatchesRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 0xe4a4f7b583d8439cull;
  Rng rng(20260809);
  const BusParams params = lane_params();
  Digest digest;
  int analysed = 0;
  int multicluster_analysed = 0;
  for (int attempt = 0; attempt < kMaxAttempts && analysed < kScenarios; ++attempt) {
    const ScenarioSpec spec = lane_spec(attempt, rng);
    auto app = generate_scenario(spec, params);
    if (!app.ok()) continue;
    auto built = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(built.ok()) << built.error().message;
    const SystemModel& model = built.value();

    SystemConfig config;
    bool feasible = true;
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      const ClusterBackendKind backend =
          model.cluster_app(c)->cluster_backend(ClusterId{0});
      ClusterConfig cluster =
          minimal_start_cluster_config(*model.cluster_app(c), params, backend);
      if (cluster.kind == ClusterBackendKind::FlexRay) {
        const StartConfig start = minimal_start_config(*model.cluster_app(c), params);
        feasible = feasible && start.bounds.feasible();
      }
      config.clusters.push_back(std::move(cluster));
    }
    if (!feasible) continue;
    auto layouts = build_system_layouts(model, params, config);
    if (!layouts.ok()) continue;

    for (const std::uint64_t max_states : {std::uint64_t{1} << 16, std::uint64_t{1} << 9}) {
      AnalysisOptions options;
      options.mode = AnalysisMode::Exact;
      options.exact.max_states = max_states;
      auto exact = analyze_multicluster(model, layouts.value(), options);
      ASSERT_TRUE(exact.ok()) << exact.error().message;
      digest.mix(static_cast<std::uint64_t>(attempt));
      for (const AnalysisResult& cluster : exact.value().clusters) {
        ASSERT_NE(cluster.exact, nullptr) << "scenario " << attempt;
        const ExactClusterInfo& info = *cluster.exact;
        digest.mix(static_cast<std::uint64_t>(info.fallback));
        digest.mix(info.explored_states);
        digest.mix(info.merged_states);
        digest.mix(info.transitions);
        digest.mix(info.refined_messages);
        digest.mix(cluster.task_completion);
        digest.mix(cluster.message_completion);
        digest.mix(std::bit_cast<std::uint64_t>(cluster.cost.value));
      }
    }

    ++analysed;
    if (model.cluster_count() > 1) ++multicluster_analysed;
  }
  ASSERT_GE(analysed, kScenarios);
  // The lane must cover both single- and multi-cluster explorations.
  EXPECT_GT(multicluster_analysed, 0);
  EXPECT_GT(analysed - multicluster_analysed, 0);
  EXPECT_EQ(digest.h, kRecordedDigest) << std::hex << "0x" << digest.h;
}

/// Whether two DYN messages share a FrameID and a priority, so the minislot
/// walk may have to fork over both.
bool has_frame_id_priority_tie(const Application& app, const BusConfig& config) {
  for (std::uint32_t a = 0; a < app.message_count(); ++a) {
    for (std::uint32_t b = a + 1; b < app.message_count(); ++b) {
      if (app.messages()[a].cls == MessageClass::Dynamic &&
          app.messages()[b].cls == MessageClass::Dynamic &&
          config.frame_id[a] == config.frame_id[b] &&
          app.messages()[a].priority == app.messages()[b].priority) {
        return true;
      }
    }
  }
  return false;
}

/// The engine branches on a maybe-ready message only where the minislot walk
/// reads it and weighs each branch by the readiness subsets it stands for;
/// every ScheduleSpaceResult field must equal the per-subset reference's.
/// The layouts draw FrameIDs by criticality (unique) or one per node (shared,
/// so equal-priority messages tie on a FrameID, one of them possibly
/// must-ready and another maybe-ready), minislot counts across the DYN
/// bounds, and three state budgets: 2^16, 2^9 (aborting explorations) and
/// half of what the layout explores under 2^16 (its unbudgeted count unless
/// the maybe-set cap aborts it), which lands inside a stationary stretch.
/// The engine must take some stretches in bulk (fewer walked cycles than
/// the reference), also before a budget abort.  The reference's own
/// pruning switch checks that the dominance sweeps keep the bounds, never
/// explore more states, and do merge.
TEST(ExactProperty, LazyWalkMatchesEagerReference) {
  constexpr int kLayouts = 48;
  Rng rng(20261017);
  const BusParams params = lane_params();
  int compared = 0;
  int tied_layouts = 0;
  int budget_aborts = 0;
  int bulk_layouts = 0;  ///< explorations under 2^16 that took a stretch in bulk
  int bulk_aborts = 0;   ///< budget aborts after or inside a stretch taken in bulk
  int pruning_shrank = 0;
  std::uint64_t pruned_merges = 0;
  for (int attempt = 0; attempt < 4 * kLayouts && compared < kLayouts; ++attempt) {
    SyntheticSpec spec;
    spec.nodes = 2 + static_cast<int>(rng.uniform_int(0, 2));
    spec.deadline_factor = 0.7 + 0.1 * static_cast<double>(rng.uniform_int(0, 6));
    spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    auto app = generate_synthetic(spec, params);
    if (!app.ok()) continue;
    const StartConfig start = minimal_start_config(app.value(), params);
    if (!start.bounds.feasible()) continue;
    BusConfig config = start.config;
    if (attempt % 2 == 0) {
      config.frame_id = assign_frame_ids_by_criticality(app.value(), params);
    } else {
      config.frame_id = assign_frame_ids_shared_per_node(app.value());
    }
    const DynBounds& b = start.bounds;
    config.minislot_count = static_cast<int>(rng.uniform_int(b.min_minislots, b.max_minislots));
    auto layout = BusLayout::build(app.value(), params, config);
    if (!layout.ok()) continue;
    tied_layouts += has_frame_id_priority_tie(app.value(), config) ? 1 : 0;
    auto holistic = analyze_system(layout.value(), AnalysisOptions{});
    ASSERT_TRUE(holistic.ok()) << holistic.error().message;
    if (!holistic.value().converged) continue;
    const auto horizon = analysis_horizon(app.value());
    ASSERT_TRUE(horizon.ok());
    const std::vector<Time>& jitter = holistic.value().message_jitter;

    std::uint64_t first_states = 0;  ///< explored under the first budget
    for (const int budget : {0, 1, 2}) {
      ExactOptions options;
      options.max_states = budget == 0   ? std::uint64_t{1} << 16
                           : budget == 1 ? std::uint64_t{1} << 9
                                         : std::max<std::uint64_t>(1, first_states / 2);
      const std::uint64_t max_states = options.max_states;
      const ScheduleSpaceResult lazy =
          explore_dyn_schedule_space(layout.value(), jitter, horizon.value(), options);
      const ScheduleSpaceResult eager =
          reference::explore(layout.value(), jitter, horizon.value(), max_states, true);
      expect_same_exploration(lazy, eager, "attempt " + std::to_string(attempt) + " budget " +
                                               std::to_string(max_states));
      if (budget == 0) first_states = lazy.explored_states;
      const bool bulk = lazy.walked_cycles < eager.walked_cycles;
      if (eager.fallback == ExactFallback::BudgetExceeded) {
        ++budget_aborts;
        if (bulk) ++bulk_aborts;
      }
      if (budget != 0) continue;
      if (bulk) ++bulk_layouts;

      const ScheduleSpaceResult unpruned =
          reference::explore(layout.value(), jitter, horizon.value(), max_states, false);
      EXPECT_LE(eager.explored_states, unpruned.explored_states) << "attempt " << attempt;
      if (eager.fallback == ExactFallback::None && unpruned.fallback == ExactFallback::None) {
        EXPECT_EQ(eager.worst_completion, unpruned.worst_completion) << "attempt " << attempt;
        if (eager.explored_states < unpruned.explored_states) ++pruning_shrank;
        pruned_merges += eager.merged_states;
      }
    }
    ++compared;
  }
  ASSERT_GE(compared, kLayouts);
  EXPECT_GT(tied_layouts, 0);
  EXPECT_GT(budget_aborts, 0);
  EXPECT_GT(bulk_layouts, 0);
  EXPECT_GT(bulk_aborts, 0);
  EXPECT_GT(pruning_shrank, 0);
  EXPECT_GT(pruned_merges, 0u);
}

TEST(ExactProperty, ExactEvaluationBitDeterministicAcrossWorkerCounts) {
  Rng rng(7);
  const BusParams params = lane_params();
  SyntheticSpec spec;
  spec.nodes = 3;
  spec.deadline_factor = 0.7;
  spec.seed = 3000;
  auto app = generate_synthetic(spec, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  const StartConfig start = minimal_start_config(app.value(), params);
  ASSERT_TRUE(start.bounds.feasible());

  // A batch of minislot perturbations evaluated under 1 and 8 workers.
  std::vector<BusConfig> batch;
  for (int k = 0; k < 12; ++k) {
    BusConfig config = start.config;
    config.minislot_count += static_cast<int>(rng.uniform_int(0, 16));
    batch.push_back(std::move(config));
  }

  AnalysisOptions exact_options;
  exact_options.mode = AnalysisMode::Exact;
  EvaluatorOptions one_options;
  one_options.threads = 1;
  one_options.cache_enabled = false;
  EvaluatorOptions eight_options;
  eight_options.threads = 8;
  eight_options.cache_enabled = false;
  CostEvaluator one(app.value(), params, exact_options, one_options);
  CostEvaluator eight(app.value(), params, exact_options, eight_options);
  const auto serial = one.evaluate_many(batch);
  const auto parallel = eight.evaluate_many(batch);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].valid, parallel[i].valid) << i;
    EXPECT_EQ(serial[i].cost.value, parallel[i].cost.value) << i;
    EXPECT_EQ(serial[i].analysis.task_completion, parallel[i].analysis.task_completion) << i;
    EXPECT_EQ(serial[i].analysis.message_completion, parallel[i].analysis.message_completion)
        << i;
    if (serial[i].analysis.exact != nullptr) {
      ASSERT_NE(parallel[i].analysis.exact, nullptr) << i;
      EXPECT_EQ(serial[i].analysis.exact->explored_states,
                parallel[i].analysis.exact->explored_states)
          << i;
      EXPECT_EQ(serial[i].analysis.exact->fallback, parallel[i].analysis.exact->fallback) << i;
    }
  }
}

}  // namespace
}  // namespace flexopt
