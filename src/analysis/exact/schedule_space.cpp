#include "flexopt/analysis/exact/schedule_space.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/flexray/bus_layout.hpp"

namespace flexopt {
namespace {

/// One DYN message's static exploration parameters.
struct DynMsg {
  std::uint32_t message = 0;  ///< MessageId value (index into app.messages())
  int fid = 0;
  int priority = 0;
  int minislots = 0;
  Time occupancy = 0;
  Time period = 0;
  Time jitter = 0;          ///< holistic release jitter (finite)
  std::uint32_t jobs = 0;   ///< jobs released in the exploration window
  /// Offset in a cycle of the earliest slot its FrameID can get (the ST
  /// segment, then every earlier FrameID advancing by one minislot).
  Time slot_offset = 0;
};

/// Pruning policy.  Each cycle's successors are routed to kBuckets buckets
/// by the top bits of their key hash; every bucket is deduplicated on its
/// own and, when it holds at most kDominanceSweepLimit states,
/// dominance-swept locally.  Dominated pairs often land in different
/// buckets, so the whole frontier is swept once more when at most
/// kDominanceSweepLimit states survive.  Above the limit the O(n^2) sweep
/// is skipped; identical-state merging always applies.
constexpr std::size_t kBucketBits = 5;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
constexpr std::size_t kDominanceSweepLimit = 256;

/// Largest per-state "maybe ready" set: a state with k maybe messages stands
/// for 2^k readiness subsets, so a larger set aborts the exploration
/// (ExactFallback::BudgetExceeded).
constexpr std::size_t kMaxBranchMessages = 12;

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

/// FNV-1a over the transmitted-count words.  The top bits pick the bucket,
/// the low bits probe the dedup table, so the two uses stay decorrelated.
std::uint64_t hash_key(const std::uint32_t* row, std::size_t width) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < width; ++i) {
    h ^= row[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t bucket_of(std::uint64_t hash) { return hash >> (64 - kBucketBits); }

/// Where a pending head job stands at the start of a cycle.
enum class Readiness : char { Absent, Maybe, Must };

/// A partially walked bus cycle: the next FrameID slot, an index into the
/// walk pool row holding the counts accumulated on this branch, and the
/// number of the state's readiness subsets the branch stands for.
struct Walk {
  int fid = 1;
  std::int64_t counter = 1;
  Time slot_time = 0;
  std::size_t sent_at = 0;
  std::uint64_t weight = 1;
};

bool row_all_done(const std::uint32_t* row, const std::vector<DynMsg>& dyn) {
  for (std::size_t i = 0; i < dyn.size(); ++i) {
    if (row[i] < dyn[i].jobs) return false;
  }
  return true;
}

/// `b` covers `a`: pointwise b <= a over distinct keys — b is at least as
/// far behind everywhere, so b's reachable finishes include a's.
bool row_covers(const std::uint32_t* b, const std::uint32_t* a, std::size_t width) {
  bool covers = true;
  for (std::size_t i = 0; i < width; ++i) covers &= b[i] <= a[i];
  return covers;
}

/// Drops every row from row `from` on that another row of that range
/// covers (cover chains terminate at minimal elements, so "covered by
/// anyone" equals "covered by a survivor").  The rows are distinct, so a
/// row that covers another has a strictly smaller count sum, and only such
/// pairs are compared.  Survivors keep their relative order and `rows`
/// shrinks to fit.
void sweep_dominated(std::vector<std::uint32_t>& rows, std::size_t from, std::size_t width,
                     std::vector<char>& dead, std::vector<std::uint64_t>& sums) {
  const std::size_t n = rows.size() / width - from;
  if (n < 2) return;
  std::uint32_t* base = rows.data() + from * width;
  sums.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    sums[a] = std::accumulate(base + a * width, base + (a + 1) * width, std::uint64_t{0});
  }
  dead.assign(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (sums[b] < sums[a] && row_covers(base + b * width, base + a * width, width)) {
        dead[a] = 1;
        break;
      }
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

/// The last cycle in [cycle, last] up to which every pending head job of
/// `frontier` keeps the readiness class it has in `cycle`.  A head released
/// at r with jitter J is maybe-ready from cycle floor(r / C) on and
/// must-ready from cycle ceil((r + J - slot_offset) / C) on.
Time stationary_until(const std::vector<std::uint32_t>& frontier, const std::vector<DynMsg>& dyn,
                      Time cycle, Time last, Time cycle_len) {
  const std::size_t width = dyn.size();
  Time until = last;
  for (std::size_t r = 0; r * width < frontier.size(); ++r) {
    const std::uint32_t* state = frontier.data() + r * width;
    for (std::size_t i = 0; i < width; ++i) {
      if (state[i] >= dyn[i].jobs) continue;
      const Time release = static_cast<Time>(state[i]) * dyn[i].period;
      const Time must_after = sat_add(release, dyn[i].jitter) - dyn[i].slot_offset;
      if (must_after <= cycle * cycle_len) continue;  // must-ready for good
      // Past the last cycle (a saturated r + J included) the change never
      // comes; below it, ceil_div cannot overflow.
      if (must_after <= last * cycle_len) {
        until = std::min(until, ceil_div(must_after, cycle_len) - 1);
      }
      if (release / cycle_len > cycle) until = std::min(until, release / cycle_len - 1);
    }
  }
  return until;
}

}  // namespace

ScheduleSpaceResult explore_dyn_schedule_space(const BusLayout& layout,
                                               std::span<const Time> message_jitter,
                                               Time horizon, const ExactOptions& options) {
  ScheduleSpaceResult result;

  // Entry validation: a zero state budget cannot explore anything; recording
  // it as a converged empty exploration would silently publish holistic
  // bounds as "exact".
  if (options.max_states == 0) {
    result.fallback = ExactFallback::InvalidOptions;
    return result;
  }

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
    d.slot_offset =
        layout.st_segment_len() + static_cast<Time>(d.fid - 1) * layout.params().gd_minislot;
    dyn.push_back(d);
  }
  if (dyn.empty()) {
    result.fallback = ExactFallback::NoDynMessages;
    return result;
  }
  const std::size_t width = dyn.size();

  // Per-FrameID candidate groups in deterministic arbitration order; the
  // engine's CHI multiset orders by (priority, ready, job), so priority
  // decides between distinct ready messages and everything tied forks.
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

  // Frontier and successor states are flat SoA rows (stride = width) of
  // per-message transmitted-job counts; the exploration starts from the
  // all-zero state.
  std::vector<std::uint32_t> frontier(width, 0);
  std::vector<std::uint32_t> next;
  std::array<std::vector<std::uint32_t>, kBuckets> buckets;
  std::vector<std::uint32_t> slots;  ///< dedup table: row index within a bucket
  std::vector<char> dead;
  std::vector<std::uint64_t> sums;
  std::vector<Time> worst(width, 0);  ///< per DynMsg worst finish - release
  std::vector<Readiness> status(width, Readiness::Absent);
  std::vector<Walk> stack;
  std::vector<std::uint32_t> pool;  ///< walk rows, stride = width

  for (Time cycle = 0; cycle < max_cycles && !frontier.empty(); ++cycle) {
    result.explored_states += frontier.size() / width;
    if (result.explored_states > options.max_states) {
      result.fallback = ExactFallback::BudgetExceeded;
      return result;
    }
    const Time cycle_start = cycle * cycle_len;
    const Time seg_start = cycle_start + st_len;

    // Expansion: walk every state's cycle once and stage the successors
    // with work left in their buckets.  Counters are committed only once
    // the cycle completes, so a branch-cap abort reports whole cycles.
    std::uint64_t transitions = 0;  ///< (readiness subset, terminal fork) pairs
    std::uint64_t pending = 0;      ///< the same, for successors not all-done
    for (auto& bucket : buckets) bucket.clear();
    for (std::size_t r = 0; r * width < frontier.size(); ++r) {
      const std::uint32_t* state = frontier.data() + r * width;

      // Classify pending head jobs.  Must: certainly in the CHI by the
      // earliest slot its FrameID can get (all earlier slots advancing by
      // one minislot); maybe: released before the cycle ends, so the
      // adversary chooses whether it arrived in time.
      std::size_t maybe_count = 0;
      for (std::size_t i = 0; i < width; ++i) {
        status[i] = Readiness::Absent;
        if (state[i] >= dyn[i].jobs) continue;
        const Time release = static_cast<Time>(state[i]) * dyn[i].period;
        if (sat_add(release, dyn[i].jitter) <= cycle_start + dyn[i].slot_offset) {
          status[i] = Readiness::Must;
        } else if (release < cycle_start + cycle_len) {
          status[i] = Readiness::Maybe;
          ++maybe_count;
        }
      }
      if (maybe_count > kMaxBranchMessages) {
        result.fallback = ExactFallback::BudgetExceeded;
        return result;
      }

      // Replay the DynSlot chain (sim/engine.cpp): one slot per FrameID,
      // stop when the FrameIDs or the minislots run out.  One walk covers
      // all 2^k readiness subsets of the maybe set: a branch's weight is the
      // number of subsets that drive the walk down it.
      stack.clear();
      pool.assign(state, state + width);
      stack.push_back(Walk{1, 1, seg_start, 0, std::uint64_t{1} << maybe_count});
      while (!stack.empty()) {
        Walk w = stack.back();
        stack.pop_back();
        if (w.fid > max_fid || w.counter > minislot_count) {
          transitions += w.weight;
          const std::uint32_t* sent = pool.data() + w.sent_at;
          if (!row_all_done(sent, dyn)) {
            pending += w.weight;
            auto& bucket = buckets[bucket_of(hash_key(sent, width))];
            bucket.insert(bucket.end(), sent, sent + width);
          }
          continue;
        }
        // Arbitrate one priority level at a time (the engine's CHI multiset
        // orders by (priority, ready, job)): the first level holding a ready
        // head transmits, forking over every ready one there, since the
        // engine breaks ties by CHI arrival order, which the ready intervals
        // cannot resolve.  `idle` weighs the subsets with no ready head so
        // far.  A must message transmits under all of them and ends the
        // arbitration; a maybe one under the half with its bit set, and the
        // other half passes it over.  A message is visited once per walk, so
        // its count is still the state's.
        std::uint64_t idle = w.weight;
        if (w.counter <= p_latest[static_cast<std::size_t>(w.fid)]) {
          const auto& group = by_fid[static_cast<std::size_t>(w.fid)];
          for (std::size_t at = 0; at < group.size() && idle != 0;) {
            const int priority = dyn[group[at]].priority;
            std::uint64_t passed = idle;
            for (; at < group.size() && dyn[group[at]].priority == priority; ++at) {
              const std::size_t i = group[at];
              if (status[i] == Readiness::Absent) continue;
              const bool must = status[i] == Readiness::Must;
              passed = must ? 0 : passed / 2;
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
              n.weight = must ? idle : idle / 2;
              stack.push_back(n);
            }
            idle = passed;
          }
        }
        if (idle != 0) {
          w.slot_time += gd;
          w.counter += 1;
          w.fid += 1;
          w.weight = idle;
          stack.push_back(w);
        }
      }
    }
    result.transitions += transitions;
    ++result.walked_cycles;

    // Merge: deduplicate each bucket through one reused open-addressing
    // table, appending its unique rows to `next`, then prune.
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
      if (unique <= kDominanceSweepLimit) {
        sweep_dominated(next, from, width, dead, sums);
      }
    }
    if (next.size() / width <= kDominanceSweepLimit) {
      sweep_dominated(next, 0, width, dead, sums);
    }
    result.merged_states += pending - next.size() / width;

    // Stationary stretch: a frontier that merged back to itself walks the
    // same branches, shifted by whole cycles, until a pending head changes
    // readiness class.  The cycles before the stretch's last one are taken
    // in bulk, counted as the step-by-step walk counts them; the last one
    // is walked, and its finishes are the stretch's latest.  A state
    // budget that runs out inside the stretch leaves `cycle` just before
    // the cycle whose budget check aborts.
    if (next == frontier) {
      const Time until =
          stationary_until(frontier, dyn, cycle, max_cycles - 1, cycle_len);
      if (until - cycle >= 2) {
        const std::uint64_t rows = frontier.size() / width;
        const std::uint64_t taken =
            std::min(static_cast<std::uint64_t>(until - cycle - 1),
                     (options.max_states - result.explored_states) / rows);
        result.explored_states += taken * rows;
        result.transitions += taken * transitions;
        result.merged_states += taken * (pending - rows);
        cycle += static_cast<Time>(taken);
      }
    }
    frontier.swap(next);
  }

  // Publish caps.  A message is covered (refinable) only if every surviving
  // state — states that hit the cycle horizon with work left — has all of
  // its jobs transmitted; paths that completed everything were dropped from
  // the frontier and are covered by construction.
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

}  // namespace flexopt
