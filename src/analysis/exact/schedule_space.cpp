#include "flexopt/analysis/exact/schedule_space.hpp"

#include <algorithm>
#include <array>
#include <bit>
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

/// Pruning policy.  Each cycle's distinct successors are ordered by
/// kBuckets buckets, picked by the top bits of their key hash, and within a
/// bucket by first occurrence.  When at most kDominanceSweepLimit of them
/// remain, one dominance sweep over all of them keeps the minimal states.
/// Above the limit every bucket of at most kDominanceSweepLimit states is
/// swept on its own, and the survivors are swept once more when at most
/// kDominanceSweepLimit remain; larger sets skip the O(n^2) sweep, and
/// identical-state merging always applies.
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

/// A partially walked bus cycle: the next FrameID slot, the minislot
/// counter (the slot starts counter - 1 minislots into the DYN segment), an
/// index into the walk pool row holding the counts accumulated on this
/// branch, and the number of the state's readiness subsets the branch
/// stands for.
struct Walk {
  int fid = 1;
  std::int64_t counter = 1;
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
  for (std::size_t i = 0; i < width; ++i) {
    if (b[i] > a[i]) return false;
  }
  return true;
}

/// The first FrameID from `fid` on whose bit is set in `marked`, or one
/// past every bit of `marked` when there is none.
int next_marked(const std::vector<std::uint64_t>& marked, int fid) {
  std::size_t word = static_cast<std::size_t>(fid) >> 6;
  std::uint64_t bits = marked[word] & (~std::uint64_t{0} << (fid & 63));
  while (bits == 0) {
    if (++word == marked.size()) return static_cast<int>(word * 64);
    bits = marked[word];
  }
  return static_cast<int>(word * 64) + std::countr_zero(bits);
}

/// Dominance sweeps over distinct rows, on reused scratch.
class DominanceSweep {
 public:
  /// Marks every row in [from, to) that another row of that range covers.
  /// Rows are visited by ascending count sum and compared only with the
  /// rows kept so far of strictly smaller sum: a row that covers another
  /// has a strictly smaller sum (the rows are distinct), and cover chains
  /// end at a row nothing covers, which is kept.
  void mark(const std::uint32_t* rows, std::size_t from, std::size_t to, std::size_t width) {
    if (to - from < 2) return;
    order_.clear();
    for (std::size_t r = from; r < to; ++r) {
      const std::uint32_t* row = rows + r * width;
      order_.emplace_back(std::accumulate(row, row + width, std::uint64_t{0}), r);
    }
    std::sort(order_.begin(), order_.end());
    kept_.clear();
    for (const auto& [sum, a] : order_) {
      bool covered = false;
      for (const auto& [kept_sum, b] : kept_) {
        if (kept_sum >= sum) break;
        if (row_covers(rows + b * width, rows + a * width, width)) {
          covered = true;
          break;
        }
      }
      if (covered) {
        dead_[a] = 1;
      } else {
        kept_.emplace_back(sum, a);
      }
    }
  }

  /// Clears the marks for `rows` rows.
  void reset(std::size_t rows) { dead_.assign(rows, 0); }

  /// Drops the marked rows; the others keep their order.
  void compact(std::vector<std::uint32_t>& rows, std::size_t width) {
    const std::size_t n = rows.size() / width;
    std::size_t write = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (dead_[a] != 0) continue;
      if (write != a) {
        std::memcpy(rows.data() + write * width, rows.data() + a * width,
                    width * sizeof(std::uint32_t));
      }
      ++write;
    }
    rows.resize(write * width);
  }

 private:
  std::vector<std::pair<std::uint64_t, std::size_t>> order_;  ///< (count sum, row)
  std::vector<std::pair<std::uint64_t, std::size_t>> kept_;   ///< by ascending sum
  std::vector<char> dead_;
};

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
  std::vector<std::uint32_t> staged;         ///< distinct successors, first occurrence first
  std::vector<std::uint64_t> staged_hash;    ///< hash_key of each staged row
  std::vector<std::uint32_t> slots;          ///< dedup table: index into `staged`
  DominanceSweep sweep;
  std::vector<Time> worst(width, 0);         ///< per DynMsg worst finish - release
  std::vector<Readiness> status(width, Readiness::Absent);
  /// Bit f: FrameID f holds a maybe- or must-ready head in the walked state.
  std::vector<std::uint64_t> marked(static_cast<std::size_t>(max_fid + 1) / 64 + 1);
  std::vector<Walk> stack;
  std::vector<std::uint32_t> pool;  ///< walk rows, stride = width

  // Stages a successor unless an identical one already is.  Equal rows
  // share a hash, so they share a bucket too.
  auto stage = [&](const std::uint32_t* row) {
    const std::uint64_t hash = hash_key(row, width);
    std::size_t mask = slots.size() - 1;
    std::size_t probe = hash & mask;
    for (;; probe = (probe + 1) & mask) {
      const std::uint32_t at = slots[probe];
      if (at == kEmptySlot) break;
      if (staged_hash[at] == hash && std::equal(row, row + width, staged.data() + at * width)) {
        return;
      }
    }
    slots[probe] = static_cast<std::uint32_t>(staged_hash.size());
    staged.insert(staged.end(), row, row + width);
    staged_hash.push_back(hash);
    if (2 * staged_hash.size() <= slots.size()) return;
    slots.assign(2 * slots.size(), kEmptySlot);
    mask = slots.size() - 1;
    for (std::uint32_t k = 0; k < staged_hash.size(); ++k) {
      probe = staged_hash[k] & mask;
      while (slots[probe] != kEmptySlot) probe = (probe + 1) & mask;
      slots[probe] = k;
    }
  };

  for (Time cycle = 0; cycle < max_cycles && !frontier.empty(); ++cycle) {
    result.explored_states += frontier.size() / width;
    if (result.explored_states > options.max_states) {
      result.fallback = ExactFallback::BudgetExceeded;
      return result;
    }
    const Time cycle_start = cycle * cycle_len;
    const Time seg_start = cycle_start + st_len;

    // Expansion: walk every state's cycle once and stage the distinct
    // successors with work left.  Counters are committed only once the
    // cycle completes, so a branch-cap abort reports whole cycles.
    std::uint64_t transitions = 0;  ///< (readiness subset, terminal fork) pairs
    std::uint64_t pending = 0;      ///< the same, for successors not all-done
    slots.assign(std::bit_ceil(std::max<std::size_t>(64, 2 * staged_hash.size() + 2)), kEmptySlot);
    staged.clear();
    staged_hash.clear();
    for (std::size_t r = 0; r * width < frontier.size(); ++r) {
      const std::uint32_t* state = frontier.data() + r * width;

      // Classify pending head jobs.  Must: certainly in the CHI by the
      // earliest slot its FrameID can get (all earlier slots advancing by
      // one minislot); maybe: released before the cycle ends, so the
      // adversary chooses whether it arrived in time.  Either marks its
      // FrameID.
      std::size_t maybe_count = 0;
      std::fill(marked.begin(), marked.end(), 0);
      for (std::size_t i = 0; i < width; ++i) {
        status[i] = Readiness::Absent;
        if (state[i] >= dyn[i].jobs) continue;
        const Time release = static_cast<Time>(state[i]) * dyn[i].period;
        if (sat_add(release, dyn[i].jitter) <= cycle_start + dyn[i].slot_offset) {
          status[i] = Readiness::Must;
        } else if (release < cycle_start + cycle_len) {
          status[i] = Readiness::Maybe;
          ++maybe_count;
        } else {
          continue;
        }
        marked[static_cast<std::size_t>(dyn[i].fid) >> 6] |= std::uint64_t{1} << (dyn[i].fid & 63);
      }
      if (maybe_count > kMaxBranchMessages) {
        result.fallback = ExactFallback::BudgetExceeded;
        return result;
      }

      // Replay the DynSlot chain (sim/engine.cpp): one slot per FrameID,
      // stop when the FrameIDs or the minislots run out.  One walk covers
      // all 2^k readiness subsets of the maybe set: a branch's weight is the
      // number of subsets that drive the walk down it.  A branch goes on
      // with its "nothing sent" continuation and leaves its forks on the
      // stack, so the branches end in depth-first order.
      stack.clear();
      pool.assign(state, state + width);
      stack.push_back(Walk{1, 1, 0, std::uint64_t{1} << maybe_count});
      while (!stack.empty()) {
        Walk w = stack.back();
        stack.pop_back();
        for (;;) {
          // Jump to the next FrameID that arbitrates: every FrameID before
          // it has no ready head, or an owner past pLatestTx, and takes one
          // minislot.
          int fid = next_marked(marked, w.fid);
          std::int64_t counter = w.counter + (fid - w.fid);
          while (fid <= max_fid && counter <= minislot_count &&
                 counter > p_latest[static_cast<std::size_t>(fid)]) {
            const int to = next_marked(marked, fid + 1);
            counter += to - fid;
            fid = to;
          }
          if (fid > max_fid || counter > minislot_count) {
            transitions += w.weight;
            const std::uint32_t* sent = pool.data() + w.sent_at;
            if (!row_all_done(sent, dyn)) {
              pending += w.weight;
              stage(sent);
            }
            break;
          }
          w.fid = fid;
          w.counter = counter;
          const Time slot_time = seg_start + (counter - 1) * gd;
          // Arbitrate one priority level at a time (the engine's CHI
          // multiset orders by (priority, ready, job)): the first level
          // holding a ready head transmits, forking over every ready one
          // there, since the engine breaks ties by CHI arrival order, which
          // the ready intervals cannot resolve.  `idle` weighs the subsets
          // with no ready head so far.  A must message transmits under all
          // of them and ends the arbitration; a maybe one under the half
          // with its bit set, and the other half passes it over.  A message
          // is visited once per walk, so its count is still the state's.
          std::uint64_t idle = w.weight;
          const auto& group = by_fid[static_cast<std::size_t>(fid)];
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
              const Time release = static_cast<Time>(pool[fork_at + i]) * dyn[i].period;
              worst[i] = std::max(worst[i], slot_time + dyn[i].occupancy - release);
              pool[fork_at + i] += 1;
              stack.push_back(Walk{fid + 1, counter + dyn[i].minislots, fork_at,
                                   must ? idle : idle / 2});
            }
            idle = passed;
          }
          if (idle == 0) break;
          w.fid += 1;
          w.counter += 1;
          w.weight = idle;
        }
      }
    }
    result.transitions += transitions;
    ++result.walked_cycles;

    // Merge: order the distinct successors by bucket, then by first
    // occurrence (a stable counting sort on the bucket bits), then prune.
    const std::size_t distinct = staged_hash.size();
    std::array<std::size_t, kBuckets + 1> bucket_start{};
    for (const std::uint64_t hash : staged_hash) ++bucket_start[bucket_of(hash) + 1];
    std::partial_sum(bucket_start.begin(), bucket_start.end(), bucket_start.begin());
    std::array<std::size_t, kBuckets> cursor;
    std::copy_n(bucket_start.begin(), kBuckets, cursor.begin());
    next.resize(distinct * width);
    for (std::size_t k = 0; k < distinct; ++k) {
      const std::size_t to = cursor[bucket_of(staged_hash[k])]++;
      std::copy_n(staged.data() + k * width, width, next.data() + to * width);
    }
    sweep.reset(distinct);
    if (distinct <= kDominanceSweepLimit) {
      sweep.mark(next.data(), 0, distinct, width);
      sweep.compact(next, width);
    } else {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        if (bucket_start[b + 1] - bucket_start[b] <= kDominanceSweepLimit) {
          sweep.mark(next.data(), bucket_start[b], bucket_start[b + 1], width);
        }
      }
      sweep.compact(next, width);
      const std::size_t survivors = next.size() / width;
      if (survivors <= kDominanceSweepLimit) {
        sweep.reset(survivors);
        sweep.mark(next.data(), 0, survivors, width);
        sweep.compact(next, width);
      }
    }
    result.merged_states += pending - next.size() / width;

    // Stationary stretch: a frontier that merged back to itself walks the
    // same branches, shifted by whole cycles, until a pending head changes
    // readiness class.  The stretch's cycles after this one are taken in
    // bulk, counted as the step-by-step walk counts them.  Their finishes
    // need no walk: each is a head job's, sent from a row that stays in the
    // frontier, so a job of that message released no later is still
    // pending after the stretch (dominance keeps a row with no more sends)
    // and finishes in a later cycle, or leaves the message uncovered at the
    // horizon; either way its bound is larger.  A state budget that runs
    // out inside the stretch leaves `cycle` just before the cycle whose
    // budget check aborts.
    if (next == frontier) {
      const Time until = stationary_until(frontier, dyn, cycle, max_cycles - 1, cycle_len);
      if (until > cycle) {
        const std::uint64_t rows = frontier.size() / width;
        const std::uint64_t taken =
            std::min(static_cast<std::uint64_t>(until - cycle),
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
