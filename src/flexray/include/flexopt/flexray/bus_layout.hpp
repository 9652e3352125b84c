#pragma once

/// \file bus_layout.hpp
/// Validated, derived view of (Application, BusParams, BusConfig):
/// per-message communication times (Eq. 1), segment/cycle lengths, DYN slot
/// ownership, pLatestTx per node, and the interference sets hp(m) / lf(m) /
/// ms(m) of Section 5.1.  Analysis and simulation consume a BusLayout, never
/// a raw BusConfig.

#include <vector>

#include "flexopt/flexray/bus_config.hpp"
#include "flexopt/flexray/params.hpp"
#include "flexopt/model/application.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

class BusLayout {
 public:
  /// An empty layout: every accessor is meaningless until a successful
  /// assign().  Exists so the evaluation hot path can keep one BusLayout
  /// per worker slot and rebuild it in place per candidate.
  BusLayout() = default;

  /// Validates `config` against the application and the FlexRay limits.
  /// Checks performed:
  ///  * slot/minislot counts and cycle length within SpecLimits;
  ///  * every node that sends ST messages owns at least one ST slot;
  ///  * ST slot long enough for the largest ST frame;
  ///  * every DYN message has a FrameID in [1, minislot_count];
  ///  * messages sharing a FrameID originate from the same node (a DYN slot
  ///    belongs to exactly one node);
  ///  * the largest DYN frame of every sending node fits in the DYN segment
  ///    (pLatestTx >= 1).
  static Expected<BusLayout> build(const Application& app, const BusParams& params,
                                   BusConfig config);

  /// In-place rebuild: identical validation and derived state to build(),
  /// but every member vector is refilled reusing its capacity, so
  /// re-assigning layouts of the same application performs zero heap
  /// allocations at steady state (error paths excepted).  On error the
  /// layout is unspecified and must be assigned again before use.
  Expected<bool> assign(const Application& app, const BusParams& params,
                        const BusConfig& config);

  // ---- cycle geometry ------------------------------------------------------
  [[nodiscard]] Time st_segment_len() const { return st_segment_len_; }
  [[nodiscard]] Time dyn_segment_len() const { return dyn_segment_len_; }
  [[nodiscard]] Time cycle_len() const { return st_segment_len_ + dyn_segment_len_; }
  /// Bus-relative start offset of static slot `slot` (0-based) in a cycle.
  [[nodiscard]] Time static_slot_start(int slot) const {
    return static_cast<Time>(slot) * config_.static_slot_len;
  }

  // ---- per-message quantities ---------------------------------------------
  /// Communication time C_m (Eq. 1), indexed by MessageId.
  [[nodiscard]] const std::vector<Time>& message_durations() const { return durations_; }
  [[nodiscard]] Time message_duration(MessageId m) const { return durations_[index_of(m)]; }
  /// Minislots occupied by a DYN message's frame (0 for ST messages).
  [[nodiscard]] int message_minislots(MessageId m) const { return minislots_[index_of(m)]; }
  /// Bus time a DYN frame occupies: whole minislots (>= C_m).  The receiver
  /// CHI exposes the payload at the end of the last occupied minislot, so
  /// DYN response times are computed with this instead of the raw C_m.
  [[nodiscard]] Time message_occupancy(MessageId m) const {
    return static_cast<Time>(minislots_[index_of(m)]) * params_.gd_minislot;
  }
  [[nodiscard]] int frame_id(MessageId m) const { return config_.frame_id[index_of(m)]; }

  // ---- DYN segment structure ----------------------------------------------
  /// Largest FrameID in use (the DYN slot counter only matters up to here).
  [[nodiscard]] int max_frame_id() const { return max_frame_id_; }
  /// Owner node of DYN slot `fid` (1-based); returns false if unowned.
  [[nodiscard]] bool frame_id_owner(int fid, NodeId* owner) const;
  /// pLatestTx of a node: the last 1-based minislot index at which the node
  /// may still begin a DYN transmission (its largest frame still fits).
  /// Equals minislot_count for nodes without DYN messages.
  [[nodiscard]] int p_latest_tx(NodeId node) const { return p_latest_tx_[index_of(node)]; }

  // ---- interference sets of Section 5.1 ------------------------------------
  /// hp(m): higher-priority messages sharing m's FrameID (same sender node).
  [[nodiscard]] std::vector<MessageId> hp(MessageId m) const;
  /// lf(m): DYN messages with a strictly lower FrameID than m's.
  [[nodiscard]] std::vector<MessageId> lf(MessageId m) const;
  /// |ms(m)|: number of DYN slots with lower FrameIDs (each costs at least
  /// one minislot per cycle even when unused).
  [[nodiscard]] int ms_count(MessageId m) const { return frame_id(m) - 1; }

  // ---- static segment structure ---------------------------------------------
  /// ST slot indices (0-based) owned by `node`, in cycle order.
  [[nodiscard]] const std::vector<int>& static_slots_of(NodeId node) const {
    return st_slots_of_node_[index_of(node)];
  }

  [[nodiscard]] const BusConfig& config() const { return config_; }
  [[nodiscard]] const BusParams& params() const { return params_; }
  [[nodiscard]] const Application& application() const { return *app_; }

 private:
  /// Shared tail of build()/assign(): validates config_ against *app_ and
  /// refills the derived members in place (capacity-reusing).
  Expected<bool> validate_and_derive();

  const Application* app_ = nullptr;
  BusParams params_;
  BusConfig config_;

  Time st_segment_len_ = 0;
  Time dyn_segment_len_ = 0;
  std::vector<Time> durations_;
  std::vector<int> minislots_;
  std::vector<int> p_latest_tx_;
  std::vector<std::vector<int>> st_slots_of_node_;
  /// frame id -> owner node index, or -1 when unowned; index 0 unused.
  std::vector<int> fid_owner_;
  int max_frame_id_ = 0;
};

}  // namespace flexopt
