// BusConfig sub-hashes: which neighbourhood moves keep and which change
// the keys the component cache stores schedule tables (geometry_key) and
// exact explorations (dyn_key) under.

#include <gtest/gtest.h>

#include <vector>

#include "flexopt/analysis/incremental.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/cruise_control.hpp"

namespace flexopt {
namespace {

/// BBC-shaped base configuration for the cruise controller.
struct Fixture {
  Application app = build_cruise_controller();
  BusParams params = cruise_controller_params();
  BusConfig base;

  Fixture() {
    const StartConfig start = minimal_start_config(app, params);
    EXPECT_TRUE(start.bounds.feasible());
    base = start.config;
    base.minislot_count = (start.bounds.min_minislots + start.bounds.max_minislots) / 2;
  }

  /// Indices of DYN messages (frame_id != 0), ascending.
  [[nodiscard]] std::vector<std::size_t> dyn_messages() const {
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < base.frame_id.size(); ++m) {
      if (base.frame_id[m] != 0) out.push_back(m);
    }
    return out;
  }
};

TEST(ConfigSubHashes, FrameIdChangeKeepsGeometryKey) {
  const Fixture f;
  const auto dyn = f.dyn_messages();
  ASSERT_FALSE(dyn.empty());
  BusConfig next = f.base;
  next.frame_id[dyn.front()] += 1;
  const ConfigSubHashes a = config_subhashes(f.base);
  const ConfigSubHashes b = config_subhashes(next);
  EXPECT_EQ(a.geometry_key, b.geometry_key);
  EXPECT_NE(a.dyn_key, b.dyn_key);
}

TEST(ConfigSubHashes, OwnerChangeKeepsDynKey) {
  const Fixture f;
  ASSERT_GE(f.base.static_slot_owner.size(), 2u);
  BusConfig next = f.base;
  std::swap(next.static_slot_owner.front(), next.static_slot_owner.back());
  ASSERT_NE(next.static_slot_owner, f.base.static_slot_owner);
  const ConfigSubHashes a = config_subhashes(f.base);
  const ConfigSubHashes b = config_subhashes(next);
  EXPECT_NE(a.geometry_key, b.geometry_key);
  EXPECT_EQ(a.dyn_key, b.dyn_key);
}

TEST(ConfigSubHashes, MinislotChangeInvalidatesBothKeys) {
  const Fixture f;
  BusConfig next = f.base;
  next.minislot_count += 1;
  const ConfigSubHashes a = config_subhashes(f.base);
  const ConfigSubHashes b = config_subhashes(next);
  EXPECT_NE(a.geometry_key, b.geometry_key);
  EXPECT_NE(a.dyn_key, b.dyn_key);
}

}  // namespace
}  // namespace flexopt
