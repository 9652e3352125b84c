#pragma once

/// \file cluster_layout.hpp
/// Backend-tagged per-cluster layout — the validated (application, config)
/// pair the cluster-generic layers analyse and simulate without knowing
/// which protocol the cluster speaks.  This is the runtime face of the
/// ClusterBackend interface: ClusterConfig (flexray/system_config.hpp) is
/// the decision-variable side, ClusterLayout the derived-geometry side, and
/// analyze_multicluster dispatches per cluster on `kind()`.

#include "flexopt/analysis/tsn_analysis.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/cluster_backend.hpp"
#include "flexopt/util/expected.hpp"

namespace flexopt {

class ClusterLayout {
 public:
  ClusterLayout() = default;

  /// Validates the payload selected by `config.kind` against `app`, in
  /// place: re-assigning a layout of the same application performs zero
  /// heap allocations at steady state (error paths excepted).  The other
  /// payload is left as it was.  On error the layout is unspecified and
  /// must be assigned again before use.
  Expected<bool> assign(const Application& app, const BusParams& params,
                        const ClusterConfig& config) {
    kind_ = config.kind;
    return config.kind == ClusterBackendKind::Tsn ? tsn_.assign(app, config.tsn)
                                                  : flexray_.assign(app, params, config.flexray);
  }

  [[nodiscard]] ClusterBackendKind kind() const { return kind_; }
  [[nodiscard]] const BusLayout& flexray() const { return flexray_; }
  [[nodiscard]] const TsnLayout& tsn() const { return tsn_; }

  /// Communication cycle of the backend (FlexRay bus cycle / TSN gating
  /// cycle) — what simulators align replay horizons to.
  [[nodiscard]] Time cycle_len() const {
    return kind_ == ClusterBackendKind::Tsn ? tsn_.cycle_len() : flexray_.cycle_len();
  }

  [[nodiscard]] const Application& application() const {
    return kind_ == ClusterBackendKind::Tsn ? tsn_.application() : flexray_.application();
  }

 private:
  ClusterBackendKind kind_ = ClusterBackendKind::FlexRay;
  BusLayout flexray_;
  TsnLayout tsn_;
};

}  // namespace flexopt
