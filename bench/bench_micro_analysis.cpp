// Google-benchmark micro-benchmarks of the analysis kernels that dominate
// optimisation runtime: BusLayout construction, static schedule building,
// full holistic analysis, single DYN response-time recurrences, busy-
// profile queries and OBC-CF's interpolated candidate scan.  These
// calibrate the cost model behind the Fig. 9 runtime comparison (one
// "evaluation" = one analyze_system call).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/detail/curve_fit_scan.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

struct CcFixture {
  Application app = build_cruise_controller();
  BusParams params = cruise_controller_params();
  BusConfig config;

  CcFixture() {
    config.frame_id = assign_frame_ids_by_criticality(app, params);
    const auto senders = st_sender_nodes(app);
    config.static_slot_count = static_cast<int>(senders.size());
    config.static_slot_len = min_static_slot_len(app, params);
    config.static_slot_owner = senders;
    const DynBounds bounds = dyn_segment_bounds(
        app, params, static_cast<Time>(config.static_slot_count) * config.static_slot_len);
    config.minislot_count = bounds.min_minislots + 64;
  }
};

const CcFixture& cc() {
  static const CcFixture fixture;
  return fixture;
}

void BM_BusLayoutBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto layout = BusLayout::build(cc().app, cc().params, cc().config);
    benchmark::DoNotOptimize(layout);
  }
}
BENCHMARK(BM_BusLayoutBuild);

void BM_StaticScheduleAsap(benchmark::State& state) {
  const auto layout = BusLayout::build(cc().app, cc().params, cc().config);
  SchedulerOptions options;
  options.placement = Placement::Asap;
  for (auto _ : state) {
    auto schedule = build_static_schedule(layout.value(), options);
    benchmark::DoNotOptimize(schedule);
  }
}
BENCHMARK(BM_StaticScheduleAsap);

void BM_StaticScheduleMinFpsImpact(benchmark::State& state) {
  const auto layout = BusLayout::build(cc().app, cc().params, cc().config);
  SchedulerOptions options;
  options.placement = Placement::MinimizeFpsImpact;
  for (auto _ : state) {
    auto schedule = build_static_schedule(layout.value(), options);
    benchmark::DoNotOptimize(schedule);
  }
}
BENCHMARK(BM_StaticScheduleMinFpsImpact);

void BM_AnalyzeSystemCruiseController(benchmark::State& state) {
  const auto layout = BusLayout::build(cc().app, cc().params, cc().config);
  AnalysisOptions options;
  options.scheduler.placement = Placement::Asap;
  for (auto _ : state) {
    auto result = analyze_system(layout.value(), options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AnalyzeSystemCruiseController);

void BM_AnalyzeSystemSynthetic(benchmark::State& state) {
  SyntheticSpec spec;
  spec.nodes = static_cast<int>(state.range(0));
  spec.seed = 11;
  BusParams params;
  params.gd_minislot = timeunits::us(5);
  auto app = generate_synthetic(spec, params);
  if (!app.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  BusConfig config;
  config.frame_id = assign_frame_ids_by_criticality(app.value(), params);
  const auto senders = st_sender_nodes(app.value());
  config.static_slot_count = static_cast<int>(senders.size());
  config.static_slot_len = min_static_slot_len(app.value(), params);
  config.static_slot_owner = senders;
  const DynBounds bounds = dyn_segment_bounds(
      app.value(), params,
      static_cast<Time>(config.static_slot_count) * config.static_slot_len);
  config.minislot_count = bounds.min_minislots + 64;
  const auto layout = BusLayout::build(app.value(), params, config);
  AnalysisOptions options;
  options.scheduler.placement = Placement::Asap;
  for (auto _ : state) {
    auto result = analyze_system(layout.value(), options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AnalyzeSystemSynthetic)->Arg(2)->Arg(4)->Arg(7);

void BM_DynResponseTime(benchmark::State& state) {
  const auto layout = BusLayout::build(cc().app, cc().params, cc().config);
  std::vector<Time> jitters(cc().app.message_count(), timeunits::us(500));
  // Highest FrameID message = most interference work.
  MessageId target{0};
  int best = 0;
  for (std::uint32_t m = 0; m < cc().app.message_count(); ++m) {
    if (cc().config.frame_id[m] > best) {
      best = cc().config.frame_id[m];
      target = static_cast<MessageId>(m);
    }
  }
  for (auto _ : state) {
    auto r = dyn_response_time(layout.value(), target, jitters, timeunits::ms(160));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DynResponseTime);

/// S(w) over `state.range(0)` evenly spread intervals in a 12.8 ms period,
/// for windows swept up to 4 periods (the FPS horizon).
void BM_BusyProfileMaxWindow(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Time period = timeunits::us(12'800);
  const Time pitch = period / n;
  std::vector<Interval> intervals;
  for (int i = 0; i < n; ++i) intervals.push_back({pitch * i, pitch * i + pitch * 2 / 5});
  const BusyProfile profile(std::move(intervals), period);
  Time w = timeunits::us(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.max_busy_in_window(w));
    w = (w % (4 * period)) + timeunits::us(97);
  }
}
BENCHMARK(BM_BusyProfileMaxWindow)->Arg(4)->Arg(32)->Arg(128);

/// A fig9-sized OBC-CF search: 65 activities (the fig9 mean is 64.8), a
/// 128-candidate grid and 17 analysed points in the order a search adds
/// them — five geometrically spaced initial points, then refinements.
struct ScanFixture {
  std::vector<int> grid;
  std::vector<Time> deadlines;
  std::vector<int> xs;
  std::vector<std::vector<double>> completions_us;

  ScanFixture() {
    Rng rng(3);
    for (int c = 0; c < 128; ++c) grid.push_back(40 + 6 * c);
    for (int i = 0; i < 65; ++i) deadlines.push_back(timeunits::us(rng.uniform_int(5, 80) * 1000));
    for (const int x : {40, 85, 179, 379, 802}) xs.push_back(x);
    while (xs.size() < 17) {
      const int x = grid[rng.index(grid.size())];
      if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
    }
    for (std::size_t p = 0; p < xs.size(); ++p) {
      std::vector<double> us;
      for (const Time d : deadlines) {
        us.push_back(to_us(static_cast<Time>(static_cast<double>(d) * rng.uniform_real(0.3, 1.4))));
      }
      completions_us.push_back(std::move(us));
    }
  }

  void fill(detail::CurveFitScan& scan, std::size_t points) const {
    scan.clear();
    for (std::size_t p = 0; p < points; ++p) scan.add_point(xs[p], completions_us[p]);
  }
};

const ScanFixture& scan_fixture() {
  static const ScanFixture fixture;
  return fixture;
}

/// One refresh of a scan over `state.range(0)` points — fit the family and
/// cost every un-analysed candidate — plus the Fig. 8 lines 6-11 argmin
/// over the grid.  5 points are a Newton fit, 9 and 16 piecewise-linear.
void BM_CurveFitScan(benchmark::State& state) {
  const ScanFixture& f = scan_fixture();
  detail::CurveFitScan scan(f.grid, f.deadlines);
  for (auto _ : state) {
    f.fill(scan, static_cast<std::size_t>(state.range(0)));
    scan.refresh();
    double best = kInvalidConfigCost;
    for (std::size_t c = 0; c < f.grid.size(); ++c) {
      if (!scan.analysed(c)) best = std::min(best, scan.grid_cost(c));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_CurveFitScan)->Arg(5)->Arg(9)->Arg(16);

/// The refresh after a 16-point piecewise-linear scan grows by one point:
/// only the candidates between the new point's neighbours are recomputed.
void BM_CurveFitScanGrowByOne(benchmark::State& state) {
  const ScanFixture& f = scan_fixture();
  detail::CurveFitScan scan(f.grid, f.deadlines);
  for (auto _ : state) {
    state.PauseTiming();
    f.fill(scan, 16);
    scan.refresh();
    state.ResumeTiming();
    scan.add_point(f.xs[16], f.completions_us[16]);
    scan.refresh();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CurveFitScanGrowByOne);

}  // namespace
}  // namespace flexopt

BENCHMARK_MAIN();
