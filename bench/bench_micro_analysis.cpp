// Google-benchmark micro-benchmarks of the analysis kernels that dominate
// optimisation runtime: BusLayout construction, static schedule building,
// full holistic analysis, single DYN response-time recurrences and busy-
// profile queries.  These calibrate the cost model behind the Fig. 9
// runtime comparison (one "evaluation" = one analyze_system call).

#include <benchmark/benchmark.h>

#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/gen/synthetic.hpp"

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

}  // namespace
}  // namespace flexopt

BENCHMARK_MAIN();
