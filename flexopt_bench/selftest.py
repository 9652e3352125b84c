#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny population of each workload.

    python3 flexopt_bench/selftest.py

For every workload it runs `run.py --tiny` untraced twice on one seed and
traced once, and checks that
  * each run passes its correctness gate and prints a contract result line,
  * every metric the README names for the workload is emitted with its unit
    and better-direction (the untraced run carries the end-to-end metrics,
    the traced run the per-layer ones),
  * the two untraced runs on one seed produce identical record digests,
    and the traced run's digest equals them too.
Exits non-zero on the first failed check.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

LOWER, HIGHER = "lower", "higher"
COMMON_E2E = {
    "setup_s": ("s", LOWER), "scenarios_per_s": ("1/s", HIGHER),
    "scenario_ms_p50": ("ms", LOWER), "scenario_ms_p90": ("ms", LOWER),
    "peak_rss_mb": ("MB", LOWER), "failed_share": ("ratio", LOWER),
}
SOLVE_E2E = {
    "solve_ms_p50": ("ms", LOWER), "solve_ms_p90": ("ms", LOWER),
    "evals_per_s": ("1/s", HIGHER), "feasible_share": ("ratio", HIGHER),
}
VERIFY_E2E = {"verify_ms_p50": ("ms", LOWER), "verify_ms_p90": ("ms", LOWER)}
COMMON_LAYER = {
    "gen.generate_ms": ("ms", LOWER), "model.project_ms": ("ms", LOWER),
    "trace.overhead_pct": ("%", LOWER), "trace.spans": ("count", LOWER),
}
PER_EVAL = {
    f"analysis.{name}_per_eval": ("count", LOWER)
    for name in ("components", "schedule_builds", "fixed_point_iterations", "holistic_iterations")
}
EVALUATOR = {
    "core.cache_hit_ratio": ("ratio", HIGHER), "core.delta_share": ("ratio", HIGHER),
    "core.reuse_ratio": ("ratio", HIGHER),
}
VERIFY_LAYER = {
    "analysis.layout_us": ("us", LOWER), "analysis.holistic_us": ("us", LOWER),
    "analysis.cross_iterations": ("count", LOWER), "netsim.simulate_ms": ("ms", LOWER),
    "netsim.events_per_s": ("1/s", HIGHER), "netsim.soundness_us": ("us", LOWER),
}

CATALOG = {
    "fig9_campaign": (
        {**COMMON_E2E, **SOLVE_E2E},
        {**COMMON_LAYER, **PER_EVAL, **EVALUATOR,
         "core.arena_reuse_ratio": ("ratio", HIGHER),
         "core.eval_us_p50": ("us", LOWER), "core.eval_us_p90": ("us", LOWER),
         **{f"core.solve_ms.{a}": ("ms", LOWER) for a in ("bbc", "obc-cf", "obc-ee", "sa")},
         "campaign.worker_busy_share": ("ratio", HIGHER), "io.report_ms": ("ms", LOWER)},
    ),
    "multicluster_portfolio": (
        {**COMMON_E2E, **SOLVE_E2E, **VERIFY_E2E},
        {**COMMON_LAYER, **PER_EVAL, **EVALUATOR, **VERIFY_LAYER,
         "core.member_eval_us": ("us", LOWER), "core.solve_ms.portfolio": ("ms", LOWER),
         "core.portfolio_efficiency": ("ratio", HIGHER),
         "core.portfolio_member_ms_max": ("ms", LOWER)},
    ),
    "exact_verify": (
        {**COMMON_E2E, **VERIFY_E2E,
         "pessimism_gap_pct": ("%", HIGHER), "exact_fallback_share": ("ratio", LOWER)},
        {**COMMON_LAYER, **VERIFY_LAYER,
         "analysis.exact_us": ("us", LOWER), "analysis.exact_states": ("count", LOWER),
         "analysis.exact_states_per_s": ("1/s", HIGHER),
         "analysis.exact_merge_ratio": ("ratio", HIGHER)},
    ),
}


def fail(message):
    print(f"selftest: FAIL: {message}", flush=True)
    sys.exit(1)


def run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:\n{done.stdout[-3000:]}"
             f"\n{done.stderr[-3000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
        fail(f"{workload} trace={trace}: bad result line {line}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    results = build_dir / "results" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    return json.loads(results.read_text())


def check_catalog(workload, results, expected, scope):
    emitted = {m["name"]: m for m in results["metrics"] if m["scope"] == scope}
    for name, (unit, better) in expected.items():
        metric = emitted.get(name)
        if metric is None:
            fail(f"{workload}: {scope} metric {name} not emitted")
        if (metric["unit"], metric["better"]) != (unit, better):
            fail(f"{workload}: {name} is {metric['unit']}/{metric['better']}, "
                 f"expected {unit}/{better}")


def main():
    for workload, (e2e, layer) in CATALOG.items():
        first = run(workload, 0)
        second = run(workload, 0)
        traced = run(workload, 1)
        check_catalog(workload, first, e2e, "end_to_end")
        check_catalog(workload, traced, layer, "per_layer")
        digests = {first["digest"], second["digest"], traced["digest"]}
        if len(digests) != 1:
            fail(f"{workload}: digests differ across runs of seed {SEED}: {sorted(digests)}")
        print(f"selftest: {workload} ok ({len(e2e)} end-to-end + {len(layer)} per-layer "
              f"metrics, digest {first['digest']} over {first['records']} records)", flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
