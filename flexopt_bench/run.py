#!/usr/bin/env python3
"""Build flexopt_bench from the enclosing source tree and run one workload.

    python3 flexopt_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the source tree.  The build goes to $CARGO_TARGET_DIR
(default .bench_build), configured Release; the first run compiles the
library, later runs only relink what changed.  The benchmark's text output
(environment, every metric with unit and direction, record digest, per-layer
self-time table) is passed through, and the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
every end_to_end metric of BENCHMARK.json with --trace 0, every per_layer
metric with --trace 1.  Full results and, when traced, a Chrome trace-event
file are written under <build dir>/results/.

Exits non-zero without a result line when the build or the run fails, and
with correct=false when the benchmark's correctness gate fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(build_dir), "--target", "flexopt_bench", "-j"]
    # Compiler temporaries stay inside the build directory.
    temp_dir = build_dir / "tmp"
    temp_dir.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(temp_dir))
    with open(build_dir / "build.log", "a") as build_log:
        def run(step):
            return subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT,
                                  env=env).returncode == 0
        configured = (build_dir / "CMakeCache.txt").exists() or run(configure)
        # A parallel compile that fails (a compiler killed on a machine short
        # of memory, say) is retried once with a single job.
        built = configured and (run(compile_ + [str(len(os.sched_getaffinity(0)))])
                                or run(compile_ + ["1"]))
    if not built:
        tail = (build_dir / "build.log").read_text(errors="replace")[-4000:]
        log(f"build failed:\n{tail}")
        return None
    return build_dir / "flexopt_bench"


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few systems per workload (self-test size)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as error:
        log(f"cannot read {spec_path}: {error}")
        return 1
    # Workload names are checked by the program: it also runs workloads that
    # BENCHMARK.json does not list (multicluster_portfolio, see README.md).

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    results_dir = build_dir / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out_path = results_dir / f"{stem}.json"
    trace_path = results_dir / f"{stem}.trace.json"
    if out_path.exists():
        out_path.unlink()

    # The program takes 64-bit seeds; any integer maps onto one.
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed % 2**64),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", str(out_path), "--trace-out", str(trace_path)]
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ, FLEXOPT_BENCH_GIT_SHA=git_sha())
    sys.stdout.flush()
    code = subprocess.run(command, env=env).returncode
    if code not in (0, 1) or not out_path.exists():
        how = f"signal {-code}" if code < 0 else f"code {code}"
        log(f"flexopt_bench exited with {how} and no results")
        return 1
    results = json.loads(out_path.read_text())

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = {m["name"]: m for m in results["metrics"]}
    metrics = {}
    for metric in wanted:
        found = measured.get(metric["name"])
        if found is None or found["unit"] != metric["unit"] or found["better"] != metric["better"]:
            log(f"metric {metric['name']} missing or with another unit/direction: {found}")
            return 1
        metrics[metric["name"]] = {"value": found["value"], "unit": found["unit"]}
    line = {"correct": bool(results["correct"]), "attempted": int(results["attempted"]),
            "failed": int(results["failed"]), "metrics": metrics}
    print(json.dumps(line), flush=True)
    if not results["correct"]:
        log(f"correctness gate failed: {results['failed']} of {results['attempted']} operations")
        for why in results["failures"]:
            log(f"  failure: {why}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
