#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload grid-cold-families --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the library and the benchmark program
from source into .bench_build/ (Release); later runs reuse that build. All
build output goes to stderr, so the last line of stdout is the program's JSON
result. The exit code is the program's: non-zero when an answer disagreed
with the oracle or the build or run failed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("grid-cold-families", "graph-hot-boolean", "stream-ingest-query")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: drives the query generators")
    parser.add_argument("--dataset-seed", type=int, default=42,
                        help="trajectory generator seed (default 42)")
    parser.add_argument("--seconds", type=int, required=True,
                        help="timed phase length per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer census instead of the "
                             "end-to-end timing")
    return parser.parse_args()


def build(bench_dir: Path, build_dir: Path) -> Path:
    if not (bench_dir.parent / "src" / "engine" / "query_engine.h").is_file():
        sys.exit("run.py: library sources (src/) not found next to "
                 f"{bench_dir.name}/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return build_dir / "pipeline_bench"


def main():
    args = parse_args()
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build_dir = root / ".bench_build"
    binary = build(bench_dir, build_dir)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed),
               "--dataset-seed", str(args.dataset_seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
