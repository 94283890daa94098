#!/usr/bin/env python3
"""Exact-count self-test of the pipeline benchmark.

Runs the benchmark twice with the same seeds and checks that every count
that must repeat exactly does: io_per_query and bytes_per_contact (untraced,
each workload), join.contacts, storage.pages_per_query, stream.segments and
the snapshot counts (traced census), and the per-workload answer hashes.
Timings are free to differ. Run from the repository root:

    python3 perfbench/selftest.py [--seed N] [--seconds S]

Exits non-zero on the first count that differs or on any failed run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("grid-cold-families", "graph-hot-boolean", "stream-ingest-query")
UNTRACED_COUNTS = ("io_per_query", "bytes_per_contact")
TRACED_COUNTS = ("join.contacts", "storage.pages_per_query", "stream.segments",
                 "stream.snapshot_segments_per_query",
                 "stream.snapshot_head_contacts_per_query")


def run(workload, seed, seconds, trace):
    """Returns (exact counts, answer hashes) of one benchmark run."""
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"selftest: {workload} trace={trace} failed "
                 f"(exit {result.returncode})")
    verdict = json.loads(lines[-1])
    if not verdict["correct"] or verdict["failed"] != 0:
        sys.exit(f"selftest: {workload} trace={trace} reported wrong answers")
    names = TRACED_COUNTS if trace else UNTRACED_COUNTS
    counts = {name: verdict["metrics"][name]["value"] for name in names}
    hashes = {}
    for line in lines:
        if line.startswith("answer_hash "):
            _, name, value = line.split()
            hashes[name] = value
    return counts, hashes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    cases = [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]
    failures = 0
    for workload, trace in cases:
        first = run(workload, args.seed, args.seconds, trace)
        second = run(workload, args.seed, args.seconds, trace)
        for kind, a, b in (("count", first[0], second[0]),
                           ("answer_hash", first[1], second[1])):
            for name in sorted(set(a) | set(b)):
                same = a.get(name) == b.get(name)
                failures += not same
                print(f"{'ok  ' if same else 'DIFF'} trace={trace} {workload} "
                      f"{kind} {name}: {a.get(name)} vs {b.get(name)}")
    if failures:
        sys.exit(f"selftest: {failures} value(s) differ between same-seed runs")
    print("selftest: all exact counts and answer hashes repeat")


if __name__ == "__main__":
    main()
