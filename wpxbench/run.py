#!/usr/bin/env python3
"""Benchmark entry point: one workload per call, result as the last line.

    python3 wpxbench/run.py --workload relabel_corpus --seed 0 --seconds 32 --trace 0

Runs from the root of a checkout and benchmarks the program under src/ of
that checkout. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. --workload all runs every
workload, each in its own process, one after another.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("relabel_corpus", "long_extract", "compare_corpus")
CHILD_TIMEOUT_S = 170


def _run_all(args) -> int:
    """Each workload in a child process; prints the children's lines, then
    one JSON object with every metric prefixed by its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the wpx waypoint-extraction tool.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args()
    if args.workload == "all":
        return _run_all(args)

    if not (SRC / "waypoint_extraction" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import waypoint_extraction

    if not Path(waypoint_extraction.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {waypoint_extraction.__file__}, not the program under {SRC}", file=sys.stderr)
        return 2
    from wpxbench.harness import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
