#!/usr/bin/env python3
"""Run one benchmark workload in this process and report, next to its
result, the peak resident memory of the batch workers the program forked.

The benchmark's peak_rss_mb is RUSAGE_SELF of the process that runs the
workload, which is the main `wpx` process. Batch workers are its forked
children, so their peak is RUSAGE_CHILDREN of that same process once they
have been joined; this script reads both after one untraced run:

    python3 scripts/bench_rss.py --workload relabel_corpus --seed 1 --seconds 32
    python3 scripts/bench_rss.py --workload relabel_corpus --seed 1 --root ../other-checkout

--root names the checkout whose program and benchmark run (default: this
one). The benchmark's lines come first; the last line is one JSON object,
the workload's result plus children_peak_rss_mb (0 when nothing was forked)
and self_peak_rss_mb.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

WORKLOAD_NAMES = ("relabel_corpus", "long_extract", "compare_corpus")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0, help="length of the measured window")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and wpxbench/ run")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import waypoint_extraction

    if not Path(waypoint_extraction.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported {waypoint_extraction.__file__}, not the program under {root / 'src'}", file=sys.stderr)
        return 2
    from wpxbench.harness import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, False, root)
    peak = {who: resource.getrusage(getattr(resource, f"RUSAGE_{who.upper()}")).ru_maxrss / 1024.0
            for who in ("self", "children")}
    print(json.dumps({**result, "self_peak_rss_mb": peak["self"], "children_peak_rss_mb": peak["children"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
