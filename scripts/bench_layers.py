#!/usr/bin/env python3
"""Time the global loss and the replay deviation on serial compare_corpus passes.

Generates the benchmark's compare_corpus inputs (FULL size) for one seed,
pins this process to one CPU, so that `wpx compare` runs its batch without a
worker, and runs the pass in this process. Per pass it times
SegmentScorer.global_loss and replay.max_deviation_from_polyline, and counts
the top-level chord-kernel calls (reconstruction._row_distances) and rows
inside each:

    python3 scripts/bench_layers.py --passes 3
    python3 scripts/bench_layers.py --passes 3 --root ../other-checkout

--root names the checkout whose program runs (default: this one). The last
line is one JSON object: the best time of each layer and of the whole pass
over the passes, and the counts of the last pass, which every pass repeats.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

LAYERS = ("global_loss", "deviation")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ runs")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent.parent)]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from waypoint_extraction import cli, reconstruction, replay
    from wpxbench.workloads import FULL, CompareCorpus

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported {cli.__file__}, not the program under {root / 'src'}", file=sys.stderr)
        return 2
    stats = {f"{layer}_{what}": 0 for layer in LAYERS for what in ("s", "kernel_calls", "kernel_rows")}
    inside = []  # the layer of the open span, innermost last

    def timed(layer, fn):
        def wrapper(*a, **kw):
            inside.append(layer)
            start = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                stats[f"{layer}_s"] += time.perf_counter() - start
                inside.pop()
        return wrapper

    kernel = reconstruction._row_distances
    depth = [0]

    def counting(points, anchors, t, *rest):
        if inside and not depth[0]:
            stats[f"{inside[-1]}_kernel_calls"] += 1
            stats[f"{inside[-1]}_kernel_rows"] += len(t)
        depth[0] += 1
        try:
            return kernel(points, anchors, t, *rest)
        finally:
            depth[0] -= 1

    reconstruction.SegmentScorer.global_loss = timed("global_loss", reconstruction.SegmentScorer.global_loss)
    replay.max_deviation_from_polyline = timed("deviation", replay.max_deviation_from_polyline)
    reconstruction._row_distances = counting
    best = {}
    with tempfile.TemporaryDirectory() as tmp:
        wl = CompareCorpus(FULL, args.seed)
        wl.write_inputs(Path(tmp))
        (label, argv), = wl.calls(Path(tmp))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(wl.warm_calls(Path(tmp))[0])
            for _ in range(args.passes):
                stats.update(dict.fromkeys(stats, 0))
                start = time.perf_counter()
                if cli.main(argv) != 0:
                    raise RuntimeError(f"{label} failed")
                stats["pass_s"] = time.perf_counter() - start
                for key in ("pass_s", *(f"{layer}_s" for layer in LAYERS)):
                    best[key] = round(min(best.get(key, float("inf")), stats[key]), 4)
    print(json.dumps({"root": str(root), "seed": args.seed, "passes": args.passes, **stats, **best}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
