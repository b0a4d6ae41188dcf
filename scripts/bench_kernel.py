"""Time the chord kernel, reconstruction._row_distances, per call.

Scores batches of rows shaped as the solver's exact checks make them: each
row is an interior frame of its own random chord of an end-effector demo of
the benchmark recipe (seed 0, 3,969 frames), under the default metric.
Prints one JSON line with the best per-call time in microseconds over the
repeats, for each batch size:

    PYTHONPATH=src python scripts/bench_kernel.py --rows 64 1600
"""

from __future__ import annotations

import argparse
import json
import timeit

import numpy as np

from waypoint_extraction.reconstruction import _row_distances
from waypoint_extraction.state_space import DEFAULT_METRIC
from waypoint_extraction.synthetic import make_segmented_ee_trajectory


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[64, 1600])
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--seconds", type=float, default=0.05, help="time per repeat")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    traj = make_segmented_ee_trajectory(rng, eta=0.005, n_segments=64, frames_per_segment=62)
    out = {}
    for rows in args.rows:
        src = rng.integers(0, len(traj) - 80, rows)
        dst = src + rng.integers(2, 80, rows)
        t = src + 1 + (rng.random(rows) * (dst - src - 1)).astype(int)
        timer = timeit.Timer(lambda: _row_distances(traj, traj, t, src, dst, DEFAULT_METRIC))
        number = max(1, int(args.seconds / min(timer.repeat(3, 1))))
        out[f"row_distances_{rows}_us"] = round(min(timer.repeat(args.repeat, number)) / number * 1e6, 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
