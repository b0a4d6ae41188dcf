"""Time the chord kernel, reconstruction._row_distances, per call.

Scores batches of rows shaped as the solver's exact checks make them: each
row is an interior frame of its own random chord. Two inputs: an
end-effector demo of the benchmark recipe (seed 0, 3,969 frames) under the
default metric, and an 8-D joint random walk (seed 0, 1,985 frames) under
the masked joint metric of the benchmark's joint demo (7 arm joints weighed,
the gripper dimension not), which gathers 8 columns and has no slerp.
Prints one JSON line with the best per-call time in microseconds over the
repeats, for each input and batch size:

    PYTHONPATH=src python scripts/bench_kernel.py --rows 64 1600 2048
"""

from __future__ import annotations

import argparse
import json
import timeit

import numpy as np

from waypoint_extraction.reconstruction import _row_distances
from waypoint_extraction.state_space import DEFAULT_METRIC, MetricConfig, StateKind
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[64, 1600, 2048])
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--seconds", type=float, default=0.05, help="time per repeat")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    cases = {
        "row_distances": (make_segmented_ee_trajectory(rng, eta=0.005, n_segments=64, frames_per_segment=62),
                          DEFAULT_METRIC),
        "joint_row_distances": (make_random_walk_trajectory(rng, 1985, StateKind.JOINT, joint_dim=8),
                                MetricConfig(joint_mask=(1.0,) * 7 + (0.0,))),
    }
    out = {}
    for label, (traj, cfg) in cases.items():
        for rows in args.rows:
            src = rng.integers(0, len(traj) - 80, rows)
            dst = src + rng.integers(2, 80, rows)
            t = src + 1 + (rng.random(rows) * (dst - src - 1)).astype(int)
            timer = timeit.Timer(lambda: _row_distances(traj, traj, t, src, dst, cfg))
            number = max(1, int(args.seconds / min(timer.repeat(3, 1))))
            out[f"{label}_{rows}_us"] = round(min(timer.repeat(args.repeat, number)) / number * 1e6, 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
