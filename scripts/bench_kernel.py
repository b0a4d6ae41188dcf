"""Time the chord kernel, reconstruction._row_distances, per call.

Scores batches of rows shaped as the solver's exact checks make them: each
row is an interior frame of its own random chord. Two inputs: an
end-effector demo of the benchmark recipe (seed 0, 3,969 frames) under the
default metric, and an 8-D joint random walk (seed 0, 1,985 frames) under
the masked joint metric of the benchmark's joint demo (7 arm joints weighed,
the gripper dimension not), which gathers 8 columns and has no slerp.
Then times the two max-only nearest-chord passes on the end-effector demo:
SegmentScorer.global_loss of its extracted path (eta 0.005), and
replay.max_deviation_from_polyline of that path's default replay, called as
the replay calls it. Prints one JSON line with the best per-call time in
microseconds over the repeats, for each input and batch size and for each
pass, and each pass's top-level kernel rows:

    PYTHONPATH=src python scripts/bench_kernel.py --rows 64 1600 2048
"""

from __future__ import annotations

import argparse
import json
import timeit

import numpy as np

from waypoint_extraction import reconstruction, replay
from waypoint_extraction.reconstruction import SegmentScorer, _row_distances
from waypoint_extraction.solver import ErrorBudget, extract_waypoints_dp
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
            out[f"{label}_{rows}_us"] = _best_us(lambda: _row_distances(traj, traj, t, src, dst, cfg), args)
    for label, call in _passes(cases["row_distances"][0]).items():
        out[f"{label}_us"] = _best_us(call, args)
        out[f"{label}_rows"] = _kernel_rows(call)
    print(json.dumps(out))


def _best_us(call, args) -> float:
    timer = timeit.Timer(call)
    number = max(1, int(args.seconds / min(timer.repeat(3, 1))))
    return round(min(timer.repeat(args.repeat, number)) / number * 1e6, 2)


def _passes(traj) -> dict:
    """The global-loss and replay-deviation calls of the extracted path of traj."""
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.005))
    scorer = SegmentScorer(traj)
    deviation = replay.max_deviation_from_polyline
    calls = []
    replay.max_deviation_from_polyline = lambda *a, **kw: calls.append((a, kw)) or deviation(*a, **kw)
    try:
        replay.replay_waypoints(traj, wp, replay.default_follower_config(traj, 0.005))
    finally:
        replay.max_deviation_from_polyline = deviation
    (a, kw), = calls
    return {"global_loss": lambda: scorer.global_loss(wp.indices), "deviation": lambda: deviation(*a, **kw)}


def _kernel_rows(call) -> int:
    """Rows of the top-level _row_distances calls one call of call makes."""
    rows, depth = [0], [0]

    def counting(points, anchors, t, *rest):
        rows[0] += 0 if depth[0] else len(t)
        depth[0] += 1
        try:
            return _row_distances(points, anchors, t, *rest)
        finally:
            depth[0] -= 1

    reconstruction._row_distances = counting
    try:
        call()
    finally:
        reconstruction._row_distances = _row_distances
    return rows[0]


if __name__ == "__main__":
    main()
