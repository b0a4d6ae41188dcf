"""Output checks for the benchmark, run outside the timed window.

Each check returns a list of problems, empty when the output is accepted.
Chord feasibility is judged with the scalar reference path,
reconstruction.segment_loss, not with the vectorized scorer the solver uses.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right

import numpy as np

from waypoint_extraction.reconstruction import segment_loss
from waypoint_extraction.state_space import EEState, MetricConfig, Trajectory

# Slack for the budget comparison, as in the acceptance suite.
ETA_SLACK = 1e-12


def check_waypoints(traj: Trajectory, indices, eta: float, metric: MetricConfig) -> list[str]:
    """Endpoints present, indices strictly increasing, every chord within eta."""
    indices = [int(i) for i in indices]
    if not indices or indices[0] != 0 or indices[-1] != len(traj) - 1:
        return [f"endpoints 0 and {len(traj) - 1} not both present"]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        return ["indices not strictly increasing"]
    problems = []
    for a, b in zip(indices, indices[1:]):
        loss = segment_loss(traj, a, b, metric)
        if loss > eta + ETA_SLACK:
            problems.append(f"chord ({a}, {b}) loss {loss!r} exceeds eta {eta!r}")
    return problems


def _same_state(x, y) -> bool:
    if isinstance(x, EEState):
        return (
            isinstance(y, EEState)
            and np.array_equal(x.position, y.position)
            and np.array_equal(x.axis_angle(), y.axis_angle())
            and x.gripper == y.gripper
        )
    return not isinstance(y, EEState) and np.array_equal(x.joints, y.joints)


def relabeled_waypoints(traj: Trajectory, dataset) -> list[int]:
    """Waypoint frame positions implied by a relabeled dataset: frame 0 plus
    every target; each waypoint after 0 is the target of the frame before it."""
    position = {f.t: k for k, f in enumerate(traj.frames)}
    return sorted({0} | {position.get(row.target_index, -1) for row in dataset.frames})


def check_relabeled(traj: Trajectory, dataset, eta: float, metric: MetricConfig) -> list[str]:
    """T-1 rows in frame order; every row targets the smallest waypoint after
    it, with that frame's state and the right remaining count; the implied
    waypoints pass check_waypoints."""
    rows = dataset.frames
    if len(rows) != len(traj) - 1:
        return [f"{len(rows)} rows for {len(traj)} frames"]
    waypoints = relabeled_waypoints(traj, dataset)
    if waypoints[0] < 0:
        return ["a target_index names no frame"]
    for k, row in enumerate(rows):
        frame = traj.frames[k]
        if row.t != frame.t or not _same_state(row.state, frame.state):
            return [f"row {k} does not carry frame {k}"]
        nxt = bisect_right(waypoints, k)
        target = waypoints[nxt]
        if row.target_index != traj.frames[target].t:
            return [f"row {k} targets t={row.target_index}, smallest waypoint after it is {target}"]
        if not _same_state(row.target_waypoint, traj.frames[target].state):
            return [f"row {k} target state is not frame {target}"]
        if row.waypoints_remaining != len(waypoints) - nxt:
            return [f"row {k} waypoints_remaining {row.waypoints_remaining} != {len(waypoints) - nxt}"]
    return check_waypoints(traj, waypoints, eta, metric)


def parse_compare_table(stdout: str) -> list[tuple[str, str, int, float, float, float]]:
    """Rows (trajectory, method, count, segment, global, replay_dev) of a
    `wpx compare` table; the header and the summary lines are skipped."""
    rows = []
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) != 6 or line.startswith("awe <="):
            continue
        name, method, count, seg, glob, dev = fields
        rows.append((name, method, int(count), float(seg), float(glob), float(dev)))
    return rows


def check_compare_rows(rows, name: str, methods, eta: float) -> list[str]:
    """One row per method for this trajectory; the budgeted solver's row has
    global <= segment <= eta (values as printed, to 6 decimals)."""
    mine = [r for r in rows if r[0] == name]
    got = sorted(r[1] for r in mine)
    if got != sorted(methods):
        return [f"methods {got}, expected one row each of {sorted(methods)}"]
    problems = []
    for _, method, _, seg, glob, _ in mine:
        if method == "awe" and not (glob <= seg <= round(eta, 6) + ETA_SLACK):
            problems.append(f"awe row global {glob} / segment {seg} / eta {eta} out of order")
    return problems


def digest(value) -> str:
    """Short stable digest of a JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
