"""Next-waypoint relabeling of demonstration frames.

Each frame of a demonstration is paired with the state of the nearest
waypoint strictly after it, so a BC policy trained on the result predicts
waypoints instead of single-step targets. Every frame between two waypoints
appears in the output; only the final frame is dropped, since nothing lies
after the last waypoint.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .solver import WaypointSet
from .state_space import State, Trajectory, _state_views

__all__ = [
    "RelabeledFrame",
    "RelabeledDataset",
    "next_waypoint_index",
    "relabel_trajectory",
]


@dataclass(frozen=True, eq=False)
class RelabeledFrame:
    """One training row: the frame plus its next-waypoint target; a view of
    one row of a RelabeledDataset."""

    t: int
    obs_ref: str | None
    state: State
    target_waypoint: State
    target_index: int
    waypoints_remaining: int


def _first_bad_row(t, target_index, waypoints_remaining) -> tuple[int, str] | None:
    """(row, problem) for the first row whose target does not lie strictly
    after it or that counts no waypoint left; None when every row is sound."""
    late, none_left = target_index <= t, waypoints_remaining < 1
    bad = np.flatnonzero(late | none_left)
    if not bad.size:
        return None
    k = int(bad[0])
    return k, ("target_index must lie strictly after the frame" if late[k] else "waypoints_remaining must be >= 1")


def _read_only(column: np.ndarray) -> np.ndarray:
    view = column.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class RelabeledDataset:
    """Relabeled rows for one demonstration, |trajectory| - 1 of them, held
    as read-only columns.

    Row k is frame k (time index t[k], obs_ref[k], row k of the state
    columns states) paired with its next waypoint (time index
    target_index[k], row k of targets), and counts the waypoints after the
    frame (waypoints_remaining[k]). states and targets are keyed as
    Trajectory.state_columns: pos, quat, grip and axis_angle, or joints with
    gripper_dims flagging gripper dims. frames gives one RelabeledFrame view
    per row, built on first use and then kept.
    """

    source_name: str
    eta: float
    t: np.ndarray
    obs_ref: tuple[str | None, ...]
    states: dict[str, np.ndarray]
    targets: dict[str, np.ndarray]
    target_index: np.ndarray
    waypoints_remaining: np.ndarray
    gripper_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "obs_ref", tuple(self.obs_ref))
        for name in ("t", "target_index", "waypoints_remaining"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name), dtype=np.int64)))
        for name in ("states", "targets"):
            object.__setattr__(self, name, {k: _read_only(np.asarray(v)) for k, v in getattr(self, name).items()})
        bad = _first_bad_row(self.t, self.target_index, self.waypoints_remaining)
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")

    def __len__(self) -> int:
        return len(self.t)

    @functools.cached_property
    def frames(self) -> tuple[RelabeledFrame, ...]:
        """One RelabeledFrame view per row, built on first use and then kept."""
        return tuple(map(
            RelabeledFrame, self.t.tolist(), self.obs_ref, _state_views(self.states, self.gripper_dims),
            _state_views(self.targets, self.gripper_dims), self.target_index.tolist(),
            self.waypoints_remaining.tolist(),
        ))


def next_waypoint_index(t: int, wp: WaypointSet) -> int:
    """Smallest waypoint index strictly greater than t.

    A frame sitting exactly on a waypoint targets the following one, never
    itself. Raises for frames at or past the final waypoint.
    """
    t = int(t)
    if t < 0:
        raise ValueError("frame index must be >= 0")
    if t >= wp.indices[-1]:
        raise ValueError(f"no waypoint after frame {t} (last waypoint is {wp.indices[-1]})")
    return wp.indices[bisect_right(wp.indices, t)]


def relabel_trajectory(traj: Trajectory, wp: WaypointSet) -> RelabeledDataset:
    """Pair every frame except the last with its next waypoint's state.

    Row t and target_index are the frames' own time indices, which coincide
    with frame positions for the usual contiguous trajectories but stay
    meaningful when the time axis has gaps. The columns are gathers of the
    trajectory's columns.
    """
    wp.validate_for(traj)
    indices = np.asarray(wp.indices)
    # position in indices of the first waypoint strictly after each frame
    after = np.searchsorted(indices, np.arange(len(traj) - 1), side="right")
    target = indices[after]
    columns = traj.state_columns
    eta = wp.eta_used if wp.eta_used is not None else math.nan
    return RelabeledDataset(
        traj.name, eta, traj.t[:-1], traj.obs_ref[:-1],
        states={name: column[:-1] for name, column in columns.items()},
        targets={name: column[target] for name, column in columns.items()},
        target_index=traj.t[target], waypoints_remaining=len(indices) - after, gripper_dims=traj.gripper_dims,
    )
