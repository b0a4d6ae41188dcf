"""Next-waypoint relabeling of demonstration frames.

Each frame of a demonstration is paired with the state of the nearest
waypoint strictly after it, so a BC policy trained on the result predicts
waypoints instead of single-step targets. Every frame between two waypoints
appears in the output; only the final frame is dropped, since nothing lies
after the last waypoint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .solver import WaypointSet
from .state_space import (_COLUMNS, State, Trajectory, _finite_scalar, _gripper_dims, _int_array, _obs_refs,
                          _quoted, _state_arrays, _state_views, _time_fault)

__all__ = [
    "RelabeledFrame",
    "RelabeledDataset",
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
    """(row, problem) for the first row that breaks the time rule of
    trajectories (_time_fault), or else for the first row whose target does
    not lie strictly after it or that counts no waypoint left; None when
    every row is sound."""
    fault = _time_fault(t)
    late, none_left = target_index <= t, waypoints_remaining < 1
    bad = np.flatnonzero(late | none_left)
    if fault is not None or not bad.size:
        return fault
    k = int(bad[0])
    return k, ("target_index must lie strictly after the frame" if late[k] else "waypoints_remaining must be >= 1")


@dataclass(frozen=True, eq=False)
class RelabeledDataset:
    """Relabeled rows for one demonstration, |trajectory| - 1 of them, held
    as read-only columns.

    Row k is frame k (time index t[k], obs_ref[k], row k of the state
    columns states) paired with its next waypoint (time index
    target_index[k], row k of targets), and counts the waypoints after the
    frame (waypoints_remaining[k]). t follows a trajectory's time rule: it
    starts at 0 and increases strictly. states and targets are keyed as
    Trajectory.state_columns: pos, quat, grip and axis_angle (a quat of
    None is derived from axis_angle), or joints with gripper_dims flagging
    gripper dims; every value is within the numeric range (_RANGE). frames
    gives one RelabeledFrame view per row, built on first use and then kept.
    """

    source_name: str
    eta: float | None
    t: np.ndarray
    obs_ref: tuple[str | None, ...]
    states: dict[str, np.ndarray]
    targets: dict[str, np.ndarray]
    target_index: np.ndarray
    waypoints_remaining: np.ndarray
    gripper_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.source_name, str):
            raise ValueError(f"source_name must be a string, got {_quoted(self.source_name)}")
        if self.eta is not None:
            object.__setattr__(self, "eta", _finite_scalar(self.eta, "eta", positive=True))
        object.__setattr__(self, "t", _int_array(self.t, None, "t"))
        rows = len(self.t)
        for name in ("target_index", "waypoints_remaining"):
            object.__setattr__(self, name, _int_array(getattr(self, name), rows, name))
        object.__setattr__(self, "obs_ref", _obs_refs(self.obs_ref, rows, "rows"))
        for name in ("states", "targets"):
            try:
                object.__setattr__(self, name, _state_arrays(getattr(self, name), rows, self.gripper_dims))
            except ValueError as exc:  # a _RangeError keeps the value's index
                exc.args = (f"{name}: {exc}", *exc.args[1:])
                raise
        states, targets = ({k: v.shape[1:] for k, v in getattr(self, name).items()} for name in ("states", "targets"))
        if states != targets or set(states) not in map(set, _COLUMNS.values()):
            raise ValueError(f"states and targets must hold the same columns, pos, quat, grip and axis_angle or "
                             f"joints of one width; got {states} and {targets}")
        width = self.states["joints"].shape[1] if "joints" in self.states else 0
        object.__setattr__(self, "gripper_dims", _gripper_dims(self.gripper_dims, width))
        bad = _first_bad_row(self.t, self.target_index, self.waypoints_remaining)
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")

    def __reduce__(self):
        """Unpickle through the constructor, so the columns come back
        read-only (NumPy unpickles arrays writeable) and checked."""
        return type(self), (self.source_name, self.eta, self.t, self.obs_ref, self.states, self.targets,
                            self.target_index, self.waypoints_remaining, self.gripper_dims)

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
    return RelabeledDataset(
        traj.name, wp.eta_used, traj.t[:-1], traj.obs_ref[:-1],
        states={name: column[:-1] for name, column in columns.items()},
        targets={name: column[target] for name, column in columns.items()},
        target_index=traj.t[target], waypoints_remaining=len(indices) - after, gripper_dims=traj.gripper_dims,
    )
