"""Heuristic waypoint selectors used as comparison baselines.

Two classic selectors: near-zero velocity (with gripper-flip events) and
fixed-interval subsampling. calibrate_to_count tunes either selector's knob
so its waypoint count lands as close as possible to a target, which is how
the heuristics get matched against the budgeted solver for fair comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import WaypointSet
from .state_space import StateKind, Trajectory

__all__ = [
    "HeuristicConfig",
    "CalibrationResult",
    "heuristic_zero_velocity",
    "heuristic_fixed_interval",
    "calibrate_to_count",
]

METHOD_ZERO_VELOCITY = "zero-vel"
METHOD_FIXED_INTERVAL = "fixed"


@dataclass(frozen=True)
class HeuristicConfig:
    """Knobs for the heuristic selectors.

    velocity_threshold is in state-space units per frame. The gripper signal
    is binarized at the midpoint of its observed range; ranges at or below
    gripper_delta_threshold count as a constant (never actuated) gripper.
    """

    velocity_threshold: float = 0.0
    gripper_delta_threshold: float = 0.0
    fixed_interval: int = 1

    def __post_init__(self):
        for name in ("velocity_threshold", "gripper_delta_threshold"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, v)
        k = int(self.fixed_interval)
        if k < 1:
            raise ValueError("fixed_interval must be >= 1")
        object.__setattr__(self, "fixed_interval", k)


@dataclass(frozen=True)
class CalibrationResult:
    config: HeuristicConfig
    waypoints: WaypointSet
    exact: bool


def _frame_speeds(traj: Trajectory) -> np.ndarray:
    """Single-step finite differences of the position (or joint) part."""
    coords = traj.pos if traj.state_space is StateKind.EE else traj.joints
    return np.linalg.norm(np.diff(coords, axis=0), axis=1)


def _gripper_flip_frames(traj: Trajectory, delta: float) -> np.ndarray:
    """Frames where the binarized gripper signal changes from the previous frame."""
    if traj.state_space is StateKind.EE:
        signals = traj.grip[:, None]
    elif traj.gripper_dims:
        signals = traj.joints[:, list(traj.gripper_dims)]
    else:
        return np.array([], dtype=int)
    flips = np.zeros(len(traj), dtype=bool)
    for col in signals.T:
        lo, hi = float(col.min()), float(col.max())
        if hi - lo <= delta:
            continue
        binary = col > 0.5 * (lo + hi)
        flips[1:] |= binary[1:] != binary[:-1]
    return np.flatnonzero(flips)


def _zero_velocity_indices(
    speeds: np.ndarray, flips: np.ndarray, length: int, threshold: float
) -> tuple[int, ...]:
    below = speeds <= threshold
    # a run of near-zero frames yields only its first frame
    onsets = np.flatnonzero(below & ~np.concatenate(([False], below[:-1])))
    selected = {0, length - 1}
    selected.update(int(t) for t in onsets)
    selected.update(int(t) for t in flips)
    return tuple(sorted(selected))


def heuristic_zero_velocity(traj: Trajectory, cfg: HeuristicConfig) -> WaypointSet:
    """Select frames whose velocity magnitude is near zero or whose binarized
    gripper flips; endpoints always included."""
    speeds = _frame_speeds(traj)
    flips = _gripper_flip_frames(traj, cfg.gripper_delta_threshold)
    return WaypointSet(_zero_velocity_indices(speeds, flips, len(traj), cfg.velocity_threshold))


def heuristic_fixed_interval(traj: Trajectory, k: int) -> WaypointSet:
    """Every k-th frame plus the final one."""
    k = int(k)
    if k < 1:
        raise ValueError("interval must be >= 1")
    indices = list(range(0, len(traj), k))
    if indices[-1] != len(traj) - 1:
        indices.append(len(traj) - 1)
    return WaypointSet(tuple(indices))


def _fixed_interval_count(length: int, k: int) -> int:
    return -(-(length - 1) // k) + 1


def _calibrate_fixed(traj: Trajectory, target: int) -> CalibrationResult:
    T = len(traj)
    # count(k) is nonincreasing in k: bisect for the largest k still >= target
    lo, hi = 1, T - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _fixed_interval_count(T, mid) >= target:
            lo = mid
        else:
            hi = mid - 1
    candidates = [lo] if lo == T - 1 else [lo, lo + 1]
    # ties toward the smaller count, i.e. the larger interval
    best = min(candidates, key=lambda k: (abs(_fixed_interval_count(T, k) - target), _fixed_interval_count(T, k)))
    wp = heuristic_fixed_interval(traj, best)
    return CalibrationResult(HeuristicConfig(fixed_interval=best), wp, exact=len(wp) == target)


def _calibrate_zero_velocity(traj: Trajectory, target: int) -> CalibrationResult:
    speeds = _frame_speeds(traj)
    flips = _gripper_flip_frames(traj, 0.0)
    T = len(traj)
    # counts only change at observed speed values, and not monotonically
    # (raising the threshold can merge runs), so every candidate is scored.
    # Frames 0, T-1 and the flips are always selected; any other frame t is
    # a run onset exactly for thresholds in [speeds[t], speeds[t-1])
    candidates = np.unique(np.concatenate(([0.0], speeds)))
    t = np.setdiff1d(np.arange(1, T - 1), flips)
    lo = np.searchsorted(candidates, speeds[t])
    hi = np.maximum(lo, np.searchsorted(candidates, speeds[t - 1]))
    steps = np.bincount(lo, minlength=len(candidates)) - np.bincount(hi, minlength=len(candidates))
    counts = T - len(t) + np.cumsum(steps)
    best = int(np.lexsort((counts, np.abs(counts - target)))[0])  # first of the least (|count - target|, count)
    best_thr = float(candidates[best])
    wp = WaypointSet(_zero_velocity_indices(speeds, flips, T, best_thr))
    cfg = HeuristicConfig(velocity_threshold=best_thr)
    return CalibrationResult(cfg, wp, exact=int(counts[best]) == target)


def calibrate_to_count(traj: Trajectory, method: str, target_count: int) -> CalibrationResult:
    """Tune the selector's scalar knob until its waypoint count is as close
    as possible to target_count (ties resolved toward fewer waypoints).

    The result carries exact=False when the target is unreachable and the
    nearest achievable count was returned instead.
    """
    target = int(target_count)
    if not 2 <= target <= len(traj):
        raise ValueError(f"target_count must be in [2, {len(traj)}], got {target}")
    if method == METHOD_FIXED_INTERVAL:
        return _calibrate_fixed(traj, target)
    if method == METHOD_ZERO_VELOCITY:
        return _calibrate_zero_velocity(traj, target)
    raise ValueError(f"unknown method {method!r}; expected '{METHOD_ZERO_VELOCITY}' or '{METHOD_FIXED_INTERVAL}'")
