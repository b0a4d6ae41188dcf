"""Kinematic waypoint-following proxy for replay evaluation.

Drives a speed-limited, dynamics-free follower through a waypoint set from
the demonstration's start state and reports how far the executed path strays
from the original trajectory. This deliberately ignores contact and object
physics: it only answers which selector's polyline a position controller can
track more faithfully, and is labeled a proxy for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reconstruction import _check_metric, _ranks, min_distances_to_polyline
from .solver import WaypointSet
from .state_space import (
    DEFAULT_METRIC,
    MetricConfig,
    Trajectory,
    _count,
    _distance_rows,
    _finite_scalar,
    _interpolate_rows,
    _state_columns,
    interpolate,
    state_distance,
)

__all__ = [
    "FollowerConfig",
    "ReplayReport",
    "replay_waypoints",
    "max_deviation_from_polyline",
    "default_follower_config",
]


@dataclass(frozen=True)
class FollowerConfig:
    """Position-controlled follower model.

    max_step is the farthest the follower moves per tick, measured with
    `metric` along the interpolation geodesic. Each waypoint gets a tick
    budget of its source frame span times control_multiplier, mirroring a
    controller that is allowed extra low-level steps per target; in blocking
    mode the budget is ignored and only reach (or the global tick_limit)
    advances the target.
    """

    max_step: float
    reach_tolerance: float = 0.0
    control_multiplier: int = 1
    tick_limit: int = 100_000
    blocking: bool = False
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        object.__setattr__(self, "max_step", _finite_scalar(self.max_step, "max_step", positive=True))
        object.__setattr__(self, "reach_tolerance", _finite_scalar(self.reach_tolerance, "reach_tolerance"))
        object.__setattr__(self, "control_multiplier", _count(self.control_multiplier, "control_multiplier"))
        object.__setattr__(self, "tick_limit", _count(self.tick_limit, "tick_limit"))


@dataclass(frozen=True, eq=False)
class ReplayReport:
    """Outcome of one replay: per-waypoint reach flags, the executed path
    as state columns (pos, quat and grip, or joints; row 0 is frame 0, row k
    the state after tick k), and its worst deviation from the source."""

    reached_final: bool
    per_waypoint_reached: tuple[bool, ...]
    max_tracking_deviation: float
    executed_path: dict[str, np.ndarray]
    ticks_used: int


def replay_waypoints(traj: Trajectory, wp: WaypointSet, cfg: FollowerConfig) -> ReplayReport:
    """Follow the waypoints from frame 0's state and score the executed path.

    A tick moves the follower min(1, max_step / dist) of the way to its
    target, so the distance falls by max_step per tick and k ticks from c
    land at interpolate(c, target, min(1, k max_step / d0)), where
    d0 = state_distance(c, target). This closed form defines the follower.
    A segment takes the least n with n max_step >= d0 - reach_tolerance,
    capped by tick_limit and, unless blocking, by its budget; its waypoint
    is reached when no cap bit. Exhausting tick_limit is not an error: the
    report simply comes back with reached_final=False.
    """
    wp.validate_for(traj)
    times = traj.t.tolist()
    prevs = wp.indices[:1] + wp.indices[:-1]
    columns = traj.state_columns
    d0 = _distance_rows({name: column[list(prevs)] for name, column in columns.items()},
                        {name: column[list(wp.indices)] for name, column in columns.items()}, cfg.metric)
    current = traj.frames[0].state
    # (start, target, ticks, d0) per segment; path row 0 is frame 0, one tick to itself at u = 1
    segments = [(current, 0, 1, cfg.max_step)]
    ticks = 0
    reached_flags = []
    for prev_idx, idx, dist in zip(prevs, wp.indices, d0.tolist()):
        target = traj.frames[idx].state
        limit = cfg.tick_limit - ticks
        if not cfg.blocking:
            # pace by the demo's own clock: time span of the segment, not the
            # frame count (identical for contiguous trajectories)
            limit = min(limit, (times[idx] - times[prev_idx]) * cfg.control_multiplier)
        if current is not traj.frames[prev_idx].state:  # the segment before stopped short: d0 is not known
            dist = state_distance(current, target, cfg.metric)
        need = dist - cfg.reach_tolerance
        # least n with n * max_step >= need as computed: the quotient may round across an integer
        n = math.ceil(min(max(0.0, need / cfg.max_step), limit + 1))
        if n * cfg.max_step < need:
            n += 1
        elif n and (n - 1) * cfg.max_step >= need:
            n -= 1
        reached_flags.append(n <= limit)
        n = min(n, limit)
        if n:
            segments.append((current, idx, n, dist))
            ticks += n
            u = min(1.0, n * cfg.max_step / dist)
            current = target if u == 1.0 else interpolate(current, target, u)
    starts, targets, counts, spans = zip(*segments)
    seg = np.repeat(np.arange(len(counts)), counts)
    u = np.minimum(1.0, (_ranks(np.array(counts)) + 1) * cfg.max_step / np.array(spans)[seg])
    a = {name: rows[seg] for name, rows in _state_columns(starts).items()}
    path = _interpolate_rows(a, {name: columns[name][np.array(targets)[seg]] for name in a}, u)
    deviation = max_deviation_from_polyline(path, traj, cfg.metric)
    return ReplayReport(reached_final=reached_flags[-1], per_waypoint_reached=tuple(reached_flags),
                        max_tracking_deviation=deviation, executed_path=path, ticks_used=ticks)


def max_deviation_from_polyline(columns, anchors: Trajectory, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Worst distance from any row of the state columns to the polyline
    through the frames of anchors; see min_distances_to_polyline."""
    return float(min_distances_to_polyline(columns, anchors, cfg).max())


def default_follower_config(
    traj: Trajectory,
    eta: float | None = None,
    control_multiplier: int = 10,
    blocking: bool = False,
    metric: MetricConfig = DEFAULT_METRIC,
) -> FollowerConfig:
    """Follower settings scaled to the demo's own pacing: a step budget of
    1.5x the median frame-to-frame distance (over the moving frames when
    most pause) and a reach tolerance tied to the budget when one is given."""
    _check_metric(traj.joints, metric)
    columns = traj.state_columns
    steps = _distance_rows({name: column[:-1] for name, column in columns.items()},
                           {name: column[1:] for name, column in columns.items()}, metric)
    median_step = float(np.median(steps))
    if median_step == 0.0 and steps.any():
        median_step = float(np.median(steps[steps > 0.0]))
    max_step = max(1.5 * median_step, 1e-9)
    tolerance = 0.25 * (max_step if eta is None else _finite_scalar(eta, "eta", positive=True))
    tick_limit = 20 * len(traj) * control_multiplier + 1000
    return FollowerConfig(
        max_step=max_step,
        reach_tolerance=tolerance,
        control_multiplier=control_multiplier,
        tick_limit=tick_limit,
        blocking=blocking,
        metric=metric,
    )
