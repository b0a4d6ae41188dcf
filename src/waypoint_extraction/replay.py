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

from .reconstruction import _check_metric, min_distances_to_polyline
from .solver import WaypointSet
from .state_space import (
    DEFAULT_METRIC,
    MetricConfig,
    State,
    Trajectory,
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
        step = float(self.max_step)
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError("max_step must be a positive finite scalar")
        object.__setattr__(self, "max_step", step)
        tol = float(self.reach_tolerance)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError("reach_tolerance must be finite and >= 0")
        object.__setattr__(self, "reach_tolerance", tol)
        if int(self.control_multiplier) < 1:
            raise ValueError("control_multiplier must be >= 1")
        object.__setattr__(self, "control_multiplier", int(self.control_multiplier))
        if int(self.tick_limit) < 1:
            raise ValueError("tick_limit must be >= 1")
        object.__setattr__(self, "tick_limit", int(self.tick_limit))


@dataclass(frozen=True, eq=False)
class ReplayReport:
    """Outcome of one replay: per-waypoint reach flags, the executed path,
    and its worst deviation from the source trajectory."""

    reached_final: bool
    per_waypoint_reached: tuple[bool, ...]
    max_tracking_deviation: float
    executed_path: tuple[State, ...]
    ticks_used: int


def replay_waypoints(traj: Trajectory, wp: WaypointSet, cfg: FollowerConfig) -> ReplayReport:
    """Follow the waypoints from frame 0's state and score the executed path.

    Deterministic for fixed inputs. Exhausting tick_limit is not an error:
    the report simply comes back with reached_final=False.
    """
    wp.validate_for(traj)
    current = traj.frames[0].state
    executed = [current]
    ticks = 0
    reached_flags = []
    prev_idx = wp.indices[0]
    for idx in wp.indices:
        target = traj.frames[idx].state
        # pace by the demo's own clock: time span of the segment, not the
        # frame count (identical for contiguous trajectories)
        budget = (traj.frames[idx].t - traj.frames[prev_idx].t) * cfg.control_multiplier
        spent = 0
        dist = state_distance(current, target, cfg.metric)
        while (
            dist > cfg.reach_tolerance
            and ticks < cfg.tick_limit
            and (cfg.blocking or spent < budget)
        ):
            u = min(1.0, cfg.max_step / dist)
            current = interpolate(current, target, u)
            executed.append(current)
            ticks += 1
            spent += 1
            dist = state_distance(current, target, cfg.metric)
        reached_flags.append(dist <= cfg.reach_tolerance)
        prev_idx = idx
    deviation = max_deviation_from_polyline(executed, traj, cfg.metric)
    return ReplayReport(
        reached_final=reached_flags[-1],
        per_waypoint_reached=tuple(reached_flags),
        max_tracking_deviation=deviation,
        executed_path=tuple(executed),
        ticks_used=ticks,
    )


def max_deviation_from_polyline(states, anchors, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Worst distance from any state to the polyline interpolating anchors,
    a trajectory or a sequence of states."""
    return float(min_distances_to_polyline(list(states), anchors, cfg).max())


def default_follower_config(
    traj: Trajectory,
    eta: float | None = None,
    control_multiplier: int = 10,
    blocking: bool = False,
    metric: MetricConfig = DEFAULT_METRIC,
) -> FollowerConfig:
    """Follower settings scaled to the demo's own pacing: a step budget of
    1.5x the median frame-to-frame distance and a reach tolerance tied to the
    error budget when one is given."""
    _check_metric(traj, metric)
    steps = [
        state_distance(traj.frames[t].state, traj.frames[t + 1].state, metric)
        for t in range(len(traj) - 1)
    ]
    median_step = float(np.median(steps))
    max_step = max(1.5 * median_step, 1e-9)
    tolerance = 0.25 * eta if eta is not None else 0.25 * max_step
    tick_limit = 20 * len(traj) * control_multiplier + 1000
    return FollowerConfig(
        max_step=max_step,
        reach_tolerance=tolerance,
        control_multiplier=control_multiplier,
        tick_limit=tick_limit,
        blocking=blocking,
        metric=metric,
    )
