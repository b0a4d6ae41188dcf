"""Metamorphic tests of the whole solver on demos past the brute-force limit.

Each relation holds exactly in real arithmetic and is a property of the
metric that no reference implementation shares: the plain-DP differential
in test_solver scores chords with the solver's own kernel.

* Time reversal keeps the waypoint count: chord (i, j) of the reversed demo
  is chord (T-1-j, T-1-i) of the original with u -> 1-u, and slerp is
  symmetric. The reversed demo's waypoints, read backwards, are feasible in
  the original.
* A rigid motion keeps the indices: positions rotated and translated, and
  every orientation left-multiplied by the same rotation. The position term
  is rotation-invariant and the angle term left-invariant. End effectors
  only: a joint mask that is not uniform is not rotation-invariant.
* Re-indexing t with gaps keeps the waypoint set, losses included: losses
  do not read t.

Every budget lies at least 1e-9 (relative) from every chord loss of its
demo, so rounding cannot move a chord across it.
"""

import functools
import itertools

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import sub_trajectory
from waypoint_extraction.reconstruction import SegmentScorer
from waypoint_extraction.solver import ErrorBudget, extract_waypoints_dp
from waypoint_extraction.state_space import MetricConfig, StateKind, Trajectory
from waypoint_extraction.synthetic import make_segmented_ee_trajectory

_GRIPPER = MetricConfig(include_gripper=True, gripper_weight=0.5)
_MASK = MetricConfig(joint_mask=(1.0, 0.5, 0.0, 2.0, 1.0))

# name: (seed, metric, budget targets). End-effector demos have 4 segments
# of 35 frames; seeds 0 and 6 close or open the gripper once and twice.
# Joint demos are 150 frames of a 5-D random walk.
_DEMOS = {
    "ee-0": (0, MetricConfig(), (0.005, 0.02)),
    "ee-0-gripper": (0, _GRIPPER, (0.005, 0.02)),
    "ee-6": (6, MetricConfig(), (0.005, 0.02)),
    "ee-6-gripper": (6, _GRIPPER, (0.005, 0.02)),
    "joint-0": (0, _MASK, (0.1, 0.3)),
    "joint-1": (1, _MASK, (0.1, 0.3)),
}
EE_DEMOS = [name for name in _DEMOS if name.startswith("ee")]


@functools.cache
def _demo(name):
    """(trajectory, metric, loss matrix, budgets) of a named demo: loss[i, j]
    is the loss of chord i < j, and each budget is the one nearest its
    target that lies at least 1e-9 (relative) from every chord loss, the
    midpoint of a gap between adjacent losses."""
    seed, metric, targets = _DEMOS[name]
    rng = np.random.default_rng(seed)
    if name.startswith("ee"):
        traj = make_segmented_ee_trajectory(rng, n_segments=4, frames_per_segment=35)
    else:
        joints = np.cumsum(rng.normal(scale=0.05, size=(150, 5)), axis=0)
        traj = Trajectory.from_columns(name, StateKind.JOINT, 50.0, range(150), joints=joints)
    src, dst = np.triu_indices(len(traj), 1)
    loss = np.zeros((len(traj), len(traj)))
    loss[src, dst] = SegmentScorer(traj, metric).chord_losses(src, dst)
    values = np.unique(loss[src, dst])
    mids = (values[1:] + values[:-1]) / 2
    mids = mids[values[1:] - values[:-1] >= 2e-9 * mids]
    budgets = tuple(float(mids[np.argmin(np.abs(mids - target))]) for target in targets)
    return traj, metric, loss, budgets


def _extract(traj, eta, metric):
    return extract_waypoints_dp(traj, ErrorBudget(eta, metric))[0]


@pytest.mark.parametrize("name", list(_DEMOS))
def test_time_reversal_keeps_the_waypoint_count(name):
    traj, metric, loss, budgets = _demo(name)
    T = len(traj)
    backwards = sub_trajectory(traj, range(T - 1, -1, -1))
    for eta in budgets:
        wp, back = _extract(traj, eta, metric), _extract(backwards, eta, metric)
        assert 2 < len(wp) < T  # the budget binds
        assert len(back) == len(wp)
        mirrored = [T - 1 - k for k in reversed(back.indices)]
        assert all(loss[i, j] <= eta for i, j in itertools.pairwise(mirrored))


@pytest.mark.parametrize("name", EE_DEMOS)
def test_rigid_motion_keeps_the_indices(name):
    traj, metric, _, budgets = _demo(name)
    rng = np.random.default_rng(5)
    turn = Rotation.random(random_state=rng)
    # scipy takes writable arrays only
    pos, axis_angle = turn.apply(traj.pos.copy()), (turn * Rotation.from_rotvec(traj.axis_angle.copy())).as_rotvec()
    moved = Trajectory.from_columns(traj.name, traj.state_space, traj.frequency_hz, traj.t,
                                    pos=pos + rng.uniform(-1.0, 1.0, 3), axis_angle=axis_angle, grip=traj.grip)
    for eta in budgets:
        assert _extract(moved, eta, metric).indices == _extract(traj, eta, metric).indices


@pytest.mark.parametrize("name", list(_DEMOS))
def test_time_gaps_keep_the_waypoints(name):
    traj, metric, _, budgets = _demo(name)
    t = np.concatenate([[0], np.cumsum(np.random.default_rng(6).integers(1, 5, size=len(traj) - 1))])
    gapped = Trajectory.from_columns(traj.name, traj.state_space, traj.frequency_hz, t, **traj.state_columns)
    for eta in budgets:
        assert _extract(gapped, eta, metric) == _extract(traj, eta, metric)
