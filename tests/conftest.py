import numpy as np
import pytest

from waypoint_extraction.state_space import EEState, Frame, JointState, StateKind, Trajectory


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)


def ee_state(pos, axis_angle=(0.0, 0.0, 0.0), gripper=0.0) -> EEState:
    return EEState.from_axis_angle(np.asarray(pos, dtype=float), np.asarray(axis_angle, dtype=float), gripper)


def ee_trajectory(positions, axis_angles=None, grippers=None, name="test") -> Trajectory:
    positions = [np.asarray(p, dtype=float) for p in positions]
    n = len(positions)
    axis_angles = axis_angles if axis_angles is not None else [(0.0, 0.0, 0.0)] * n
    grippers = grippers if grippers is not None else [0.0] * n
    frames = tuple(
        Frame(t, ee_state(positions[t], axis_angles[t], grippers[t])) for t in range(n)
    )
    return Trajectory(name, StateKind.EE, 50.0, frames)


def joint_trajectory(vectors, name="test-joint", gripper_dims=None) -> Trajectory:
    frames = tuple(
        Frame(t, JointState(np.asarray(v, dtype=float), gripper_dims)) for t, v in enumerate(vectors)
    )
    return Trajectory(name, StateKind.JOINT, 50.0, frames)


def sub_trajectory(traj: Trajectory, indices) -> Trajectory:
    """The frames of traj at indices, renumbered 0, 1, ..."""
    rows = list(indices)
    return Trajectory.from_columns(traj.name, traj.state_space, traj.frequency_hz, range(len(rows)),
                                   **{name: column[rows] for name, column in traj.state_columns.items()},
                                   gripper_dims=traj.gripper_dims)
