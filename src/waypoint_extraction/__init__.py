"""Waypoint extraction for robot demonstrations.

Decomposes a demonstration trajectory into the smallest set of waypoints
whose linear interpolation reconstructs it within an error budget, relabels
frames with next-waypoint targets for BC pipelines, and ships heuristic
baselines plus a kinematic replay proxy for comparing selectors.
"""

from .state_space import (
    DEFAULT_METRIC,
    EEState,
    Frame,
    JointState,
    MetricConfig,
    State,
    StateKind,
    Trajectory,
    axis_angle_to_quaternion,
    interpolate,
    quaternion_to_axis_angle,
    state_distance,
)
from .reconstruction import (
    ProjectionResult,
    SegmentScorer,
    project_onto_chord,
    reconstruction_loss,
    segment_loss,
)
from .solver import (
    BRUTE_FORCE_LIMIT,
    ErrorBudget,
    SolveStats,
    WaypointSet,
    annotate_losses,
    extract_waypoints_bruteforce,
    extract_waypoints_dp,
    sweep_eta,
)
from .baselines import (
    CalibrationResult,
    HeuristicConfig,
    calibrate_to_count,
    heuristic_fixed_interval,
    heuristic_zero_velocity,
)
from .relabel import (
    RelabeledDataset,
    RelabeledFrame,
    next_waypoint_index,
    relabel_trajectory,
)
from .replay import (
    FollowerConfig,
    ReplayReport,
    default_follower_config,
    max_deviation_from_polyline,
    replay_waypoints,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_METRIC",
    "EEState",
    "Frame",
    "JointState",
    "MetricConfig",
    "State",
    "StateKind",
    "Trajectory",
    "axis_angle_to_quaternion",
    "interpolate",
    "quaternion_to_axis_angle",
    "state_distance",
    "ProjectionResult",
    "SegmentScorer",
    "project_onto_chord",
    "reconstruction_loss",
    "segment_loss",
    "BRUTE_FORCE_LIMIT",
    "ErrorBudget",
    "SolveStats",
    "WaypointSet",
    "annotate_losses",
    "extract_waypoints_bruteforce",
    "extract_waypoints_dp",
    "sweep_eta",
    "CalibrationResult",
    "HeuristicConfig",
    "calibrate_to_count",
    "heuristic_fixed_interval",
    "heuristic_zero_velocity",
    "RelabeledDataset",
    "RelabeledFrame",
    "next_waypoint_index",
    "relabel_trajectory",
    "FollowerConfig",
    "ReplayReport",
    "default_follower_config",
    "max_deviation_from_polyline",
    "replay_waypoints",
    "__version__",
]
