"""Versioned text formats for trajectories, waypoint sets, and relabeled data.

Three schemas, all plain JSON so any language can read them:

* ``awe-traj-v1``: a trajectory document. Orientation is stored as an
  axis-angle vector (quaternions are an in-memory representation only), so
  a loaded end-effector state remembers its source vector and a
  save -> load -> save round trip is byte-identical.
* ``awe-wp-v1``: a waypoint-set document with the budget, achieved losses,
  and provenance (source trajectory, metric, tool version).
* ``awe-relabel-v1``: one JSON record per line, one line per relabeled
  frame; provenance rides on the first record so the line count stays equal
  to the number of rows.

Loaders raise, distinctly: TrajectoryParseError for text that is not JSON,
TrajectorySchemaError for wrong versions or missing/ill-typed fields, and
TrajectoryValidationError for well-formed files whose values break the
domain invariants (non-finite numbers, non-monotone time indices, ...).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import __version__
from .relabel import RelabeledDataset, RelabeledFrame
from .solver import WaypointSet
from .state_space import (
    EEState,
    JointState,
    MetricConfig,
    State,
    StateKind,
    Trajectory,
    interpolate,
)

__all__ = [
    "TRAJECTORY_SCHEMA",
    "WAYPOINTS_SCHEMA",
    "RELABEL_SCHEMA",
    "TrajectoryFileError",
    "TrajectoryParseError",
    "TrajectorySchemaError",
    "TrajectoryValidationError",
    "load_trajectory",
    "save_trajectory",
    "trajectory_to_dict",
    "trajectory_from_dict",
    "save_waypoints",
    "load_waypoints",
    "save_relabeled",
    "load_relabeled",
    "emit_plot_data",
    "metric_to_dict",
    "metric_from_dict",
    "load_metric_config",
]

TRAJECTORY_SCHEMA = "awe-traj-v1"
WAYPOINTS_SCHEMA = "awe-wp-v1"
RELABEL_SCHEMA = "awe-relabel-v1"


class TrajectoryFileError(Exception):
    """Base class for file-format failures."""


class TrajectoryParseError(TrajectoryFileError):
    """The file is not valid JSON (or JSON lines)."""


class TrajectorySchemaError(TrajectoryFileError):
    """Wrong schema version, or a missing/ill-typed field."""


class TrajectoryValidationError(TrajectoryFileError):
    """Well-formed file whose values violate a domain invariant."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise TrajectorySchemaError(f"{where}: missing field {key!r}")
    return doc[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TrajectorySchemaError(f"{where}: expected a number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise TrajectoryValidationError(f"{where}: value must be finite, got {value!r}")
    return out


def _vector(value, length: int, where: str) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise TrajectorySchemaError(f"{where}: expected a list of {length} numbers")
    return [_number(v, f"{where}[{k}]") for k, v in enumerate(value)]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def trajectory_to_dict(traj: Trajectory) -> dict:
    t = traj.t.tolist()
    if traj.state_space is StateKind.EE:
        frames = [
            {"t": ti, "pos": p, "axis_angle": a, "gripper": g}
            for ti, p, a, g in zip(t, traj.pos.tolist(), traj.axis_angle.tolist(), traj.grip.tolist())
        ]
    else:
        frames = [{"t": ti, "joints": j} for ti, j in zip(t, traj.joints.tolist())]
    for record, obs_ref in zip(frames, traj.obs_ref):
        if obs_ref is not None:
            record["obs_ref"] = obs_ref
    return {
        "schema_version": TRAJECTORY_SCHEMA,
        "name": traj.name,
        "state_space": traj.state_space.value,
        "frequency_hz": float(traj.frequency_hz),
        "frames": frames,
    }


def _state_fields(doc: dict, where: str, joint: bool) -> tuple:
    """The type-checked values of one state record: (joints,) or
    (pos, axis_angle, gripper)."""
    if joint:
        joints = _require(doc, "joints", where)
        if not isinstance(joints, list) or not joints:
            raise TrajectorySchemaError(f"{where}.joints: expected a nonempty list of numbers")
        return (_vector(joints, len(joints), f"{where}.joints"),)
    return (
        _vector(_require(doc, "pos", where), 3, f"{where}.pos"),
        _vector(_require(doc, "axis_angle", where), 3, f"{where}.axis_angle"),
        _number(_require(doc, "gripper", where), f"{where}.gripper"),
    )


def trajectory_from_dict(doc: dict, where: str = "trajectory") -> Trajectory:
    """Check the JSON types field by field, then hand the columns to
    Trajectory.from_columns, which checks the time axis and the joint
    dimension."""
    if not isinstance(doc, dict):
        raise TrajectorySchemaError(f"{where}: expected a JSON object")
    version = _require(doc, "schema_version", where)
    if version != TRAJECTORY_SCHEMA:
        raise TrajectorySchemaError(f"{where}: schema_version {version!r} is not {TRAJECTORY_SCHEMA!r}")
    name = _require(doc, "name", where)
    if not isinstance(name, str):
        raise TrajectorySchemaError(f"{where}: name must be a string")
    space = _require(doc, "state_space", where)
    if space not in (StateKind.EE.value, StateKind.JOINT.value):
        raise TrajectorySchemaError(f"{where}: state_space must be 'ee' or 'joint', got {space!r}")
    kind = StateKind(space)
    frequency = _number(_require(doc, "frequency_hz", where), f"{where}.frequency_hz")
    raw_frames = _require(doc, "frames", where)
    if not isinstance(raw_frames, list) or not raw_frames:
        raise TrajectorySchemaError(f"{where}: frames must be a nonempty list")

    joint = kind is StateKind.JOINT
    times, obs_refs, states = [], [], []
    for i, rec in enumerate(raw_frames):
        here = f"{where}.frames[{i}]"
        if not isinstance(rec, dict):
            raise TrajectorySchemaError(f"{here}: expected a JSON object")
        t_val = _require(rec, "t", here)
        if isinstance(t_val, bool) or not isinstance(t_val, int):
            raise TrajectorySchemaError(f"{here}: t must be an integer")
        times.append(t_val)
        obs_ref = rec.get("obs_ref")
        if obs_ref is not None and not isinstance(obs_ref, str):
            raise TrajectorySchemaError(f"{here}: obs_ref must be a string")
        obs_refs.append(obs_ref)
        states.append(_state_fields(rec, here, joint))
    columns = dict(zip(("joints",) if joint else ("pos", "axis_angle", "grip"), zip(*states)))
    try:
        return Trajectory.from_columns(name, kind, frequency, times, obs_refs, **columns)
    except (OverflowError, ValueError) as exc:  # OverflowError: t beyond 64 bits
        raise TrajectoryValidationError(f"{where}: {exc}") from exc


def _read_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TrajectoryParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_trajectory(path) -> Trajectory:
    """Read and validate an awe-traj-v1 file."""
    return trajectory_from_dict(_read_json(path), where=str(path))


def save_trajectory(path, traj: Trajectory) -> None:
    _write_json(path, trajectory_to_dict(traj))


# ---------------------------------------------------------------------------
# metric configs
# ---------------------------------------------------------------------------


def metric_to_dict(cfg: MetricConfig) -> dict:
    return {
        "position_weight": cfg.position_weight,
        "orientation_weight": cfg.orientation_weight,
        "include_gripper": cfg.include_gripper,
        "gripper_weight": cfg.gripper_weight,
        "joint_mask": list(cfg.joint_mask) if cfg.joint_mask is not None else None,
    }


def metric_from_dict(doc: dict, where: str = "metric") -> MetricConfig:
    if not isinstance(doc, dict):
        raise TrajectorySchemaError(f"{where}: expected a JSON object")
    known = {"position_weight", "orientation_weight", "include_gripper", "gripper_weight", "joint_mask"}
    unknown = set(doc) - known
    if unknown:
        raise TrajectorySchemaError(f"{where}: unknown fields {sorted(unknown)}")
    kwargs = dict(doc)
    for key in ("position_weight", "orientation_weight", "gripper_weight"):
        if key in kwargs:
            kwargs[key] = _number(kwargs[key], f"{where}.{key}")
    if not isinstance(kwargs.get("include_gripper", False), bool):
        raise TrajectorySchemaError(f"{where}.include_gripper: expected true or false")
    mask = kwargs.get("joint_mask")
    if mask is not None:
        if not isinstance(mask, list):
            raise TrajectorySchemaError(f"{where}.joint_mask: expected a list of numbers or null")
        kwargs["joint_mask"] = tuple(_number(v, f"{where}.joint_mask[{k}]") for k, v in enumerate(mask))
    try:
        return MetricConfig(**kwargs)
    except ValueError as exc:
        raise TrajectoryValidationError(f"{where}: {exc}") from exc


def load_metric_config(path) -> MetricConfig:
    return metric_from_dict(_read_json(path), where=str(path))


# ---------------------------------------------------------------------------
# waypoint sets
# ---------------------------------------------------------------------------


def save_waypoints(path, wp: WaypointSet, provenance: dict) -> None:
    """Write an awe-wp-v1 document.

    provenance must carry "source_name" and may carry "metric" (MetricConfig
    or dict) and "created_at"; the tool version is stamped automatically.
    """
    prov = {"source_name": str(provenance["source_name"])}
    metric = provenance.get("metric")
    if isinstance(metric, MetricConfig):
        metric = metric_to_dict(metric)
    prov["metric"] = metric if metric is not None else metric_to_dict(MetricConfig())
    prov["tool_version"] = __version__
    if provenance.get("created_at") is not None:
        prov["created_at"] = str(provenance["created_at"])
    doc = {
        "schema_version": WAYPOINTS_SCHEMA,
        "eta": wp.eta_used,
        "indices": list(wp.indices),
        "achieved_segment_loss": wp.achieved_segment_loss,
        "achieved_global_loss": wp.achieved_global_loss,
        "provenance": prov,
    }
    _write_json(path, doc)


def load_waypoints(path) -> tuple[WaypointSet, dict]:
    doc = _read_json(path)
    where = str(path)
    if not isinstance(doc, dict):
        raise TrajectorySchemaError(f"{where}: expected a JSON object")
    version = _require(doc, "schema_version", where)
    if version != WAYPOINTS_SCHEMA:
        raise TrajectorySchemaError(f"{where}: schema_version {version!r} is not {WAYPOINTS_SCHEMA!r}")
    raw = _require(doc, "indices", where)
    if not isinstance(raw, list) or not raw:
        raise TrajectorySchemaError(f"{where}: indices must be a nonempty list")
    for k, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TrajectorySchemaError(f"{where}.indices[{k}]: expected an integer")
    optional = {}
    for key in ("eta", "achieved_segment_loss", "achieved_global_loss"):
        value = doc.get(key)
        optional[key] = None if value is None else _number(value, f"{where}.{key}")
    try:
        wp = WaypointSet(
            tuple(raw),
            eta_used=optional["eta"],
            achieved_segment_loss=optional["achieved_segment_loss"],
            achieved_global_loss=optional["achieved_global_loss"],
        )
    except ValueError as exc:
        raise TrajectoryValidationError(f"{where}: {exc}") from exc
    prov = doc.get("provenance") or {}
    if not isinstance(prov, dict):
        raise TrajectorySchemaError(f"{where}: provenance must be a JSON object")
    return wp, prov


# ---------------------------------------------------------------------------
# relabeled datasets
# ---------------------------------------------------------------------------


def _state_to_dict(state: State) -> dict:
    if isinstance(state, EEState):
        return {
            "pos": state.position.tolist(),
            "axis_angle": state.axis_angle().tolist(),
            "gripper": float(state.gripper),
        }
    return {"joints": state.joints.tolist()}


def _state_from_dict(doc: dict, where: str) -> State:
    if not isinstance(doc, dict):
        raise TrajectorySchemaError(f"{where}: expected a JSON object")
    if "joints" in doc:
        return JointState(*_state_fields(doc, where, joint=True))
    return EEState.from_axis_angle(*_state_fields(doc, where, joint=False))


def save_relabeled(path, ds: RelabeledDataset, metric: MetricConfig | None = None, created_at=None) -> None:
    """Write an awe-relabel-v1 file: one record per line, |traj| - 1 lines.

    Provenance (schema version, source, eta, metric, tool version) is
    embedded in the first record so the line count equals the row count.
    """
    prov = {
        "schema_version": RELABEL_SCHEMA,
        "source_name": ds.source_name,
        "eta": None if math.isnan(ds.eta) else ds.eta,
        "metric": metric_to_dict(metric if metric is not None else MetricConfig()),
        "tool_version": __version__,
    }
    if created_at is not None:
        prov["created_at"] = str(created_at)
    lines = []
    for k, row in enumerate(ds.frames):
        record = {"t": row.t}
        if row.obs_ref is not None:
            record["obs_ref"] = row.obs_ref
        record["state"] = _state_to_dict(row.state)
        record["target_waypoint"] = _state_to_dict(row.target_waypoint)
        record["target_index"] = row.target_index
        record["waypoints_remaining"] = row.waypoints_remaining
        if k == 0:
            record["provenance"] = prov
        lines.append(json.dumps(record))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_relabeled(path) -> tuple[RelabeledDataset, dict]:
    where = str(path)
    text = Path(path).read_text(encoding="utf-8")
    rows = []
    prov: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TrajectoryParseError(f"{where}: line {lineno}: {exc.msg}") from exc
        here = f"{where}: line {lineno}"
        if not isinstance(record, dict):
            raise TrajectorySchemaError(f"{here}: expected a JSON object")
        if not rows:
            prov = record.get("provenance") or {}
            if not isinstance(prov, dict):
                raise TrajectorySchemaError(f"{here}: provenance must be a JSON object")
            version = prov.get("schema_version")
            if version != RELABEL_SCHEMA:
                raise TrajectorySchemaError(f"{here}: schema_version {version!r} is not {RELABEL_SCHEMA!r}")
        t_val = _require(record, "t", here)
        if isinstance(t_val, bool) or not isinstance(t_val, int):
            raise TrajectorySchemaError(f"{here}: t must be an integer")
        target_index = _require(record, "target_index", here)
        if isinstance(target_index, bool) or not isinstance(target_index, int):
            raise TrajectorySchemaError(f"{here}: target_index must be an integer")
        remaining = _require(record, "waypoints_remaining", here)
        if isinstance(remaining, bool) or not isinstance(remaining, int):
            raise TrajectorySchemaError(f"{here}: waypoints_remaining must be an integer")
        obs_ref = record.get("obs_ref")
        if obs_ref is not None and not isinstance(obs_ref, str):
            raise TrajectorySchemaError(f"{here}: obs_ref must be a string")
        try:
            rows.append(
                RelabeledFrame(
                    t=t_val,
                    obs_ref=obs_ref,
                    state=_state_from_dict(_require(record, "state", here), f"{here}.state"),
                    target_waypoint=_state_from_dict(
                        _require(record, "target_waypoint", here), f"{here}.target_waypoint"
                    ),
                    target_index=target_index,
                    waypoints_remaining=remaining,
                )
            )
        except ValueError as exc:
            raise TrajectoryValidationError(f"{here}: {exc}") from exc
    if not rows:
        raise TrajectorySchemaError(f"{where}: no records")
    eta = prov.get("eta")
    eta = math.nan if eta is None else float(eta)
    source = str(prov.get("source_name", ""))
    return RelabeledDataset(source, eta, tuple(rows)), prov


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

PLOT_HEADER = "eta,kind,t,x,y,z"


def _xyz(state: State) -> tuple[float, float, float]:
    if isinstance(state, EEState):
        vec = state.position
    else:
        vec = state.joints[:3]
    out = [float(v) for v in vec] + [0.0] * (3 - len(vec))
    return out[0], out[1], out[2]


def emit_plot_data(traj: Trajectory, sweep, path, samples_per_chord: int = 12) -> None:
    """Long-format CSV of a budget sweep for plotting.

    One row per (eta, kind, point): the original frames, the reconstructed
    polyline sampled densely along each chord, and the waypoints themselves.
    Joint-space trajectories use their first three dims as x, y, z.
    """
    sweep = list(sweep)
    if not sweep:
        raise ValueError("sweep is empty")
    if samples_per_chord < 10:
        raise ValueError("samples_per_chord must be >= 10")
    rows = [PLOT_HEADER]

    def add(eta, kind, t, state):
        x, y, z = _xyz(state)
        rows.append(f"{eta!r},{kind},{t!r},{x!r},{y!r},{z!r}")

    for eta, wp in sweep:
        eta = float(eta)
        for frame in traj.frames:
            add(eta, "original", frame.t, frame.state)
        for i, j in zip(wp.indices, wp.indices[1:]):
            a, b = traj.frames[i], traj.frames[j]
            for s in range(samples_per_chord + 1):
                u = s / samples_per_chord
                t_interp = a.t + u * (b.t - a.t)
                add(eta, "reconstructed", t_interp, interpolate(a.state, b.state, u))
        for i in wp.indices:
            add(eta, "waypoint", traj.frames[i].t, traj.frames[i].state)
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
