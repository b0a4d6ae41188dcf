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

import contextlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .reconstruction import _check_metric
from .relabel import RelabeledDataset, _first_bad_row
from .solver import WaypointSet
from .state_space import DEFAULT_METRIC, MetricConfig, StateKind, Trajectory, _finite_scalar, _int_array

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


def _object(value, where: str, schema: str | None = None) -> dict:
    """value, which must be a JSON object, with schema_version schema when one is given."""
    if not isinstance(value, dict):
        raise TrajectorySchemaError(f"{where}: expected a JSON object")
    version = schema and _require(value, "schema_version", where)
    if version != schema:
        raise TrajectorySchemaError(f"{where}: schema_version {version!r} is not {schema!r}")
    return value


@contextlib.contextmanager
def _located(where: str):
    """Raise a ValueError of the block, a broken domain rule, as a
    TrajectoryValidationError at where."""
    try:
        yield
    except ValueError as exc:
        raise TrajectoryValidationError(f"{where}: {exc}") from exc


def _provenance(doc: dict, where: str, schema: str | None = None) -> dict:
    """doc's provenance, a JSON object with schema_version schema when one
    is given. Absent or null reads as {}, which only passes without a
    schema. A source_name, tool_version or created_at, when present, must
    be a string. A metric or eta, when present and not null, is returned as
    a MetricConfig or as a budget, which ErrorBudget's rule holds positive."""
    prov = {} if doc.get("provenance") is None else doc["provenance"]
    if not isinstance(prov, dict):
        raise TrajectorySchemaError(f"{where}: provenance must be a JSON object")
    _object(prov, where, schema)
    for key in ("source_name", "tool_version", "created_at"):
        if not isinstance(prov.get(key, ""), str):
            raise TrajectorySchemaError(f"{where}: provenance {key} must be a string")
    if prov.get("metric") is not None:
        prov["metric"] = metric_from_dict(prov["metric"], f"{where}.provenance.metric")
    if prov.get("eta") is not None:
        with _located(f"{where}.provenance.eta"):
            prov["eta"] = _finite_scalar(_number(prov["eta"], f"{where}.provenance.eta"), "eta", positive=True)
    return prov


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise TrajectorySchemaError(f"{where}: missing field {key!r}")
    return doc[key]


_NUMBER_TYPES = {int, float}


def _check_number(value, where: str) -> None:
    """Raise unless value is a finite JSON number (bool is not one)."""
    if type(value) not in _NUMBER_TYPES:
        raise TrajectorySchemaError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise TrajectoryValidationError(f"{where}: value must be finite, got {value!r}")


def _number(value, where: str) -> float:
    """A lone scalar field (frequency, budget, metric weight) as a float."""
    _check_number(value, where)
    return float(value)


def _check_vector(value, length: int, where: str) -> None:
    if type(value) is not list or len(value) != length:
        raise TrajectorySchemaError(f"{where}: expected a list of {length} numbers")
    for k, v in enumerate(value):
        _check_number(v, f"{where}[{k}]")


def _check_state(rec, where: str, joint: bool, dim: int | None = None) -> int | None:
    """Raise the error of the first bad field of one state record, in field
    order: the slow path that names a fault _record_columns only detects.
    A joint state must have dim joints, the first state's width, when dim
    is given. Returns the joint width later states must have."""
    _object(rec, where)
    if joint:
        joints = _require(rec, "joints", where)
        if type(joints) is not list or not joints:
            raise TrajectorySchemaError(f"{where}.joints: expected a nonempty list of numbers")
        _check_vector(joints, len(joints), f"{where}.joints")
        if dim is not None and len(joints) != dim:
            raise TrajectoryValidationError(f"{where}.joints: joint dimension {len(joints)} differs "
                                            f"from the {dim} dims of the first state")
        return len(joints)
    for key in ("pos", "axis_angle"):
        _check_vector(_require(rec, key, where), 3, f"{where}.{key}")
    _check_number(_require(rec, "gripper", where), f"{where}.gripper")


def _record_columns(records: list, joint: bool) -> dict | None:
    """The values of a nonempty list of state records as columns named as
    Trajectory.from_columns takes them: joints, or pos, axis_angle and grip,
    as float arrays. All values are type-checked in one pass over them, then
    checked finite as arrays. None when any check fails, joint widths
    included: the caller then names the fault with _check_state."""
    try:
        if joint:
            vectors = [rec["joints"] for rec in records]
            scalars = []
        else:
            pos = [rec["pos"] for rec in records]
            axis_angle = [rec["axis_angle"] for rec in records]
            vectors = pos + axis_angle
            scalars = [rec["gripper"] for rec in records]
    except (KeyError, TypeError):
        return None
    if not (set(map(type, vectors)) <= {list} and all(vectors)
            and set(map(len, vectors)) == {len(vectors[0]) if joint else 3}
            and set(map(type, chain(chain.from_iterable(vectors), scalars))) <= _NUMBER_TYPES):
        return None
    try:
        values = np.array(list(chain(chain.from_iterable(vectors), scalars)), dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    n = len(records)
    if joint:
        return {"joints": values.reshape(n, -1)}
    return {"pos": values[: 3 * n].reshape(n, 3), "axis_angle": values[3 * n : 6 * n].reshape(n, 3),
            "grip": values[6 * n :]}


_STATE_KINDS = {True: "joint", False: "end-effector"}


def _record_table(records: list, where, ints: tuple, states: tuple, joint: bool):
    """(int columns, obs_refs, state columns) of a nonempty list of records,
    where(k) naming record k: a list of values per key of ints, each
    record's obs_ref, and _record_columns of its state records, key by key
    of states (None: the record is its own state). All fields are gathered
    and type-checked in one pass; only a failed check walks the records in
    file order, to raise the error of the first bad field. A state carrying
    the other kind's field (joints in an end-effector file, pos in a joint
    file) is a schema error, and a joint state must have the first state's
    width."""
    other = "pos" if joint else "joints"
    try:
        int_columns = [[rec[key] for rec in records] for key in ints]
        obs_refs = [rec.get("obs_ref") for rec in records]
        subs = [rec if key is None else rec[key] for key in states for rec in records]
    except (KeyError, TypeError, AttributeError):
        subs = None
    if (subs is not None and set(map(type, chain.from_iterable(int_columns))) <= {int}
            and set(map(type, obs_refs)) <= {str, type(None)} and set(map(type, subs)) <= {dict}
            and not any(other in s for s in subs)):
        columns = _record_columns(subs, joint)
        if columns is not None:
            return int_columns, obs_refs, columns
    dim = None
    for k, rec in enumerate(records):
        here = where(k)
        _object(rec, here)
        for key in ints:
            if type(_require(rec, key, here)) is not int:
                raise TrajectorySchemaError(f"{here}: {key} must be an integer")
        if type(rec.get("obs_ref")) not in (str, type(None)):
            raise TrajectorySchemaError(f"{here}: obs_ref must be a string")
        for key in states:
            state, label = (rec, here) if key is None else (_require(rec, key, here), f"{here}.{key}")
            if isinstance(state, dict) and other in state:
                raise TrajectorySchemaError(f"{label}: {_STATE_KINDS[not joint]} state in a file of "
                                            f"{_STATE_KINDS[joint]} states")
            dim = _check_state(state, label, joint, dim)
    raise AssertionError(f"{where(0)}: the record checks failed on records with no bad field")


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


def trajectory_from_dict(doc: dict, where: str = "trajectory") -> Trajectory:
    """Gather and check the frames as columns with _record_table, then hand
    them to Trajectory.from_columns, which checks the time axis."""
    _object(doc, where, TRAJECTORY_SCHEMA)
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

    (times,), obs_refs, columns = _record_table(raw_frames, lambda k: f"{where}.frames[{k}]", ("t",), (None,),
                                                kind is StateKind.JOINT)
    with _located(where):
        return Trajectory.from_columns(name, kind, frequency, times, obs_refs, **columns)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TrajectoryParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _read_json(path) -> dict:
    text = _read_text(path)
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
    _object(doc, where)
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
    with _located(where):
        return MetricConfig(**kwargs)


def load_metric_config(path) -> MetricConfig:
    return metric_from_dict(_read_json(path), where=str(path))


# ---------------------------------------------------------------------------
# waypoint sets
# ---------------------------------------------------------------------------


def _stamp(fields: dict, metric: MetricConfig | None, created_at) -> dict:
    """A file's provenance: fields, then the metric (DEFAULT_METRIC when
    None), the tool version and created_at when given. A source_name in
    fields must be a string, as _provenance reads it back."""
    if not isinstance(fields.get("source_name", ""), str):
        raise ValueError(f"provenance source_name must be a string, got {type(fields['source_name']).__name__}")
    prov = {**fields, "metric": metric_to_dict(metric or DEFAULT_METRIC), "tool_version": __version__}
    if created_at is not None:
        prov["created_at"] = str(created_at)
    return prov


def save_waypoints(path, wp: WaypointSet, provenance: dict) -> None:
    """Write an awe-wp-v1 document.

    provenance must carry a string "source_name" and may carry "metric" (a
    MetricConfig, DEFAULT_METRIC when absent) and "created_at"; the tool
    version is stamped automatically.
    """
    prov = _stamp({"source_name": provenance["source_name"]}, provenance.get("metric"),
                  provenance.get("created_at"))
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
    where = str(path)
    doc = _object(_read_json(path), where, WAYPOINTS_SCHEMA)
    raw = _require(doc, "indices", where)
    if not isinstance(raw, list) or not raw:
        raise TrajectorySchemaError(f"{where}: indices must be a nonempty list")
    for k, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TrajectorySchemaError(f"{where}.indices[{k}]: expected an integer")
    # eta_used, achieved_segment_loss and achieved_global_loss, in WaypointSet's field order
    optional = [None if doc.get(key) is None else _number(doc[key], f"{where}.{key}")
                for key in ("eta", "achieved_segment_loss", "achieved_global_loss")]
    with _located(where):
        wp = WaypointSet(tuple(raw), *optional)
    return wp, _provenance(doc, where)


# ---------------------------------------------------------------------------
# relabeled datasets
# ---------------------------------------------------------------------------


_EE_STATE_JSON = '{"pos": [%r, %r, %r], "axis_angle": [%r, %r, %r], "gripper": %r}'


def _states_json(columns: dict) -> list[str]:
    """Each row of state columns as the text json.dumps gives its state
    record: float repr, ", " and ": " separators. A row equal bit for bit to
    the row before it reuses its text: all rows between two waypoints share
    their target, and float repr is the writer's main cost."""
    joint = "joints" in columns
    rows = columns["joints"] if joint else np.column_stack([columns["pos"], columns["axis_angle"], columns["grip"]])
    bits = np.ascontiguousarray(rows).view(np.uint64)
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    if joint:
        text = ['{"joints": [' + ", ".join(map(repr, row)) + "]}" for row in rows[fresh].tolist()]
    else:
        text = [_EE_STATE_JSON % tuple(row) for row in rows[fresh].tolist()]
    return [text[k] for k in (np.cumsum(fresh) - 1).tolist()]


def save_relabeled(path, ds: RelabeledDataset, metric: MetricConfig | None = None, created_at=None) -> None:
    """Write an awe-relabel-v1 file: one record per line, |traj| - 1 lines,
    each the text json.dumps gives the record, built from the columns.

    Provenance (schema version, source, eta, metric, tool version) is
    embedded in the first record so the line count equals the row count. A
    metric that cannot score the rows' states raises ValueError before
    anything is written.
    """
    _check_metric(ds.states.get("joints"), metric or DEFAULT_METRIC)
    prov = _stamp({"schema_version": RELABEL_SCHEMA, "source_name": ds.source_name, "eta": ds.eta}, metric, created_at)
    obs_refs = ["" if ref is None else f'"obs_ref": {json.dumps(ref)}, ' for ref in ds.obs_ref]
    lines = [
        f'{{"t": {t}, {obs}"state": {state}, "target_waypoint": {target}, "target_index": {index}, '
        f'"waypoints_remaining": {remaining}}}'
        for t, obs, state, target, index, remaining in zip(
            ds.t.tolist(), obs_refs, _states_json(ds.states), _states_json(ds.targets),
            ds.target_index.tolist(), ds.waypoints_remaining.tolist())
    ]
    lines[0] = f'{lines[0][:-1]}, "provenance": {json.dumps(prov)}}}'
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_relabeled(path) -> tuple[RelabeledDataset, dict]:
    """Read an awe-relabel-v1 file into columns, gathered and checked by
    _record_table as trajectory_from_dict's frames are, then checked as
    RelabeledDataset checks rows, its errors located at the file. The first
    state's kind is the file's, and the provenance metric must be able to
    score the states."""
    where = str(path)
    records, lines = [], []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TrajectoryParseError(f"{where}: line {lineno}: {exc.msg}") from exc
        lines.append(f"{where}: line {lineno}")
    if not records:
        raise TrajectorySchemaError(f"{where}: no records")
    first = _object(records[0], lines[0])
    prov = _provenance(first, lines[0], RELABEL_SCHEMA)

    first_state = first.get("state")
    joint = isinstance(first_state, dict) and "joints" in first_state
    int_keys = ("t", "target_index", "waypoints_remaining")
    ints, obs_refs, columns = _record_table(records, lines.__getitem__, int_keys, ("state", "target_waypoint"), joint)
    if prov.get("metric") is not None:
        with _located(f"{lines[0]}.provenance.metric"):
            _check_metric(columns.get("joints"), prov["metric"])

    n = len(records)
    states, targets = ({name: column[rows] for name, column in columns.items()} for rows in (slice(n), slice(n, None)))
    if not joint:
        states["quat"] = targets["quat"] = None  # derived from axis_angle
    with _located(where):
        t, target_index, remaining = (_int_array(column, n, key) for column, key in zip(ints, int_keys))
        bad = _first_bad_row(t, target_index, remaining)
        if bad is not None:
            raise TrajectoryValidationError(f"{lines[bad[0]]}: {bad[1]}")
        dataset = RelabeledDataset(prov.get("source_name", ""), prov.get("eta"), t, obs_refs, states=states,
                                   targets=targets, target_index=target_index, waypoints_remaining=remaining)
    return dataset, prov


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

PLOT_HEADER = "eta,kind,t,x,y,z"


# Reconstructed samples per chord, endpoints included: u = 0, 1/12, ..., 1.
_PLOT_U = np.arange(13) / 12


def _plot_rows(eta: float, kind: str, t, xyz) -> list[str]:
    return [f"{eta!r},{kind},{ti!r},{x!r},{y!r},{z!r}" for ti, (x, y, z) in zip(t.tolist(), xyz.tolist())]


def emit_plot_data(traj: Trajectory, sweep, path) -> None:
    """Long-format CSV of a budget sweep for plotting.

    One row per (eta, kind, point): the original frames, the reconstructed
    polyline sampled at 13 evenly spaced points along each chord, and the
    waypoints themselves. Joint-space trajectories use their first three
    dims as x, y, z, padded with 0.0. A sample at u lies at a + u (b - a),
    as interpolate places it; the chord's end samples are its frames.
    """
    sweep = list(sweep)
    if not sweep:
        raise ValueError("sweep is empty")
    coords = traj.pos if traj.joints is None else traj.joints[:, :3]
    xyz = np.hstack([coords, np.zeros((len(traj), 3 - coords.shape[1]))])
    rows = [PLOT_HEADER]
    for eta, wp in sweep:
        idx = np.asarray(wp.indices)
        src, dst = idx[:-1, None], idx[1:, None]
        t = traj.t[src] + _PLOT_U * (traj.t[dst] - traj.t[src])
        line = xyz[src] + _PLOT_U[:, None] * (xyz[dst] - xyz[src])
        line[:, 0], line[:, -1] = xyz[idx[:-1]], xyz[idx[1:]]
        rows += _plot_rows(float(eta), "original", traj.t, xyz)
        rows += _plot_rows(float(eta), "reconstructed", t.ravel(), line.reshape(-1, 3))
        rows += _plot_rows(float(eta), "waypoint", traj.t[idx], xyz[idx])
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
