import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import ee_trajectory, joint_trajectory
from oracles import oracle_plot_data, oracle_save_relabeled
from waypoint_extraction import state_space
from waypoint_extraction.defaults import ENV_TASK_DEFAULTS, TASK_ETA_DEFAULTS, load_task_defaults, resolve_task_eta
from waypoint_extraction.relabel import relabel_trajectory
from waypoint_extraction.solver import ErrorBudget, WaypointSet, extract_waypoints_dp, sweep_eta
from waypoint_extraction.state_space import (
    EEState,
    Frame,
    JointState,
    MetricConfig,
    StateKind,
    Trajectory,
    quaternion_to_axis_angle,
)
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory
from waypoint_extraction.trajfile import (
    PLOT_HEADER,
    TrajectoryFileError,
    TrajectoryParseError,
    TrajectorySchemaError,
    TrajectoryValidationError,
    emit_plot_data,
    load_metric_config,
    load_relabeled,
    load_trajectory,
    load_waypoints,
    metric_from_dict,
    metric_to_dict,
    save_relabeled,
    save_trajectory,
    save_waypoints,
)

MINIMAL_EE = {
    "schema_version": "awe-traj-v1",
    "name": "mini",
    "state_space": "ee",
    "frequency_hz": 20.0,
    "frames": [
        {"t": 0, "pos": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0], "gripper": 0.0},
        {"t": 1, "pos": [1.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.1], "gripper": 0.05},
    ],
}


def write(tmp_path, doc, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_load_minimal_ee(tmp_path):
    traj = load_trajectory(write(tmp_path, MINIMAL_EE))
    assert len(traj) == 2
    assert traj.state_space is StateKind.EE
    assert traj.frames[1].state.gripper == 0.05


def test_parse_error_is_distinct(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TrajectoryParseError, match="line 1"):
        load_trajectory(path)


def test_wrong_schema_version(tmp_path):
    doc = dict(MINIMAL_EE, schema_version="awe-traj-v2")
    with pytest.raises(TrajectorySchemaError, match="schema_version"):
        load_trajectory(write(tmp_path, doc))


def test_missing_field_names_frame(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_EE))
    del doc["frames"][1]["pos"]
    with pytest.raises(TrajectorySchemaError, match=r"frames\[1\].*pos"):
        load_trajectory(write(tmp_path, doc))


def test_non_monotone_t_names_frame(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_EE))
    doc["frames"] = [
        {"t": 0, "pos": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0], "gripper": 0.0},
        {"t": 2, "pos": [1.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0], "gripper": 0.0},
        {"t": 1, "pos": [2.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0], "gripper": 0.0},
    ]
    with pytest.raises(TrajectoryValidationError, match=r"frames\[2\]"):
        load_trajectory(write(tmp_path, doc))


def test_non_finite_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_EE))
    doc["frames"][0]["pos"] = [0.0, None, 0.0]
    with pytest.raises(TrajectorySchemaError):
        load_trajectory(write(tmp_path, doc))
    doc["frames"][0]["pos"] = [0.0, 1e999, 0.0]  # parses as inf
    with pytest.raises(TrajectoryValidationError, match="finite"):
        load_trajectory(write(tmp_path, doc))


def test_joint_dim_change_rejected(tmp_path):
    doc = {
        "schema_version": "awe-traj-v1",
        "name": "j",
        "state_space": "joint",
        "frequency_hz": 50.0,
        "frames": [
            {"t": 0, "joints": [0.0, 0.0]},
            {"t": 1, "joints": [0.0, 0.0, 0.0]},
        ],
    }
    with pytest.raises(TrajectoryValidationError, match="dims"):
        load_trajectory(write(tmp_path, doc))


def test_joint_width_fault_reads_as_in_relabeled_files(tmp_path):
    # the first state whose width is not the first state's, in the words of load_relabeled
    frames = [{"t": 0, "joints": [0.0, 0.0]}, {"t": 1, "joints": [1.0, 0.0]}, {"t": 2, "joints": [2.0]}]
    doc = {"schema_version": "awe-traj-v1", "name": "j", "state_space": "joint", "frequency_hz": 50.0, "frames": frames}
    with pytest.raises(TrajectoryValidationError,
                       match=r"\.frames\[2\]\.joints: joint dimension 1 differs from the 2 dims of the first state$"):
        load_trajectory(write(tmp_path, doc))


@pytest.mark.parametrize("loader", [load_trajectory, load_relabeled, load_metric_config, load_waypoints])
def test_non_utf8_file_is_a_parse_error_naming_it(tmp_path, loader):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(TrajectoryParseError, match=r"utf16\.json: not UTF-8 text: invalid start byte at byte 0$"):
        loader(path)


def _demo_doc(kind: str) -> dict:
    if kind == "ee":
        frames = [{"t": t, "pos": [0.1 * t, 0.0, 1.0], "axis_angle": [0.0, 0.01 * t, 0.0], "gripper": 0.04}
                  for t in range(6)]
    else:
        frames = [{"t": t, "joints": [0.1 * t, -0.2, 0.3]} for t in range(6)]
    return {"schema_version": "awe-traj-v1", "name": "d", "state_space": kind, "frequency_hz": 50.0,
            "frames": frames}


def _set(doc, path, value):
    """Set doc[path[0]][path[1]]... to value; value DELETE removes the key."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is DELETE:
        del doc[last]
    else:
        doc[last] = value


DELETE = object()

LOCATED_FAULTS = [
    ("ee", ("frames", 3, "pos", 1), None, TrajectorySchemaError, r"\.frames\[3\]\.pos\[1\]: expected a number, got NoneType$"),
    ("ee", ("frames", 3, "pos", 1), "0.5", TrajectorySchemaError, r"\.frames\[3\]\.pos\[1\]: expected a number, got str$"),
    ("ee", ("frames", 3, "pos", 1), float("inf"), TrajectoryValidationError, r"\.frames\[3\]\.pos\[1\]: value must be finite, got inf$"),
    ("ee", ("frames", 3, "pos", 1), 10**400, TrajectoryValidationError, r"\.frames\[3\]\.pos\[1\]: value must be finite"),
    ("ee", ("frames", 3, "pos"), [0.0, 1.0], TrajectorySchemaError, r"\.frames\[3\]\.pos: expected a list of 3 numbers$"),
    ("ee", ("frames", 3, "pos"), {"x": 0.0}, TrajectorySchemaError, r"\.frames\[3\]\.pos: expected a list of 3 numbers$"),
    ("ee", ("frames", 3, "axis_angle", 2), float("nan"), TrajectoryValidationError, r"\.frames\[3\]\.axis_angle\[2\]: value must be finite, got nan$"),
    ("ee", ("frames", 3, "axis_angle"), DELETE, TrajectorySchemaError, r"\.frames\[3\]: missing field 'axis_angle'$"),
    ("ee", ("frames", 3, "gripper"), True, TrajectorySchemaError, r"\.frames\[3\]\.gripper: expected a number, got bool$"),
    ("ee", ("frames", 3, "gripper"), [0.0], TrajectorySchemaError, r"\.frames\[3\]\.gripper: expected a number, got list$"),
    ("ee", ("frames", 3, "gripper"), -float("inf"), TrajectoryValidationError, r"\.frames\[3\]\.gripper: value must be finite, got -inf$"),
    ("ee", ("frames", 3), [1, 2], TrajectorySchemaError, r"\.frames\[3\]: expected a JSON object$"),
    ("ee", ("frames", 3, "t"), 3.0, TrajectorySchemaError, r"\.frames\[3\]: t must be an integer$"),
    ("ee", ("frames", 3, "t"), DELETE, TrajectorySchemaError, r"\.frames\[3\]: missing field 't'$"),
    ("ee", ("frames", 3, "obs_ref"), 7, TrajectorySchemaError, r"\.frames\[3\]: obs_ref must be a string$"),
    ("joint", ("frames", 3, "joints"), [], TrajectorySchemaError, r"\.frames\[3\]\.joints: expected a nonempty list of numbers$"),
    ("joint", ("frames", 3, "joints"), 0.5, TrajectorySchemaError, r"\.frames\[3\]\.joints: expected a nonempty list of numbers$"),
    ("joint", ("frames", 3, "joints", 2), "a", TrajectorySchemaError, r"\.frames\[3\]\.joints\[2\]: expected a number, got str$"),
    ("joint", ("frames", 3, "joints", 2), float("inf"), TrajectoryValidationError, r"\.frames\[3\]\.joints\[2\]: value must be finite, got inf$"),
    ("joint", ("frames", 3, "joints"), DELETE, TrajectorySchemaError, r"\.frames\[3\]: missing field 'joints'$"),
    ("joint", ("frames", 3), "j", TrajectorySchemaError, r"\.frames\[3\]: expected a JSON object$"),
]


@pytest.mark.parametrize("kind, path, value, error, message", LOCATED_FAULTS,
                         ids=[f"{k}-{'.'.join(map(str, p[2:]))}-{i}" for i, (k, p, *_) in enumerate(LOCATED_FAULTS)])
def test_bad_frame_field_is_located(tmp_path, kind, path, value, error, message):
    doc = _demo_doc(kind)
    _set(doc, path, value)
    with pytest.raises(error, match=message):
        load_trajectory(write(tmp_path, doc))


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_first_bad_field_in_file_order_is_named(tmp_path, kind):
    # a value fault in frame 2 comes before a type fault in frame 4
    doc = _demo_doc(kind)
    field = "pos" if kind == "ee" else "joints"
    doc["frames"][2][field][0] = float("inf")
    doc["frames"][4][field][1] = "x"
    with pytest.raises(TrajectoryValidationError, match=rf"\.frames\[2\]\.{field}\[0\]"):
        load_trajectory(write(tmp_path, doc))
    # and within a frame, the fields in their documented order
    doc = _demo_doc(kind)
    doc["frames"][1]["obs_ref"] = 1
    doc["frames"][1]["t"] = "1"
    with pytest.raises(TrajectorySchemaError, match=r"\.frames\[1\]: t must be an integer"):
        load_trajectory(write(tmp_path, doc))


def test_integer_fields_load_as_floats(tmp_path):
    doc = _demo_doc("ee")
    doc["frames"][2]["pos"] = [1, 2, 3]
    doc["frames"][2]["gripper"] = 0
    traj = load_trajectory(write(tmp_path, doc))
    assert traj.pos[2].tolist() == [1.0, 2.0, 3.0] and traj.grip[2] == 0.0
    assert traj.pos.dtype == traj.grip.dtype == np.float64


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_round_trip_byte_identical(tmp_path, rng, kind):
    for i in range(20):
        traj = make_random_walk_trajectory(rng, int(rng.integers(2, 30)), kind, name=f"rt-{i}")
        p1 = tmp_path / f"{kind}-{i}-a.json"
        p2 = tmp_path / f"{kind}-{i}-b.json"
        save_trajectory(p1, traj)
        save_trajectory(p2, load_trajectory(p1))
        assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_structure(tmp_path, rng):
    traj = make_segmented_ee_trajectory(rng, n_segments=4, name="seg")
    path = tmp_path / "seg.json"
    save_trajectory(path, traj)
    loaded = load_trajectory(path)
    assert loaded.name == traj.name
    assert len(loaded) == len(traj)
    assert np.array_equal(loaded.pos, traj.pos)
    assert np.array_equal(
        np.stack([f.state.axis_angle() for f in loaded.frames]),
        np.stack([f.state.axis_angle() for f in traj.frames]),
    )


# ---------------------------------------------------------------------------
# columnar layout
# ---------------------------------------------------------------------------


def _bits(rows) -> bytes:
    return np.asarray(rows, dtype=float).tobytes()


def _assert_columns_match_views(traj):
    frames = traj.frames
    assert traj.t.tolist() == [f.t for f in frames]
    assert traj.obs_ref == tuple(f.obs_ref for f in frames)
    if traj.state_space is StateKind.EE:
        assert traj.joints is None and traj.gripper_dims is None
        assert _bits(traj.pos) == _bits([f.state.position for f in frames])
        assert _bits(traj.quat) == _bits([f.state.orientation for f in frames])
        assert _bits(traj.grip) == _bits([f.state.gripper for f in frames])
        assert _bits(traj.axis_angle) == _bits([f.state.axis_angle() for f in frames])
    else:
        assert traj.pos is None and traj.quat is None and traj.grip is None and traj.axis_angle is None
        assert _bits(traj.joints) == _bits([f.state.joints for f in frames])
        assert {f.state.gripper_dims for f in frames} == {traj.gripper_dims}
    for column in (traj.t, traj.pos, traj.quat, traj.grip, traj.axis_angle, traj.joints):
        assert column is None or not column.flags.writeable


def test_loaded_ee_columns_are_the_per_frame_states_bit_for_bit(tmp_path, rng):
    base = make_segmented_ee_trajectory(rng, n_segments=3, name="cols")
    tagged = Trajectory(base.name, StateKind.EE, base.frequency_hz,
                        [Frame(f.t, f.state, f"cam0/{f.t:04d}.png") for f in base.frames])
    save_trajectory(tmp_path / "cols.json", tagged)
    doc = json.loads((tmp_path / "cols.json").read_text())
    traj = load_trajectory(tmp_path / "cols.json")
    _assert_columns_match_views(traj)
    assert traj.obs_ref == tuple(f"cam0/{t:04d}.png" for t in range(len(traj)))
    # the states a per-frame loader would build from the same file
    expected = [EEState.from_axis_angle(f["pos"], f["axis_angle"], f["gripper"]) for f in doc["frames"]]
    assert _bits(traj.quat) == _bits([s.orientation for s in expected])
    assert _bits(traj.axis_angle) == _bits([f["axis_angle"] for f in doc["frames"]])


def test_random_walk_columns_without_source_axis_angle(rng):
    traj = make_random_walk_trajectory(rng, 40, StateKind.EE)
    _assert_columns_match_views(traj)
    # what EEState.axis_angle() gives for a state built from a quaternion
    assert _bits(traj.axis_angle) == _bits([quaternion_to_axis_angle(q) for q in traj.quat])
    # restacking the views reproduces every column
    restacked = Trajectory(traj.name, StateKind.EE, 50.0, traj.frames)
    for name in ("t", "pos", "quat", "grip", "axis_angle"):
        assert getattr(restacked, name).tobytes() == getattr(traj, name).tobytes()


def test_joint_columns_keep_gripper_dims(rng):
    vectors = rng.normal(size=(12, 4))
    traj = joint_trajectory(vectors, gripper_dims=(3,))
    _assert_columns_match_views(traj)
    assert traj.gripper_dims == (3,)
    assert _bits(traj.joints) == _bits(vectors)
    assert traj.state(5) is traj.frames[5].state


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_pickled_trajectory_keeps_read_only_columns(rng, kind):
    if kind == "ee":
        base = make_random_walk_trajectory(rng, 20)
        traj = Trajectory(base.name, StateKind.EE, 50.0, [Frame(f.t, f.state, f"obs{f.t}") for f in base.frames])
    else:
        traj = joint_trajectory(rng.normal(size=(20, 4)), gripper_dims=(3,))
    traj.frames  # cached views must not travel with the pickle
    clone = pickle.loads(pickle.dumps(traj))
    assert (clone.name, clone.state_space, clone.frequency_hz, clone.obs_ref, clone.gripper_dims) == (
        traj.name, traj.state_space, traj.frequency_hz, traj.obs_ref, traj.gripper_dims)
    for name in ("t", "pos", "quat", "grip", "axis_angle", "joints"):
        column = getattr(clone, name)
        if column is None:
            assert getattr(traj, name) is None
            continue
        assert not column.flags.writeable
        assert column.dtype == getattr(traj, name).dtype
        assert column.tobytes() == getattr(traj, name).tobytes()
    _assert_columns_match_views(clone)
    for frame in clone.frames:
        arrays = (frame.state.joints,) if kind == "joint" else (
            frame.state.position, frame.state.orientation, frame.state.source_axis_angle)
        assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_load_and_extract_build_no_per_frame_objects(tmp_path, rng, monkeypatch, kind):
    path = tmp_path / "demo.json"
    save_trajectory(path, make_random_walk_trajectory(rng, 60, kind))
    built = []

    def counting(cls, original):
        def init(self, *args, **kwargs):
            built.append(cls.__name__)
            original(self, *args, **kwargs)
        return init

    for cls in (Frame, EEState, JointState):
        monkeypatch.setattr(cls, "__init__", counting(cls, cls.__init__))
    view = state_space._view
    monkeypatch.setattr(state_space, "_view", lambda cls, **fields: built.append(cls.__name__) or view(cls, **fields))
    traj = load_trajectory(path)
    extract_waypoints_dp(traj, ErrorBudget(0.3))
    assert built == []
    traj.frames  # the counters do see views being built
    assert len(built) == 2 * len(traj)


# ---------------------------------------------------------------------------
# waypoints and relabeled datasets
# ---------------------------------------------------------------------------


def test_waypoints_round_trip(tmp_path, rng):
    traj = make_random_walk_trajectory(rng, 15)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.3))
    path = tmp_path / "wp.json"
    save_waypoints(path, wp, {"source_name": traj.name, "metric": MetricConfig(), "created_at": "2024-01-01T00:00:00+00:00"})
    loaded, prov = load_waypoints(path)
    assert loaded.indices == wp.indices
    assert loaded.eta_used == wp.eta_used
    assert loaded.achieved_segment_loss == wp.achieved_segment_loss
    assert prov["source_name"] == traj.name
    assert prov["metric"] == MetricConfig()
    assert prov["created_at"] == "2024-01-01T00:00:00+00:00"
    assert "tool_version" in prov


def test_waypoints_heuristic_null_eta(tmp_path):
    path = tmp_path / "wp.json"
    save_waypoints(path, WaypointSet((0, 3, 9)), {"source_name": "h"})
    loaded, _ = load_waypoints(path)
    assert loaded.eta_used is None
    assert loaded.indices == (0, 3, 9)


def test_relabeled_line_count_and_round_trip(tmp_path, rng):
    traj = make_random_walk_trajectory(rng, 12, name="rl")
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.4))
    ds = relabel_trajectory(traj, wp)
    path = tmp_path / "rl.jsonl"
    save_relabeled(path, ds, metric=MetricConfig(), created_at="2024-01-01T00:00:00+00:00")
    lines = path.read_text().splitlines()
    assert len(lines) == len(traj) - 1
    loaded, prov = load_relabeled(path)
    assert loaded.source_name == "rl"
    assert loaded.eta == ds.eta
    assert len(loaded) == len(ds)
    assert [r.target_index for r in loaded.frames] == [r.target_index for r in ds.frames]
    assert prov["schema_version"] == "awe-relabel-v1"
    assert prov["created_at"] == "2024-01-01T00:00:00+00:00"
    # only the first line carries provenance
    assert "provenance" in json.loads(lines[0])
    assert all("provenance" not in json.loads(l) for l in lines[1:])


def _relabel_demos(rng) -> dict:
    """An end-effector demo with obs_refs, a joint demo with gripper_dims,
    and an end-effector demo with gaps in its time axis, each relabeled."""
    base = make_segmented_ee_trajectory(rng, n_segments=4, name="ee-obs")
    ee = Trajectory(base.name, StateKind.EE, 30.0, [Frame(f.t, f.state, f"cam0/{f.t:04d}.png") for f in base.frames])
    joint = joint_trajectory(np.cumsum(rng.normal(scale=0.05, size=(80, 5)), axis=0), name="arm", gripper_dims=(4,))
    walk = make_random_walk_trajectory(rng, 40)
    gapped = Trajectory("gapped", StateKind.EE, 50.0,
                        [Frame(3 * k + k % 2, f.state) for k, f in enumerate(walk.frames)])
    out = {}
    for traj, eta in ((ee, 0.01), (joint, 0.05), (gapped, 0.3)):
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(eta))
        out[traj.name] = (traj, relabel_trajectory(traj, wp))
    out["heuristic"] = (walk, relabel_trajectory(walk, WaypointSet((0, 13, 39))))  # eta is None
    return out


def test_relabel_writer_matches_per_row_json_dumps(tmp_path, rng):
    for name, (traj, ds) in _relabel_demos(rng).items():
        for created_at in (None, "2024-01-01T00:00:00+00:00"):
            ours, theirs = tmp_path / f"{name}-a.jsonl", tmp_path / f"{name}-b.jsonl"
            save_relabeled(ours, ds, metric=MetricConfig(position_weight=2.0), created_at=created_at)
            oracle_save_relabeled(theirs, ds, metric=MetricConfig(position_weight=2.0), created_at=created_at)
            assert ours.read_bytes() == theirs.read_bytes(), name
        # loading gives the same columns back, and writing them the same bytes
        loaded, _ = load_relabeled(ours)
        again = tmp_path / f"{name}-c.jsonl"
        save_relabeled(again, loaded, metric=MetricConfig(position_weight=2.0), created_at=created_at)
        assert again.read_bytes() == ours.read_bytes()
        # quat rows come from the stored rotation vectors, as a trajectory file's do
        save_trajectory(tmp_path / f"{name}.json", traj)
        reloaded = relabel_trajectory(load_trajectory(tmp_path / f"{name}.json"),
                                      WaypointSet(tuple(np.searchsorted(traj.t, sorted({0, *ds.target_index.tolist()})))))
        for got, want in ((loaded.states, reloaded.states), (loaded.targets, reloaded.targets)):
            assert got.keys() == want.keys()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_relabeled_dataset_columns_and_views(rng):
    traj, ds = _relabel_demos(rng)["gapped"]
    assert ds.t.tolist() == traj.t[:-1].tolist() == [3 * k + k % 2 for k in range(39)]
    assert ds.frames is ds.frames  # built once
    for k, row in enumerate(ds.frames):
        target = int(np.searchsorted(traj.t, row.target_index))
        assert row.t == traj.t[k] < row.target_index
        assert row.state.position.tobytes() == traj.pos[k].tobytes()
        assert row.target_waypoint.orientation.tobytes() == traj.quat[target].tobytes()
        assert row.target_waypoint.axis_angle().tobytes() == traj.axis_angle[target].tobytes()
    for column in (ds.t, ds.target_index, ds.waypoints_remaining, *ds.states.values(), *ds.targets.values()):
        assert not column.flags.writeable
    _, joint = _relabel_demos(rng)["arm"]
    assert {row.state.gripper_dims for row in joint.frames} == {(4,)}


def _relabel_lines(tmp_path, records) -> Path:
    records[0]["provenance"] = {"schema_version": "awe-relabel-v1", "source_name": "x", "eta": 0.1}
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _row(t, state, target, index=None, remaining=1):
    return {"t": t, "state": state, "target_waypoint": target, "target_index": t + 1 if index is None else index,
            "waypoints_remaining": remaining}


EE_STATE = {"pos": [0.0, 0.0, 0.0], "axis_angle": [0.0, 0.0, 0.0], "gripper": 0.0}


@pytest.mark.parametrize("rows, message", [
    # an end-effector file with a joint row, and the reverse
    ([_row(0, EE_STATE, EE_STATE), _row(1, {"joints": [0.0, 1.0]}, {"joints": [0.0, 1.0]})],
     r"line 2\.state: joint state in a file of end-effector states"),
    ([_row(0, {"joints": [0.0]}, {"joints": [0.0]}), _row(1, {"joints": [0.0]}, EE_STATE)],
     r"line 2\.target_waypoint: end-effector state in a file of joint states"),
    ([_row(0, EE_STATE, {"joints": [0.0, 1.0, 2.0]})],
     r"line 1\.target_waypoint: joint state in a file of end-effector states"),
    # joint dimension changing between rows, and between state and target
    ([_row(0, {"joints": [0.0, 1.0]}, {"joints": [0.0, 1.0]}), _row(1, {"joints": [0.0, 1.0, 2.0]}, {"joints": [0.0, 1.0]})],
     r"line 2\.state\.joints: joint dimension 3 differs from the 2 dims of the first state"),
    ([_row(0, {"joints": [0.0, 1.0]}, {"joints": [0.0]})],
     r"line 1\.target_waypoint\.joints: joint dimension 1 differs from the 2 dims"),
    # the located messages shared with trajectory files
    ([_row(0, EE_STATE, EE_STATE), _row(1, EE_STATE, dict(EE_STATE, pos=[0.0, None, 0.0]))],
     r"line 2\.target_waypoint\.pos\[1\]: expected a number, got NoneType"),
    ([_row(0, EE_STATE, EE_STATE), dict(_row(1, EE_STATE, EE_STATE), target_index="2")],
     r"line 2: target_index must be an integer"),
    ([_row(0, EE_STATE, EE_STATE), "row"], r"line 2: expected a JSON object"),
])
def test_relabeled_loader_names_the_bad_line(tmp_path, rows, message):
    # a joint width other than the first state's is a value fault, as in trajectory files
    error = TrajectoryValidationError if "joint dimension" in message else TrajectorySchemaError
    with pytest.raises(error, match=message):
        load_relabeled(_relabel_lines(tmp_path, rows))


def test_relabeled_loader_validates_rows(tmp_path):
    late = [_row(0, EE_STATE, EE_STATE), _row(1, EE_STATE, EE_STATE, index=1)]
    with pytest.raises(TrajectoryValidationError, match="line 2: target_index must lie strictly after the frame"):
        load_relabeled(_relabel_lines(tmp_path, late))
    spent = [_row(0, EE_STATE, EE_STATE, remaining=0)]
    with pytest.raises(TrajectoryValidationError, match="line 1: waypoints_remaining must be >= 1"):
        load_relabeled(_relabel_lines(tmp_path, spent))
    overflow = [_row(0, EE_STATE, dict(EE_STATE, axis_angle=[1e308, 1e308, 0.0]))]
    with pytest.raises(TrajectoryValidationError, match=r"r\.jsonl: targets: axis_angle must be finite and at most "
                                                        r"2\*\*250 in magnitude, got 1e\+308 at axis_angle\[0, 0\]$"):
        load_relabeled(_relabel_lines(tmp_path, overflow))


def test_relabeled_loader_skips_blank_lines_and_names_lines_as_numbered(tmp_path):
    from waypoint_extraction.cli import EXIT_PARSE, _exit_code

    lines = _relabel_lines(tmp_path, [_row(0, EE_STATE, EE_STATE), _row(1, EE_STATE, EE_STATE)]).read_text().splitlines()
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text(f"\n{lines[0]}\n  \n{lines[1]}\n\n")
    ds, _ = load_relabeled(spaced)
    assert ds.t.tolist() == [0, 1]
    late = json.dumps(_row(1, EE_STATE, EE_STATE, index=1))
    spaced.write_text(f"\n{lines[0]}\n  \n{late}\n")
    with pytest.raises(TrajectoryValidationError, match=r"spaced\.jsonl: line 4: target_index must lie strictly after"):
        load_relabeled(spaced)
    # a line that is not JSON is a parse error (exit 4) naming the line
    broken = tmp_path / "broken.jsonl"
    broken.write_text(f"{lines[0]}\n\n{{\"t\": 1,\n")
    with pytest.raises(TrajectoryParseError, match=r"broken\.jsonl: line 3: ") as exc:
        load_relabeled(broken)
    assert _exit_code(exc.value) == EXIT_PARSE
    for text in ("", "\n  \n"):
        spaced.write_text(text)
        with pytest.raises(TrajectorySchemaError, match=r"spaced\.jsonl: no records$"):
            load_relabeled(spaced)


def test_relabeled_loader_refuses_rows_out_of_time_order(tmp_path):
    # both files once loaded, as t = [0, 1, 3, 2, 4] and [0, 0, 2, 3]
    traj = ee_trajectory([(t, 0, 0) for t in range(6)])
    save_relabeled(tmp_path / "ds.jsonl", relabel_trajectory(traj, WaypointSet((0, 5))))
    lines = (tmp_path / "ds.jsonl").read_text().splitlines()
    swapped = tmp_path / "swapped.jsonl"
    swapped.write_text("\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:]) + "\n")
    with pytest.raises(TrajectoryValidationError, match=r"swapped\.jsonl: line 4: t=2 not greater than previous t=3$"):
        load_relabeled(swapped)
    repeated = [_row(0, EE_STATE, EE_STATE, index=2), _row(0, EE_STATE, EE_STATE, index=2), _row(2, EE_STATE, EE_STATE),
                _row(3, EE_STATE, EE_STATE)]
    with pytest.raises(TrajectoryValidationError, match=r"r\.jsonl: line 2: t=0 not greater than previous t=0$"):
        load_relabeled(_relabel_lines(tmp_path, repeated))


# metrics the states of a dataset cannot be scored in: end-effector rows
# with no end-effector weight, and 5-joint rows with a 2-weight mask
_UNSCORABLE = {
    "no end-effector weight": (lambda: ee_trajectory([(t, 0, 0) for t in range(4)]),
                               MetricConfig(position_weight=0, orientation_weight=0, joint_mask=(1.0,)),
                               "metric has no nonzero end-effector weight"),
    "mask of the wrong width": (lambda: joint_trajectory(np.arange(20.0).reshape(4, 5)),
                                MetricConfig(joint_mask=(1.0, 2.0)), "joint_mask has 2 weights but states have 5 dims"),
}


@pytest.mark.parametrize("case", list(_UNSCORABLE))
def test_relabel_writer_refuses_a_metric_that_cannot_score_the_states(tmp_path, case):
    make, metric, message = _UNSCORABLE[case]
    ds = relabel_trajectory(make(), WaypointSet((0, 3)))
    with pytest.raises(ValueError, match=f"^{message}"):
        save_relabeled(tmp_path / "ds.jsonl", ds, metric=metric)
    assert not (tmp_path / "ds.jsonl").exists()


@pytest.mark.parametrize("case", list(_UNSCORABLE))
def test_relabel_loader_refuses_a_metric_that_cannot_score_the_states(tmp_path, case):
    # an edited file: the writer refuses these metrics
    make, metric, message = _UNSCORABLE[case]
    path = tmp_path / "ds.jsonl"
    save_relabeled(path, relabel_trajectory(make(), WaypointSet((0, 3))))
    first, *rest = path.read_text().splitlines()
    record = json.loads(first)
    record["provenance"]["metric"] = metric_to_dict(metric)
    path.write_text("\n".join([json.dumps(record), *rest]) + "\n")
    with pytest.raises(TrajectoryValidationError, match=rf"ds\.jsonl: line 1\.provenance\.metric: {message}"):
        load_relabeled(path)


def test_relabel_file_keeps_a_joint_mask_on_end_effector_states(tmp_path):
    # by design: an end-effector metric with a position term ignores joint_mask
    metric = MetricConfig(joint_mask=(1.0, 2.0))
    ds = relabel_trajectory(ee_trajectory([(t, 0, 0) for t in range(4)]), WaypointSet((0, 3)))
    save_relabeled(tmp_path / "ds.jsonl", ds, metric=metric)
    assert load_relabeled(tmp_path / "ds.jsonl")[1]["metric"] == metric


@pytest.mark.parametrize("eta, error", [("0.1", TrajectorySchemaError), ([0.1], TrajectorySchemaError),
                                        (float("inf"), TrajectoryValidationError),
                                        # a budget, positive as ErrorBudget's
                                        (-2.0, TrajectoryValidationError), (0, TrajectoryValidationError)])
def test_relabeled_provenance_eta_must_be_a_number(tmp_path, eta, error):
    path = _relabel_lines(tmp_path, [_row(0, EE_STATE, EE_STATE)])
    record = json.loads(path.read_text())
    record["provenance"]["eta"] = eta
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(error, match=r"line 1\.provenance\.eta: "):
        load_relabeled(path)


def test_relabeled_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0, "provenance": {"schema_version": "nope"}}\n')
    with pytest.raises(TrajectorySchemaError):
        load_relabeled(path)


@pytest.mark.parametrize("provenance", ['["awe-relabel-v1"]', '"awe-relabel-v1"', "3"])
def test_relabeled_non_object_provenance_is_a_schema_error(tmp_path, provenance):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"t": 0, "provenance": {provenance}}}\n')
    with pytest.raises(TrajectorySchemaError, match=r"line 1: provenance"):
        load_relabeled(path)


def _waypoints_doc(tmp_path, **provenance) -> Path:
    path = tmp_path / "wp.json"
    save_waypoints(path, WaypointSet((0, 3, 9)), {"source_name": "h"})
    doc = json.loads(path.read_text())
    doc.update(provenance)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("provenance", [[], 0, "", False, [1]])
def test_waypoints_non_object_provenance_is_a_schema_error(tmp_path, provenance):
    # a falsy non-object once loaded as {}, while [1] was refused
    with pytest.raises(TrajectorySchemaError, match=r"wp\.json: provenance must be a JSON object$"):
        load_waypoints(_waypoints_doc(tmp_path, provenance=provenance))


def test_waypoints_provenance_is_optional(tmp_path):
    assert load_waypoints(_waypoints_doc(tmp_path, provenance=None))[1] == {}
    path = _waypoints_doc(tmp_path)
    doc = json.loads(path.read_text())
    del doc["provenance"]
    path.write_text(json.dumps(doc))
    assert load_waypoints(path)[1] == {}


@pytest.mark.parametrize("first", [
    {"t": 0}, {"t": 0, "provenance": None}, {"t": 0, "provenance": {}}, {"t": 0, "provenance": {"eta": 0.1}},
])
def test_relabeled_provenance_needs_its_schema_version(tmp_path, first):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(first) + "\n")
    with pytest.raises(TrajectorySchemaError, match=r"line 1: missing field 'schema_version'$"):
        load_relabeled(path)


@pytest.mark.parametrize("source_name", [None, 5, ["x"]])
def test_provenance_source_name_must_be_a_string(tmp_path, source_name):
    message = r"provenance source_name must be a string$"
    with pytest.raises(TrajectorySchemaError, match=message):
        load_waypoints(_waypoints_doc(tmp_path, provenance={"source_name": source_name}))
    path = _relabel_lines(tmp_path, [_row(0, EE_STATE, EE_STATE)])
    record = json.loads(path.read_text())
    record["provenance"]["source_name"] = source_name
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(TrajectorySchemaError, match=r"line 1: " + message):
        load_relabeled(path)


# (field, value, error, message after the file's location) of provenance
# fields both formats once loaded and handed on unchecked
_BAD_PROVENANCE = [
    ("metric", "x", TrajectorySchemaError, r"\.provenance\.metric: expected a JSON object$"),
    ("metric", {"position_weight": -1.0}, TrajectoryValidationError,
     r"\.provenance\.metric: position_weight must be finite and >= 0$"),
    ("tool_version", [1], TrajectorySchemaError, r": provenance tool_version must be a string$"),
    ("created_at", 5, TrajectorySchemaError, r": provenance created_at must be a string$"),
]


@pytest.mark.parametrize("key, value, error, message", _BAD_PROVENANCE,
                         ids=[f"{key} {value!r}" for key, value, *_ in _BAD_PROVENANCE])
def test_provenance_fields_are_checked_in_both_formats(tmp_path, key, value, error, message):
    with pytest.raises(error, match=r"wp\.json" + message):
        load_waypoints(_waypoints_doc(tmp_path, provenance={"source_name": "h", key: value}))
    path = _relabel_lines(tmp_path, [_row(0, EE_STATE, EE_STATE)])
    record = json.loads(path.read_text())
    record["provenance"][key] = value
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(error, match=r"r\.jsonl: line 1" + message):
        load_relabeled(path)


def test_provenance_metric_loads_as_the_metric_saved(tmp_path):
    metric = MetricConfig(position_weight=2.0, orientation_weight=0.0, joint_mask=(1.0, 0.5))
    save_waypoints(tmp_path / "wp.json", WaypointSet((0, 3, 9)), {"source_name": "h", "metric": metric})
    assert load_waypoints(tmp_path / "wp.json")[1]["metric"] == metric
    save_relabeled(tmp_path / "r.jsonl", relabel_trajectory(make_random_walk_trajectory(np.random.default_rng(0), 6),
                                                            WaypointSet((0, 5))), metric=metric)
    assert load_relabeled(tmp_path / "r.jsonl")[1]["metric"] == metric


def test_waypoints_budget_must_be_positive(tmp_path):
    with pytest.raises(TrajectoryValidationError, match=r"wp\.json: eta_used must be a positive finite scalar$"):
        load_waypoints(_waypoints_doc(tmp_path, eta=0))


@pytest.mark.parametrize("source_name", [None, 5, ["x"]])
def test_save_waypoints_refuses_a_non_string_source_name(tmp_path, source_name):
    # once written as the text "None", "5" or "['x']" and read back as a name
    path = tmp_path / "wp.json"
    with pytest.raises(ValueError, match=r"provenance source_name must be a string"):
        save_waypoints(path, WaypointSet((0, 3, 9)), {"source_name": source_name})
    assert not path.exists()


JOINT_STATE = {"joints": [0.0, 1.0, 2.0]}


@pytest.mark.parametrize("fmt, kind, state, message", [
    # a trajectory frame is its own state
    ("trajectory", "ee", dict(EE_STATE, joints=[0.0, 1.0]), r"\.frames\[3\]: joint state in a file of end-effector states$"),
    ("trajectory", "ee", {"joints": [0.0, 1.0]}, r"\.frames\[3\]: joint state in a file of end-effector states$"),
    ("trajectory", "joint", dict(JOINT_STATE, pos=[0.0, 0.0, 0.0]),
     r"\.frames\[3\]: end-effector state in a file of joint states$"),
    # a relabel record's states; the first state's kind is the file's
    ("relabel", "joint", dict(JOINT_STATE, pos=[0.0, 0.0, 0.0]),
     r"line 2\.state: end-effector state in a file of joint states$"),
    ("relabel", "ee", dict(EE_STATE, joints=[0.0]), r"line 2\.state: joint state in a file of end-effector states$"),
    ("relabel", "joint", {}, r"line 2\.state: missing field 'joints'$"),
], ids=["ee-frame-both", "ee-frame-joints-only", "joint-frame-both", "relabel-joint-both", "relabel-ee-both",
        "relabel-joint-neither"])
def test_a_state_with_the_other_kinds_field_is_a_schema_error(tmp_path, fmt, kind, state, message):
    with pytest.raises(TrajectorySchemaError, match=message):
        if fmt == "relabel":
            first = EE_STATE if kind == "ee" else JOINT_STATE
            load_relabeled(_relabel_lines(tmp_path, [_row(0, first, first), _row(1, state, first)]))
        else:
            doc = _demo_doc(kind)
            doc["frames"][3] = {"t": 3, **state}
            load_trajectory(write(tmp_path, doc))


# Every value a leaf mutation writes; DELETE removes the key or list entry.
MUTANTS = [DELETE, None, True, "x", [], {}, [1.0], 0, -1, 1.5, 1e308, 10**400, float("nan"), float("inf"), 2**63,
           JOINT_STATE, EE_STATE]


def _paths(node, path=()):
    """Every path below a JSON value, each parent before its children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _file_text(doc) -> str:
    """A trajectory document's file text, or a relabel file's for a list of records."""
    return "".join(json.dumps(r) + "\n" for r in doc) if isinstance(doc, list) else json.dumps(doc)


@pytest.mark.parametrize("fmt", ["trajectory", "relabel"])
@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_leaf_mutations_load_or_raise_a_located_file_error(tmp_path, fmt, kind):
    # a fixed enumeration: every path of the file, each set to every value of MUTANTS
    if fmt == "trajectory":
        base, loader = _demo_doc(kind), load_trajectory
    else:
        relabeled = tmp_path / "source.jsonl"
        traj = load_trajectory(write(tmp_path, _demo_doc(kind)))
        save_relabeled(relabeled, relabel_trajectory(traj, WaypointSet((0, 2, 5))))
        base, loader = [json.loads(line) for line in relabeled.read_text().splitlines()], load_relabeled
    text = json.dumps(base)
    path = tmp_path / f"mutant-{fmt}-{kind}"
    escaped = []
    for where in _paths(base):
        for value in MUTANTS:
            doc = json.loads(text)
            _set(doc, where, value)
            path.write_text(_file_text(doc))
            try:
                loader(path)
            except TrajectoryFileError as exc:
                if str(path) not in str(exc):
                    escaped.append((where, value, f"unlocated: {exc}"))
            except Exception as exc:  # anything else escaping is the fault this test looks for
                escaped.append((where, value, f"{type(exc).__name__}: {exc}"))
    assert not escaped, escaped[:5]


# ---------------------------------------------------------------------------
# metric configs
# ---------------------------------------------------------------------------


def test_metric_round_trip():
    cfg = MetricConfig(position_weight=2.0, orientation_weight=0.5, include_gripper=True, joint_mask=(1.0, 0.0))
    assert metric_from_dict(metric_to_dict(cfg)) == cfg


def test_metric_unknown_field_rejected(tmp_path):
    path = write(tmp_path, {"position_weight": 1.0, "velocity_weight": 1.0}, "m.json")
    with pytest.raises(TrajectorySchemaError, match="unknown"):
        load_metric_config(path)


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def test_plot_data_header_and_collinearity(tmp_path):
    traj = ee_trajectory([(float(t), 0.0, 0.0) for t in range(6)])
    results = sweep_eta(traj, [0.5])
    path = tmp_path / "plot.csv"
    emit_plot_data(traj, results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == PLOT_HEADER == "eta,kind,t,x,y,z"
    rows = [l.split(",") for l in lines[1:]]
    recon = [r for r in rows if r[1] == "reconstructed"]
    # 1 chord, >= 10 samples per chord
    assert len(recon) >= 11
    for r in recon:
        assert abs(float(r[4])) < 1e-12 and abs(float(r[5])) < 1e-12
    kinds = {r[1] for r in rows}
    assert kinds == {"original", "reconstructed", "waypoint"}


def test_plot_data_waypoint_rows_nondecreasing(tmp_path, rng):
    traj = make_segmented_ee_trajectory(rng, n_segments=4, name="p")
    results = sweep_eta(traj, [0.05, 0.01, 0.005])
    path = tmp_path / "plot.csv"
    emit_plot_data(traj, results, path)
    rows = [l.split(",") for l in path.read_text().splitlines()[1:]]
    counts = []
    for eta, _ in results:
        counts.append(sum(1 for r in rows if r[1] == "waypoint" and float(r[0]) == eta))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


PLOT_CASES = {
    "ee": lambda rng: make_segmented_ee_trajectory(rng, n_segments=4, name="p"),
    "joint-2d": lambda rng: make_random_walk_trajectory(rng, 40, "joint", joint_dim=2),
    "joint-7d": lambda rng: make_random_walk_trajectory(rng, 40, "joint", joint_dim=7),
    "gappy-t": lambda rng: Trajectory.from_columns(
        "gappy", "ee", 10.0, np.r_[0, np.cumsum(rng.integers(1, 9, size=29))],
        pos=-rng.normal(size=(30, 3)) * [1.0, 0.0, 1e-3], grip=np.zeros(30), axis_angle=rng.normal(size=(30, 3)),
    ),
}


@pytest.mark.parametrize("case", sorted(PLOT_CASES))
def test_plot_data_matches_per_sample_writer(tmp_path, rng, case):
    traj = PLOT_CASES[case](rng)
    etas = [2.0, 0.5, 0.05, 0.005] if traj.joints is not None else [0.05, 0.01, 0.001]
    results = sweep_eta(traj, etas)
    emit_plot_data(traj, results, tmp_path / "new.csv")
    oracle_plot_data(traj, results, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_plot_data_rejects_empty_sweep(tmp_path, rng):
    traj = make_random_walk_trajectory(rng, 5)
    with pytest.raises(ValueError):
        emit_plot_data(traj, [], tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# task defaults
# ---------------------------------------------------------------------------


def test_builtin_defaults_table():
    assert load_task_defaults() == TASK_ETA_DEFAULTS
    assert resolve_task_eta("lift") == 0.005
    assert resolve_task_eta("coffee-making") == 0.008


def test_unknown_task_lists_known():
    with pytest.raises(ValueError, match="cube-transfer"):
        resolve_task_eta("juggling")


def test_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps({"lift": 0.5, "custom": 0.125}))
    monkeypatch.setenv(ENV_TASK_DEFAULTS, str(alt))
    assert resolve_task_eta("lift") == 0.5
    assert resolve_task_eta("custom") == 0.125
    with pytest.raises(ValueError):
        resolve_task_eta("can")


def test_env_override_validates(tmp_path, monkeypatch):
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps({"lift": -1.0}))
    monkeypatch.setenv(ENV_TASK_DEFAULTS, str(alt))
    with pytest.raises(ValueError, match="positive finite scalar"):
        load_task_defaults()
