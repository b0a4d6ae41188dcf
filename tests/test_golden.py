"""Byte-level golden outputs of the CLI on two small fixed demos.

The digests pin the generated inputs, the `extract` and `relabel` files
written with --no-timestamp, the `compare` table, the `stats` report
(minus its wall time) and the `sweep` report with its plot data for an
end-effector demo and a joint-space demo read with a masked metric. A
refactor that keeps behaviour keeps every digest; an intended numerical
change must update them and say why.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from waypoint_extraction.cli import EXIT_OK, main
from waypoint_extraction.state_space import StateKind
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory
from waypoint_extraction.trajfile import save_trajectory

DEMOS = {
    "ee": dict(eta=0.005, etas="0.02,0.005,0.001", metric=None),
    "joint": dict(eta=1.2, etas="0.6,1.2,2.4", metric={"joint_mask": [1.0, 0.0, 2.0, 1.0, 0.5]}),
}

GOLDEN = {
    "ee": {
        "input": "2e59703a33d1fc01",
        "extract": "3404170f7a3d2254",
        "relabel": "efe5a42f5d68e517",
        "compare": "ce04b8b47c4f093e",
        "stats": "35c443385294f705",
        "sweep": "a8cbebeca8cec0b3",
    },
    "joint": {
        "input": "4a932b0b16058c5f",
        "extract": "ebe5854aeaad15e6",
        "relabel": "54d1e4b9250ec4ae",
        "compare": "9f187135f3773920",
        "stats": "e863911afb8f935c",
        "sweep": "fb56d68af084f318",
    },
}


def _demo(kind):
    if kind == "ee":
        rng = np.random.default_rng(5)
        return make_segmented_ee_trajectory(rng, n_segments=3, frames_per_segment=[30, 25, 35], name="golden-ee")
    rng = np.random.default_rng(6)
    return make_random_walk_trajectory(rng, 60, StateKind.JOINT, name="golden-joint", joint_dim=5)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _outputs(kind, tmp_path, capsys) -> dict[str, str]:
    spec = DEMOS[kind]
    demo_dir = tmp_path / "in"
    demo_dir.mkdir()
    demo = demo_dir / f"{kind}.json"
    save_trajectory(demo, _demo(kind))
    metric_args = []
    if spec["metric"] is not None:
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps(spec["metric"]))
        metric_args = ["--metric-config", str(metric)]
    common = ["--eta", str(spec["eta"]), *metric_args]
    out = {"input": _sha(demo.read_bytes())}
    wp = tmp_path / "wp.json"
    assert main(["extract", "--input", str(demo), "--output", str(wp), "--no-timestamp", *common]) == EXIT_OK
    out["extract"] = _sha(wp.read_bytes())
    rel = tmp_path / "rel"
    assert main(["relabel", "--input", str(demo_dir), "--output", str(rel), "--no-timestamp", *common]) == EXIT_OK
    out["relabel"] = _sha((rel / f"{kind}.relabeled.jsonl").read_bytes())
    capsys.readouterr()
    assert main(["compare", "--input", str(demo), *common]) == EXIT_OK
    out["compare"] = _sha(capsys.readouterr().out.encode())
    assert main(["stats", "--input", str(demo), *common]) == EXIT_OK
    stats = re.sub(r"wall_time=\S+", "wall_time=", capsys.readouterr().out)
    out["stats"] = _sha(stats.encode())
    plot = tmp_path / "sweep.csv"
    assert main(["sweep", "--input", str(demo), "--etas", spec["etas"], "--plot-out", str(plot), *metric_args]) == EXIT_OK
    report = capsys.readouterr().out.replace(str(plot), "sweep.csv")
    out["sweep"] = _sha(report.encode() + plot.read_bytes())
    return out


@pytest.mark.parametrize("kind", sorted(DEMOS))
def test_cli_outputs_match_golden_digests(kind, tmp_path, capsys):
    assert _outputs(kind, tmp_path, capsys) == GOLDEN[kind]
