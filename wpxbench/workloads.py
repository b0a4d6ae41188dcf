"""The benchmark's workloads: seeded inputs, the `wpx` calls, output checks.

Each workload writes its inputs into a directory from the seed alone, names
the `wpx` command lines one pass runs, and checks what a pass left behind.
An operation is one input file (relabel_corpus, compare_corpus) or one
extract call (long_extract).

Why these three:
  relabel_corpus  the dataset-preprocessing job users run; the only workload
                  that exercises `relabel` and the relabel writer, with no
                  replay. Per-file parallelism and load/decode gains show here.
  long_extract    one `extract` on each of three long demos; the solver and
                  the chord scorer take nearly all the time and the O(T^2)
                  screening shows as T grows. The masked joint demo is the
                  input under which position-based pruning must not apply.
  compare_corpus  the only workload with heuristic calibration, loss
                  annotation and kinematic replay (tick loop and deviation
                  scoring).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from waypoint_extraction.state_space import MetricConfig
from waypoint_extraction.synthetic import make_segmented_ee_trajectory
from waypoint_extraction.trajfile import (
    load_relabeled,
    load_trajectory,
    load_waypoints,
    metric_to_dict,
    save_trajectory,
)

from . import checks, jointgen

ETA = 0.005
COMPARE_METHODS = ("awe", "zero-vel", "fixed")


@dataclass(frozen=True)
class Size:
    """Input sizes. Corpus demos have segments_range segments (upper bound
    exclusive) of segment_frames_range frames each, by default the package
    recipe of 4 to 8 segments of 40 to 80 frames."""

    relabel_demos: int
    compare_demos: int
    ee_demos: tuple[tuple[str, int], ...]
    joint_demo: tuple[str, int]
    frames_per_segment: int = 62
    segments_range: tuple[int, int] = (4, 9)
    segment_frames_range: tuple[int, int] = (40, 81)


# A 20-demo corpus keeps a relabel pass at 7 to 11 s, so a run holds several
# passes: 7,638 frames. The compare corpus is 10 demos, 4,422 frames.
FULL = Size(
    relabel_demos=20,
    compare_demos=10,
    ee_demos=(("ee_T1000", 16), ("ee_T4000", 64)),
    joint_demo=("joint_T2000", 32),
)
TOY = Size(
    relabel_demos=2,
    compare_demos=2,
    ee_demos=(("ee_T1000", 2), ("ee_T4000", 3)),
    joint_demo=("joint_T2000", 2),
    frames_per_segment=20,
    segments_range=(2, 3),
    segment_frames_range=(20, 21),
)

# Segment lengths of the corpus demos are drawn once from this fixed seed, so
# every benchmark seed yields the same frame counts and only the geometry and
# the jitter change with the seed. Work per pass then does not depend on the
# seed, and the spread across seeded runs measures the program.
STRUCTURE_SEED = 20230726


def _corpus(rng, n: int, prefix: str, size: Size):
    """n demos of the segmented end-effector recipe, geometry and jitter
    drawn from rng."""
    layout = np.random.default_rng(STRUCTURE_SEED)
    schedule = [
        [int(layout.integers(*size.segment_frames_range)) for _ in range(int(layout.integers(*size.segments_range)))]
        for _ in range(n)
    ]
    return [
        make_segmented_ee_trajectory(
            rng, eta=ETA, n_segments=len(segs), frames_per_segment=segs, name=f"{prefix}-{k:03d}"
        )
        for k, segs in enumerate(schedule)
    ]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class Workload:
    """Common layout: inputs in <dir>/in, outputs in <dir>/out, and one small
    demo in <dir>/warm for the warm-up call."""

    name = ""

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seed = seed
        self.ops: list[str] = []
        self.frames = 0

    def write_inputs(self, d: Path) -> None:
        (d / "in").mkdir(parents=True)
        (d / "warm").mkdir()
        warm = make_segmented_ee_trajectory(_rng(self.seed, 99), eta=ETA, n_segments=2, frames_per_segment=20, name="warm")
        save_trajectory(d / "warm" / "warm.json", warm)
        trajs = self._generate()
        for traj in trajs:
            save_trajectory(d / "in" / f"{traj.name}.json", traj)
        self.ops = [t.name for t in trajs]
        self.frames = sum(len(t) for t in trajs)

    def _generate(self):
        raise NotImplementedError

    def calls(self, d: Path) -> list[tuple[str, list[str]]]:
        """(label, argv) of the `wpx` calls of one pass, in order."""
        raise NotImplementedError

    def warm_calls(self, d: Path) -> list[list[str]]:
        raise NotImplementedError

    def call_ops(self, label: str) -> list[str]:
        """The ops one call covers."""
        return list(self.ops)

    def _out(self, d: Path, op: str) -> Path:
        raise NotImplementedError

    def op_output(self, d: Path, op: str, stdout: dict[str, str]) -> bytes | None:
        """What one op left behind in a pass, to compare passes."""
        path = self._out(d, op)
        return path.read_bytes() if path.is_file() else None

    def check_op(self, d: Path, op: str, stdout: dict[str, str]) -> tuple[list[str], object]:
        """(problems, digest payload) for one op of the last pass."""
        raise NotImplementedError

    def extra_metrics(self, walls: list[dict[str, float]]) -> list[tuple[str, float, str]]:
        """Workload-specific end-to-end figures from per-pass call walls."""
        return []


class RelabelCorpus(Workload):
    name = "relabel_corpus"

    def _generate(self):
        return _corpus(_rng(self.seed, 0), self.size.relabel_demos, "demo", self.size)

    def _argv(self, d: Path, src: str, dst: str) -> list[str]:
        return ["relabel", "--input", str(d / src), "--eta", str(ETA), "--output", str(d / dst), "--no-timestamp"]

    def calls(self, d):
        return [("relabel", self._argv(d, "in", "out"))]

    def warm_calls(self, d):
        return [self._argv(d, "warm", "warm_out")]

    def _out(self, d: Path, op: str) -> Path:
        return d / "out" / f"{op}.relabeled.jsonl"

    def check_op(self, d, op, stdout):
        traj = load_trajectory(d / "in" / f"{op}.json")
        dataset, _ = load_relabeled(self._out(d, op))
        problems = checks.check_relabeled(traj, dataset, ETA, MetricConfig())
        return problems, checks.relabeled_waypoints(traj, dataset)

    def extra_metrics(self, walls):
        rows = self.frames - len(self.ops)
        return [("relabel_rows_per_s", statistics.median([rows / w["relabel"] for w in walls]), "rows/s")]


class LongExtract(Workload):
    name = "long_extract"
    METRIC_FILE = "joint_metric.json"

    def _generate(self):
        size = self.size
        trajs = [
            make_segmented_ee_trajectory(
                _rng(self.seed, stream), eta=ETA, n_segments=segments, frames_per_segment=size.frames_per_segment, name=name
            )
            for stream, (name, segments) in enumerate(size.ee_demos, start=1)
        ]
        name, segments = size.joint_demo
        trajs.append(jointgen.make_joint_demo(_rng(self.seed, 10), segments, size.frames_per_segment, ETA, name))
        return trajs

    def write_inputs(self, d):
        super().write_inputs(d)
        doc = metric_to_dict(self.joint_metric())
        (d / self.METRIC_FILE).write_text(json.dumps(doc) + "\n", encoding="utf-8")

    @staticmethod
    def joint_metric() -> MetricConfig:
        return MetricConfig(joint_mask=tuple(jointgen.joint_metric_mask()))

    def _is_joint(self, op: str) -> bool:
        return op == self.size.joint_demo[0]

    def _argv(self, d: Path, src: Path, dst: Path, joint: bool) -> list[str]:
        argv = ["extract", "--input", str(src), "--eta", str(ETA), "--output", str(dst), "--no-timestamp"]
        if joint:
            argv += ["--metric-config", str(d / self.METRIC_FILE)]
        return argv

    def _out(self, d: Path, op: str) -> Path:
        return d / "out" / f"{op}.wp.json"

    def calls(self, d):
        return [(op, self._argv(d, d / "in" / f"{op}.json", self._out(d, op), self._is_joint(op))) for op in self.ops]

    def warm_calls(self, d):
        return [self._argv(d, d / "warm" / "warm.json", d / "warm" / "warm.wp.json", False)]

    def call_ops(self, label):
        return [label]

    def check_op(self, d, op, stdout):
        traj = load_trajectory(d / "in" / f"{op}.json")
        wp, _ = load_waypoints(self._out(d, op))
        metric = self.joint_metric() if self._is_joint(op) else MetricConfig()
        problems = checks.check_waypoints(traj, wp.indices, ETA, metric)
        if wp.eta_used != ETA:
            problems.append(f"eta {wp.eta_used!r} recorded, {ETA!r} asked")
        return problems, list(wp.indices)

    def extra_metrics(self, walls):
        return [(f"extract_{op}_s", statistics.median([w[op] for w in walls]), "s") for op in self.ops]


class CompareCorpus(Workload):
    name = "compare_corpus"

    def _generate(self):
        return _corpus(_rng(self.seed, 20), self.size.compare_demos, "cmp", self.size)

    def _argv(self, d: Path, src: str) -> list[str]:
        return ["compare", "--input", str(d / src), "--eta", str(ETA), "--methods", ",".join(COMPARE_METHODS)]

    def calls(self, d):
        return [("compare", self._argv(d, "in"))]

    def warm_calls(self, d):
        return [self._argv(d, "warm")]

    def op_output(self, d, op, stdout):
        rows = [line for line in stdout.get("compare", "").splitlines() if line.split()[:1] == [op]]
        return "\n".join(rows).encode() if rows else None

    def check_op(self, d, op, stdout):
        rows = checks.parse_compare_table(stdout.get("compare", ""))
        problems = checks.check_compare_rows(rows, op, COMPARE_METHODS, ETA)
        return problems, sorted([r[1], r[2]] for r in rows if r[0] == op)

    def extra_metrics(self, walls):
        return [("compare_frames_per_s", statistics.median([self.frames / w["compare"] for w in walls]), "frames/s")]


WORKLOADS = {cls.name: cls for cls in (RelabelCorpus, LongExtract, CompareCorpus)}
