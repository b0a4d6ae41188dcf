"""Run one workload: set up, measure passes, check outputs, report metrics.

The load is a closed loop: one caller in one process on one thread sends the
next `wpx` call only when the previous one has returned. Every call goes
through waypoint_extraction.cli.main in-process with stdout and stderr
captured, so the timed path is the whole user path: argument parsing,
directory listing, load, solve, write and printing.

Untraced passes give the end-to-end metrics. With tracing on, traced and
untraced passes alternate: the traced ones give the per-layer metrics and
the difference between the two kinds is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from waypoint_extraction import cli

from .checks import digest
from .tracing import LAYER_METRICS, Tracer
from .workloads import FULL, WORKLOADS, Size

SETUP_REPEATS = 5
WORK_DIR = ".wpxbench"
DIGEST_FILE = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 0

END_TO_END_UNITS = {"frames_per_s": "frames/s", "peak_rss_mb": "MB", "setup_s": "s"}
COUNT_UNITS = ("count", "bytes")
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]


def _tree_hash(d: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(d)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _hash(blob: bytes | None) -> str | None:
    return None if blob is None else hashlib.sha256(blob).hexdigest()


def _call(argv: list[str], tracer: Tracer | None) -> tuple[int, float, str, str]:
    """One `wpx` call: (exit code, wall seconds, stdout, stderr). A call that
    raises or exits through argparse counts as a failed call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv) if tracer is None else tracer.call("cli", cli.main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            traceback.print_exc()
        wall = time.perf_counter() - start
    return rc, wall, out.getvalue(), err.getvalue()


def _setup(wl, work: Path) -> tuple[float, Path]:
    """Generate and write the inputs and run the warm-up call, SETUP_REPEATS
    times into fresh directories; the repeats must write identical inputs."""
    times, hashes = [], set()
    for k in range(SETUP_REPEATS):
        d = work / f"setup{k}"
        gc.collect()
        start = time.perf_counter()
        wl.write_inputs(d)
        for argv in wl.warm_calls(d):
            rc, _, _, err = _call(argv, None)
            if rc != 0:
                raise RuntimeError(f"warm-up call {argv[0]} exited {rc}: {err.strip()}")
        times.append(time.perf_counter() - start)
        hashes.add(_tree_hash(d / "in"))
    if len(hashes) != 1:
        raise RuntimeError("the same seed generated different inputs")
    return statistics.median(times), d


def _run_pass(wl, d: Path, traced: bool) -> dict:
    shutil.rmtree(d / "out", ignore_errors=True)
    (d / "out").mkdir()
    gc.collect()
    tracer = Tracer() if traced else None
    calls = {}
    if tracer is not None:
        tracer.install()
    try:
        for label, argv in wl.calls(d):
            calls[label] = _call(argv, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    stdout = {label: c[2] for label, c in calls.items()}
    failed = set()
    for label, (rc, _, _, err) in calls.items():
        named = {
            line.split()[1].rstrip(":").removesuffix(".json")
            for line in err.splitlines()
            if line.startswith("FAILED ") and len(line.split()) > 1
        }
        failed |= named if named or rc == 0 else set(wl.call_ops(label))
    return {
        "traced": traced,
        "walls": {label: c[1] for label, c in calls.items()},
        "stdout": stdout,
        "stderr": {label: c[3] for label, c in calls.items() if c[3]},
        "outputs": {op: _hash(wl.op_output(d, op, stdout)) for op in wl.ops},
        "failed": failed,
        "tracer": tracer,
    }


def _measure(wl, d: Path, seconds: float, trace: bool) -> list[dict]:
    """Passes while the next one is expected to end within `seconds` (by the
    median pass so far), and at least one of each kind."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(_run_pass(wl, d, traced))
        kinds = {p["traced"] for p in passes}
        expected = statistics.median(sum(p["walls"].values()) for p in passes)
        if time.perf_counter() - start + expected > seconds and len(kinds) == (2 if trace else 1):
            return passes


def _recorded_digests(name: str, seed: int, size: Size) -> dict | None:
    if seed != DEFAULT_SEED or size != FULL or not DIGEST_FILE.is_file():
        return None
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8")).get(name)


def _check(wl, d: Path, last: dict, recorded: dict | None) -> tuple[dict[str, list[str]], dict[str, str]]:
    """Per-op problems of the last pass's outputs, and per-op index digests."""
    problems, digests = {}, {}
    for op in wl.ops:
        if op in last["failed"] or last["outputs"][op] is None:
            problems[op] = ["no output"]
            continue
        try:
            found, payload = wl.check_op(d, op, last["stdout"])
        except (OSError, ValueError) as exc:
            found, payload = [f"output unreadable: {exc}"], None
        digests[op] = digest(payload)
        if recorded is not None and recorded.get(op) != digests[op]:
            found = found + [f"index digest {digests[op]} != recorded {recorded.get(op)}"]
        problems[op] = found
    return problems, digests


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, size: Size = FULL, emit=print) -> dict:
    """Run one workload in this process and return the result object; human
    readable lines go to emit. Inputs and outputs live under root/.wpxbench
    and are removed at the end; the spans of a traced run are written there."""
    wl = WORKLOADS[name](size, seed)
    work = root / WORK_DIR / f"{name}-seed{seed}-work"
    recorded = _recorded_digests(name, seed, size)
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, d = _setup(wl, work)
        passes = _measure(wl, d, seconds, trace)
        problems, digests = _check(wl, d, passes[-1], recorded)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for p in passes:
        for op in wl.ops:
            attempted += 1
            bad = op in p["failed"] or problems[op] or p["outputs"][op] != passes[-1]["outputs"][op]
            failed += bool(bad)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    frames_per_s = statistics.median(wl.frames / sum(p["walls"].values()) for p in plain)
    end_to_end = {
        "frames_per_s": frames_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }

    emit(f"workload {name} seed {seed}: {len(wl.ops)} ops, {wl.frames} frames per pass, "
         f"{len(plain)} untraced and {len(traced)} traced passes")
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            emit(f"pass walls {kind}: " + " ".join(f"{sum(p['walls'].values()):.3f}" for p in group) + " s")
    for metric, value in end_to_end.items():
        emit(f"metric {metric} {value:.6g} {END_TO_END_UNITS[metric]}")
    for metric, value, unit in wl.extra_metrics([p["walls"] for p in plain]):
        emit(f"metric {metric} {value:.6g} {unit}")
    emit(f"metric op_failure_ratio {failed / attempted:.6g} ratio (ops_attempted {attempted}, failed {failed})")
    for op in wl.ops:
        status = "ok" if not problems[op] else "REJECTED " + "; ".join(problems[op])
        emit(f"check {op}: {status} digest {digests.get(op, '-')}")
    if recorded is None:
        emit(f"check digests: none recorded for seed {seed}")
    for p in passes:
        for label, err in p["stderr"].items():
            emit(f"stderr {label}: {err.strip()}")

    if trace:
        metrics = _layer_metrics(name, seed, root, traced, plain, emit)
    else:
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in end_to_end.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(name: str, seed: int, root: Path, traced: list[dict], plain: list[dict], emit) -> dict:
    """Median over traced passes of each per-layer metric, plus the tracing
    overhead; writes every traced pass's spans to root/.wpxbench."""
    per_pass = [p["tracer"].layer_metrics() for p in traced]
    metrics = {}
    for m, unit, _ in LAYER_METRICS:
        value = statistics.median(pp[m] for pp in per_pass)
        metrics[m] = {"value": int(value) if unit in COUNT_UNITS and value == int(value) else value, "unit": unit}
    traced_wall = statistics.median(sum(p["walls"].values()) for p in traced)
    plain_wall = statistics.median(sum(p["walls"].values()) for p in plain)
    overhead = {"trace.overhead_s": traced_wall - plain_wall, "trace.overhead_ratio": (traced_wall - plain_wall) / plain_wall}
    for m, unit in TRACE_METRICS:
        metrics[m] = {"value": overhead[m], "unit": unit}
    for m, entry in metrics.items():
        value = entry["value"]
        emit(f"layer {m} {value if isinstance(value, int) else format(value, '.6g')} {entry['unit']}")
    absent = sorted({a for p in traced for a in p["tracer"].absent})
    if absent:
        emit(f"layer hooks absent (their metrics read 0): {' '.join(absent)}")
    counts_repeat = all(
        pp[m] == per_pass[0][m] for pp in per_pass for m, unit, _ in LAYER_METRICS if unit == "count"
    )
    emit(f"layer counts identical across traced passes: {counts_repeat}")
    out = root / WORK_DIR / f"trace-{name}-seed{seed}.json"
    doc = {
        "workload": name,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "request"],
        "absent_hooks": absent,
        "passes": [{"spans": p["tracer"].spans, "counts": dict(p["tracer"].counts)} for p in traced],
    }
    out.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    emit(f"trace spans -> {out}")
    return metrics
