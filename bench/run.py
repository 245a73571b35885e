"""bikepls benchmark: cold CLI processes on seeded synthetic inputs.

    python3 bench/run.py --workload derive_region --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the harness writes the workload's inputs from the seed,
then runs its command sequence as cold ``python -m bikepls.cli`` processes,
one after another (a closed loop with one client), for ``--seconds``.
Every sequence runs in a fresh directory and every output is checked.
Child CPU time and peak memory come from ``os.wait4``.

The harness and every process it starts run on one CPU, and every time is
scaled to a reference CPU speed measured on that CPU while the time was
taken (see ``SpeedProbe``). The unscaled times are kept in the result file.

With ``--trace 1`` it runs each command of all four workloads once more, in
process and wrapped by ``tracer.py``, and reports per-layer self times and
counts summed over the four sequences. Each layer is reached by only some
workloads; tracing all four means every per-layer metric is read on the
workload it is meant to move. ``--workload`` then selects the workload whose
traced and untraced wall times give ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with the machine, the per-command times and every per-workload breakdown,
goes to ``bench/results/``. ``bench/compare.py`` compares two sets of those.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / ".work"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
from workloads import WORKLOADS, Case, Step  # noqa: E402

SETUP_REPEATS = 3
# SpeedProbe: a fixed loop timed every PROBE_INTERVAL_S, and its time at the
# reference speed, about its fastest on a 2-vCPU Intel Xeon (Sapphire
# Rapids) VM under KVM with Python 3.11.
PROBE_LOOP = 10_000
PROBE_INTERVAL_S = 0.025
PROBE_REF_S = 0.625e-3
PROBE_MIN_SAMPLES = 10
# When the host is busy the commands slow down more than the probe loop: a
# command's time went with the loop's time to a power of 1.0 to 1.7, fitted
# over minutes of back-to-back commands of every workload on the machine
# above. The scale factor uses a power in between.
PROBE_EXPONENT = 1.25
# A child that runs longer than this is killed and counted as failed, so a
# hung command cannot hold the run past its time limit.
CHILD_TIMEOUT_S = 120.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child(NamedTuple):
    """Exit code, start, wall time, CPU time and peak memory of one child
    process."""

    rc: int
    started: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class SpeedProbe:
    """Samples the speed of the CPU that the benchmark runs on, while it runs.

    On a shared host a CPU's speed can change by half from one second to the
    next, and stay changed for minutes: long enough that a whole run is fast
    or slow. A thread of the harness, pinned to the same CPU as the commands
    (see ``pin_to_one_cpu``), times a fixed loop every ``PROBE_INTERVAL_S``.
    A time taken over an interval is scaled by ``PROBE_REF_S`` times the
    mean loop speed (one over the loop's time) within it, to the power
    ``PROBE_EXPONENT``, which removes most of that drift. The loop is timed
    in thread CPU time, so waiting for the commands' own threads does not
    count as slowness. It costs the commands about 3% of the CPU.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while not self._samples:
            time.sleep(PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            start, cpu = time.perf_counter(), time.thread_time()
            total = 0
            for i in range(PROBE_LOOP):
                total += i * i
            self._samples.append((start, time.thread_time() - cpu))
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def scale(self, start: float, end: float) -> float:
        """The factor that brings a time taken from start to end to the
        reference speed."""
        samples = list(self._samples)
        inside = [d for t, d in samples if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:PROBE_MIN_SAMPLES]]
        return (PROBE_REF_S * statistics.fmean(1.0 / d for d in inside)) ** PROBE_EXPONENT


def pin_to_one_cpu() -> int:
    """Run this process, and so every child, on the first CPU it may use,
    the CPU whose speed ``SpeedProbe`` samples."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(argv: list[str], cwd: Path, stderr_path: Path) -> Child:
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
            if status is None:  # interrupted: do not leave the child behind
                proc.kill()
                proc.wait()
        wall_s = time.perf_counter() - start
    # os.wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return Child(proc.returncode, start, wall_s, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "bikepls.cli"] + argv


def _stderr_tail(path: Path, limit: int = 300) -> str:
    text = path.read_text(errors="replace").strip() if path.exists() else ""
    return text[-limit:]


def _run_step(step: Step, child: Child, seq_dir: Path) -> list[str]:
    if child.rc != step.expect_rc:
        return [f"{step.metric}: exit {child.rc}, expected {step.expect_rc}: "
                f"{_stderr_tail(seq_dir / 'stderr.txt')}"]
    return step.check()


def warm_import(directory: Path) -> None:
    """Compile bytecode and fill the file cache before anything is timed."""
    child = run_child(_cli(["--help"]), directory, directory / "warmup.stderr")
    if child.rc != 0:
        raise SystemExit(f"cannot run bikepls.cli: {_stderr_tail(directory / 'warmup.stderr')}")


def setup(workload: str, seed: int, work: Path, name: str) -> tuple[Case, float]:
    directory = work / name
    directory.mkdir()
    start = time.perf_counter()
    case = WORKLOADS[workload].setup(seed, directory)
    warm_import(work)
    return case, time.perf_counter() - start


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return {"percentile": math.floor(100 * (i + 1) / n), "value": sorted(samples)[i]}


def summarize(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "samples": len(samples),
            "tail": tail_percentile(samples)}


def timed_run(workload: str, seed: int, seconds: float, work: Path, probe: SpeedProbe) -> dict:
    setups, raw_setups = [], []
    for i in range(SETUP_REPEATS):
        began = time.perf_counter()
        case, elapsed = setup(workload, seed, work, f"inputs{i}")
        setups.append(elapsed * probe.scale(began, began + elapsed))
        raw_setups.append(elapsed)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(case.directory)

    sequences, commands, raw_commands, problems = [], {}, {}, []
    attempted = failed = 0
    start = time.perf_counter()
    longest = 0.0
    # Start a sequence only while the longest one so far would still end
    # within --seconds, so that a run lasts no longer than asked.
    while not sequences or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        seq_dir = work / f"seq{len(sequences)}"
        seq_dir.mkdir()
        children, scales = [], []
        for step in WORKLOADS[workload].steps(case, seq_dir):
            child = run_child(_cli(step.argv), seq_dir, seq_dir / "stderr.txt")
            scale = probe.scale(child.started, child.started + child.wall_s)
            children.append(child)
            scales.append(scale)
            commands.setdefault(step.metric, []).append(child.wall_s * scale)
            raw_commands.setdefault(step.metric, []).append(child.wall_s)
            found = _run_step(step, child, seq_dir)
            attempted += 1
            failed += bool(found)
            problems += found
        shutil.rmtree(seq_dir)
        longest = max(longest, time.perf_counter() - began)
        sequences.append({
            "wall_s": sum(c.wall_s * k for c, k in zip(children, scales)),
            "cpu_s": sum(c.cpu_s * k for c, k in zip(children, scales)),
            "peak_rss_mb": max(c.peak_rss_mb for c in children),
            "raw_wall_s": sum(c.wall_s for c in children),
            "raw_cpu_s": sum(c.cpu_s for c in children),
            "scales": scales,
        })

    wall = statistics.median(s["wall_s"] for s in sequences)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(s["cpu_s"] for s in sequences),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sequences),
        "throughput_rows_per_s": case.rows / wall,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "sequences": sequences,
        "rows_per_sequence": case.rows,
        "commands": {name: summarize(samples) for name, samples in commands.items()},
        "raw_commands": {name: summarize(samples) for name, samples in raw_commands.items()},
    }


def _traced_command(step: Step, seq_dir: Path, trace: bool) -> dict:
    out = seq_dir / "trace.json"
    argv = [sys.executable, str(BENCH / "tracer.py"), str(out), "1" if trace else "0", "--"]
    child = run_child(argv + step.argv, seq_dir, seq_dir / "stderr.txt")
    if child.rc != 0 or not out.exists():
        return {"rc": None, "error": _stderr_tail(seq_dir / "stderr.txt")}
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


def _traced_sequence(workload: str, case: Case, seq_dir: Path, trace: bool) -> dict:
    seq_dir.mkdir()
    steps, problems, wall = [], [], 0.0
    for step in WORKLOADS[workload].steps(case, seq_dir):
        doc = _traced_command(step, seq_dir, trace)
        if doc["rc"] is None:
            found = [f"{step.metric}: traced run failed: {doc['error']}"]
        elif doc["rc"] != step.expect_rc:
            found = [f"{step.metric}: exit {doc['rc']}, expected {step.expect_rc}"]
        else:
            found = step.check()
        entry = {"metric": step.metric, "problems": found}
        if doc["rc"] is not None:
            wall += doc["wall_s"]
            entry.update(import_s=doc["import_s"], wall_s=doc["wall_s"])
            if trace:
                entry.update(layers=tracer.layer_metrics(doc["spans"]), spans=doc["spans"],
                             missing=doc["missing"], measure_errors=doc["measure_errors"])
                if step.trace_check is not None:
                    found += step.trace_check(entry["layers"])
        problems += found
        steps.append(entry)
    shutil.rmtree(seq_dir)
    return {"steps": steps, "wall_s": wall, "problems": problems}


def _scaled_wall(seq: dict, began: float, probe: SpeedProbe) -> float:
    return seq["wall_s"] * probe.scale(began, time.perf_counter())


def traced_run(selected: str, seed: int, work: Path, probe: SpeedProbe) -> tuple[dict, dict]:
    cases = {name: setup(name, seed, work, f"inputs-{name}")[0] for name in WORKLOADS}
    traced = {}
    for name in WORKLOADS:
        began = time.perf_counter()
        traced[name] = _traced_sequence(name, cases[name], work / f"traced-{name}", True)
        if name == selected:
            traced_wall = _scaled_wall(traced[name], began, probe)
    began = time.perf_counter()
    bare = _traced_sequence(selected, cases[selected], work / "untraced", False)
    bare_wall = _scaled_wall(bare, began, probe)

    totals: dict[str, float] = {m["name"]: 0 for m in SPEC["per_layer"]}
    per_workload = {}
    imports = [s["import_s"] for seq in (*traced.values(), bare) for s in seq["steps"]
               if "import_s" in s]
    for name, seq in traced.items():
        per_workload[name] = {}
        for s in seq["steps"]:
            layers = s.get("layers", {})
            per_workload[name][s["metric"]] = layers
            for key, value in layers.items():
                if key in totals:
                    totals[key] += value
    pairs = totals["catchment.station_polygon_pairs"]
    totals["catchment.touch_ratio"] = totals["catchment.pairs_touched"] / pairs if pairs else 0.0
    warm = per_workload["fetch_replay"].get("fetch_warm_s", {})
    lookups = warm.get("ingest.cache_hits", 0) + warm.get("ingest.cache_misses", 0)
    totals["ingest.cache_hit_ratio"] = warm.get("ingest.cache_hits", 0) / lookups if lookups else 0.0
    totals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    totals["trace.overhead_ratio"] = traced_wall / bare_wall if bare_wall else 0.0

    sequences = [*traced.values(), bare]
    attempted = sum(len(seq["steps"]) for seq in sequences)
    failed = sum(bool(s["problems"]) for seq in sequences for s in seq["steps"])
    spans = {name: {s["metric"]: s.pop("spans", []) for s in seq["steps"]}
             for name, seq in traced.items()}
    record = {
        "metrics": totals,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for seq in sequences for p in seq["problems"]],
        "per_workload": per_workload,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": bare_wall,
        "import_samples_s": imports,
        "missing_targets": sorted({m for seq in traced.values() for s in seq["steps"]
                                   for m in s.get("missing", [])}),
        "measure_errors": [e for seq in traced.values() for s in seq["steps"]
                           for e in s.get("measure_errors", [])],
    }
    return record, spans


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine(seed: int, nproc: int, cpu: int) -> dict:
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report_lines(args, record: dict) -> list[str]:
    lines = [f"{args.workload} seed {args.seed} trace {args.trace}: "
             f"{record['attempted']} operations, {record['failed']} failed"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name} {_fmt(value)} {UNITS[name]}")
    for name, s in record.get("commands", {}).items():
        tail = s["tail"]
        extra = (f", p{tail['percentile']} {_fmt(tail['value'])} s" if tail
                 else " (too few samples for a tail percentile)")
        raw = record["raw_commands"][name]["median"]
        lines.append(f"  {name} median {_fmt(s['median'])} s{extra}, {s['samples']} samples "
                     f"(unscaled median {_fmt(raw)} s)")
    ratio = record["failed"] / record["attempted"]
    lines.append(f"  failed_ratio {_fmt(ratio)} ({record['failed']}/{record['attempted']})")
    lines += [f"  problem: {p}" for p in record["problems"][:20]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "bikepls" / "cli.py").is_file():
        print(f"error: the bikepls sources are not at {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    spans = None
    try:
        with SpeedProbe() as probe:
            if args.trace:
                record, spans = traced_run(args.workload, args.seed, work, probe)
            else:
                record = timed_run(args.workload, args.seed, args.seconds, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["failed_ratio"] = record["failed"] / record["attempted"]
    stamp = dt.datetime.now().strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": machine(args.seed, nproc, cpu), **record}
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans))

    print("\n".join(report_lines(args, record)))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
