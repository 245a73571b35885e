"""In-process tracing of one CLI command, from outside the package.

Run as a script, this module imports ``bikepls.cli``, optionally replaces
the public functions of each layer with timing wrappers, runs one command
through ``cli.main`` and writes the spans it recorded as JSON:

    python bench/tracer.py OUT.json TRACE -- <cli arguments>

TRACE is 1 to install the wrappers and 0 to run the same command bare,
which gives the traced run's overhead. Nothing inside ``src/`` changes: a
wrapper is installed at every place a caller looks the function up, so a
function that ``cli`` or ``reproduce`` imported by name is wrapped there too.

The parent process turns the spans into per-layer metrics with
``layer_metrics``. Spans nest (``bundle_to_json`` calls ``model_to_json``),
so every time metric is a self time: a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


def _count_rows(args, result):
    data = args[0]
    lines = data.count(b"\n") + (0 if data.endswith(b"\n") else 1)
    return {"ingest.parse_counts_rows": lines - 1}


def _cache_lookup(args, result):
    return {"ingest.cache_hits": int(result is not None),
            "ingest.cache_misses": int(result is None)}


def _catchment_pairs(args, result):
    stations, polygons = args[0], args[1]
    assignments = result[0]
    return {"catchment.station_polygon_pairs": len(stations) * len(polygons),
            "catchment.pairs_touched": sum(len(v) for v in assignments.values())}


def _documents(args, result):
    docs = args[0]
    # The rendered documents are ASCII, so characters equal bytes written.
    return {"report.documents": len(docs),
            "report.bytes_written": sum(len(text) for text in docs.values())}


# Traced functions: (module, attribute, time metric or None, measure). The
# time metric receives the span's self time; the measure turns arguments and
# result into counts. Time and call counts are kept for every span.
TARGETS: tuple[tuple[str, str, str | None, Callable | None], ...] = (
    ("cli", "main", "cli.self_s", None),
    ("ingest", "parse_counts_csv", "ingest.parse_counts_s", _count_rows),
    ("ingest", "load_acs_table_csv", "ingest.census_s", None),
    ("ingest", "parse_acs_income", "ingest.census_s", None),
    ("ingest", "parse_acs_education", "ingest.census_s", None),
    ("ingest", "parse_acs_age", "ingest.census_s", None),
    ("ingest", "load_population_csv", "ingest.census_s", None),
    ("ingest", "fetch_many", "ingest.fetch_many_s", None),
    ("ingest", "FixtureTransport.get", None, None),
    ("ingest", "ResponseCache.load", "ingest.cache_load_s", _cache_lookup),
    ("ingest", "ResponseCache.store", "ingest.cache_store_s",
     lambda args, result: {"ingest.cache_bytes_written": len(args[2])}),
    ("catchment", "assign_counties", "catchment.assign_s", _catchment_pairs),
    ("catchment", "load_stations_csv", "catchment.load_s", None),
    ("catchment", "load_county_polygons", "catchment.load_s", None),
    ("frames", "transition_rates", "frames.transition_rates_s", None),
    ("frames", "frames_from_analysis_table", "frames.analysis_table_s", None),
    ("plsr", "fit", "plsr.fit_s", None),
    ("plsr", "variance_explained", "plsr.diagnostics_s", None),
    ("plsr", "vip", "plsr.diagnostics_s", None),
    ("plsr", "vip_table", "plsr.diagnostics_s", None),
    ("plsr", "coefficients", "plsr.diagnostics_s", None),
    ("plsr", "predict", "plsr.diagnostics_s", None),
    ("plsr", "model_to_json", "plsr.model_json_s",
     lambda args, result: {"plsr.model_json_bytes": len(result)}),
    ("plsr", "model_from_json", "plsr.model_parse_s", None),
    ("report", "render_all", "report.render_s", None),
    ("report", "write_documents", "report.write_s", _documents),
    ("report", "bundle_to_json", "report.bundle_dump_s",
     lambda args, result: {"report.bundle_bytes": len(result)}),
    ("report", "bundle_from_json", "report.bundle_load_s", None),
    ("reproduce", "run_reproduction", "reproduce.run_s",
     lambda args, result: {"reproduce.hard_failures": len(result.hard_failures)}),
)

# Call counts: metric -> the traced functions whose calls it counts.
CALL_COUNTS = {
    "ingest.census_calls": {"ingest.load_acs_table_csv", "ingest.parse_acs_income",
                            "ingest.parse_acs_education", "ingest.parse_acs_age",
                            "ingest.load_population_csv"},
    "ingest.transport_calls": {"ingest.FixtureTransport.get"},
    "frames.transition_rates_calls": {"frames.transition_rates"},
    "plsr.fit_calls": {"plsr.fit"},
    "plsr.diagnostics_calls": {"plsr.variance_explained", "plsr.vip", "plsr.vip_table",
                               "plsr.coefficients", "plsr.predict"},
}

MODULES = ("cli", "ingest", "catchment", "frames", "plsr", "report", "reproduce")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, counts.

    Spans stay in memory until ``spans`` is read at the end of the run. A
    call on a worker thread with no open span of its own takes as parent the
    innermost span open on the main thread, which is what started the pool.
    """

    def __init__(self):
        self.spans: list = []
        self.measure_errors: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, measure: Callable | None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.spans[span_id] = (name, start, time.perf_counter(), parent, None)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            counts = None
            if measure is not None:
                try:
                    counts = measure(args, result)
                except Exception as exc:  # a refactor changed a signature
                    self.measure_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            self.spans[span_id] = (name, start, end, parent, counts)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target where the package looks it up; return the
        targets that no longer exist."""
        import importlib

        modules = {m: importlib.import_module(f"bikepls.{m}") for m in MODULES}
        missing = []
        for module, attr, _, measure in TARGETS:
            owner = modules[module]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            func = getattr(owner, leaf, None) if owner is not None else None
            if func is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapper = self.wrap(f"{module}.{attr}", func, measure)
            if cls_path:
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, name, wrapper)
        return missing


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer self times, call counts and measured counts of one command."""
    time_metric = {f"{m}.{a}": metric for m, a, metric, _ in TARGETS}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(int)
    for span_id, (name, start, end, parent, counts) in enumerate(spans):
        metric = time_metric.get(name)
        if metric is not None:
            covered = [(max(s, start), min(e, end)) for s, e in children[span_id]]
            out[metric] += (end - start) - _union_length([(s, e) for s, e in covered if e > s])
        for count_metric, names in CALL_COUNTS.items():
            if name in names:
                out[count_metric] += 1
        for key, value in (counts or {}).items():
            out[key] += value
    return dict(out)


def main(argv: list[str]) -> int:
    out_path, trace_flag, sep, *cli_argv = argv
    if sep != "--" or trace_flag not in ("0", "1"):
        print("usage: tracer.py OUT.json 0|1 -- <cli arguments>", file=sys.stderr)
        return 2
    start = time.perf_counter()
    import bikepls.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = tracer.install() if trace_flag == "1" else []
    start = time.perf_counter()
    try:
        rc = cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    wall_s = time.perf_counter() - start
    with open(out_path, "w") as f:
        json.dump({"rc": rc, "import_s": import_s, "wall_s": wall_s, "missing": missing,
                   "measure_errors": tracer.measure_errors, "spans": tracer.spans}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
