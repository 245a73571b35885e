"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are result files written by ``run.py`` or directories of
them (``bench/results/`` by default holds both kinds; copy each side's runs
into its own directory). Runs of one workload and trace mode are paired in
seed order, then in the order they ran. For each metric the table gives
each side's median and quartiles and one verdict:

- ``better``: the change wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the distance
  between the base's quartiles.
- ``unresolved``: the run-to-run spread (quartile distance over median, on
  either side) is wider than the metric's bound, and not every run of the
  change reads better than every run of the base.
- ``worse``: the change's median is worse than the base's by more than the
  bound.
- ``unchanged``: none of the above.

End-to-end metrics take their bound from ``BENCHMARK.json``; the
per-command times share the bound of ``wall_s``. Per-layer metrics have no
bound: they are ``worse`` by the mirror of the ``better`` rule, and
``unchanged`` or ``unresolved`` as the medians differ by less or more than
the base's quartile distance.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        doc = json.loads(f.read_text())
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["seed"])
    return runs


def values(docs: list[dict]) -> dict[str, list[float]]:
    """Every metric of the runs, with per-command medians and failed_ratio."""
    out: dict[str, list[float]] = {}
    for doc in docs:
        for name, value in doc["metrics"].items():
            out.setdefault(name, []).append(value)
        for name, summary in doc.get("commands", {}).items():
            out.setdefault(name, []).append(summary["median"])
        out.setdefault("failed_ratio", []).append(doc["failed_ratio"])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(base: list[float], change: list[float], better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: b is better than a
    b1, mb, b3 = quartiles(base)
    c1, mc, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) > 0 for b, c in pairs)
    gain = sign * (mb - mc)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > b3 - b1:
            return "worse"
        return "unchanged" if abs(gain) <= b3 - b1 else "unresolved"
    spread = max((b3 - b1) / abs(mb) if mb else 0.0, (c3 - c1) / abs(mc) if mc else 0.0)
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(mb):
        return "worse"
    return "unchanged"


def cell(xs: list[float]) -> str:
    q1, median, q3 = quartiles(xs)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def rule(name: str) -> tuple[str, float | None]:
    if name in END_TO_END:
        return END_TO_END[name]["better"], END_TO_END[name]["bound"]
    if name in PER_LAYER:
        return PER_LAYER[name]["better"], None
    if name == "failed_ratio":
        return "lower", 0.0
    return "lower", END_TO_END["wall_s"]["bound"]  # a per-command time


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (load(Path(p)) for p in argv)
    print(f"{'workload':18} {'trace':5} {'metric':32} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'pairs':5} verdict")
    for key in sorted(set(base) & set(change)):
        b_vals, c_vals = values(base[key]), values(change[key])
        pairs = min(len(base[key]), len(change[key]))
        for name in b_vals:
            if name not in c_vals:
                continue
            better, bound = rule(name)
            b, c = b_vals[name], c_vals[name]
            print(f"{key[0]:18} {key[1]:<5} {name:32} {cell(b):34} {cell(c):34} "
                  f"{pairs:<5} {verdict(b, c, better, bound)}")
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]} trace {key[1]}: runs on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
