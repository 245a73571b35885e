"""The four benchmark workloads: seeded inputs, command sequences, output checks.

Each workload writes its inputs from a seed into a directory of its own,
then describes one *sequence*: the CLI invocations a user would run in
order, each with the exit code it must return and a check of what it wrote.
The harness repeats the sequence, each time in a fresh directory, so a
cache or an output directory never carries over from one sequence to the
next.

The checks compare against values the harness computes from the arrays it
generated, not against the program's own code, wherever the arithmetic
allows it: derived profiles are built from integer census counts, so every
sum is exact in binary floating point and any summation order gives the
same bytes. Where only the program can produce the bytes (fitted reports),
the check compares against digests recorded from a reference commit.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent

# The CLI's default catchment radius. Configs here leave the radius unset,
# so the expected county assignments are computed with this value.
DEFAULT_RADIUS_M = 4_828.0
EARTH_RADIUS_M = 6_371_000.0

PERIODS = (
    ("Pre-Pandemic", "01-01", "03-15"),
    ("Pandemic", "03-16", "05-31"),
    ("Transition", "06-01", "08-31"),
    ("Normalization", "09-01", "12-31"),
)

INCOME_LABELS = (
    "under_10k", "10k_to_15k", "15k_to_25k", "25k_to_35k", "35k_to_50k",
    "50k_to_75k", "75k_to_100k", "100k_to_150k", "150k_to_200k", "200k_and_over",
)
EDUCATION_LABELS = (
    "no_schooling", "nursery_to_4th_grade", "5th_to_6th_grade", "7th_to_8th_grade",
    "9th_to_12th_no_diploma", "high_school_graduate", "some_college",
    "bachelors_degree", "graduate_or_professional",
)
AGE_BRACKETS = (
    ("under_5", 2.5), ("5_to_17", 11.0), ("18_to_24", 21.0), ("25_to_34", 29.5),
    ("35_to_44", 39.5), ("45_to_54", 49.5), ("55_to_64", 59.5), ("65_to_74", 69.5),
    ("75_and_over", 80.0),
)

TRANSITIONS = (
    "pre_pandemic_to_pandemic",
    "pandemic_to_transition",
    "transition_to_normalization",
)
PREDICTORS = ("avg_income", "avg_education", "avg_age", "total_population", "male_female_ratio")

URL_TEMPLATE = "https://counts.invalid/api?station={station}&start={start}&end={end}"

# derive_region: an 8 x 8 grid of square counties, 0.25 degrees a side, 32
# vertices each. Multiples of 1/32 degree are exact in binary, so adjacent
# squares share their edges exactly.
GRID = 8
CELL_DEG = 0.25
GRID_LAT0 = 39.0
GRID_LON0 = -106.0
VERTICES_PER_SIDE = 8
# Stations whose distance to a county differs from the radius by less than
# this are redrawn, so no assignment depends on rounding.
EDGE_MARGIN_M = 1.0

DERIVE_STATIONS = 1000
FETCH_STATIONS = 1000
ANALYSIS_ROWS = 20_000

DIGESTS_FILE = HERE / "digests.json"


@dataclass
class Step:
    """One CLI invocation of a sequence: its arguments after
    ``python -m bikepls.cli``, the exit code it must return, and a check of
    its outputs that returns a list of problems (empty when correct).
    ``trace_check`` also checks the per-layer counts of a traced run."""

    metric: str
    argv: list[str]
    expect_rc: int
    check: Callable[[], list[str]]
    trace_check: Callable[[dict], list[str]] | None = None


@dataclass
class Case:
    """Inputs written for one seed, plus what the checks compare against."""

    directory: Path
    rows: int  # input rows one sequence processes, for throughput
    expected: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _days(year: int) -> list[str]:
    start = dt.date(year, 1, 1)
    n = (dt.date(year + 1, 1, 1) - start).days
    return [(start + dt.timedelta(days=i)).isoformat() for i in range(n)]


def _write_counts_csv(path: Path, station_ids, days: list[str], counts: np.ndarray) -> None:
    parts = ["station_id,date,count\n"]
    for sid, row in zip(station_ids, counts.tolist()):
        prefix = sid + ","
        parts.append("".join(f"{prefix}{d},{c}\n" for d, c in zip(days, row)))
    path.write_text("".join(parts))


def _daily_counts(rng: np.random.Generator, n_stations: int, year: int) -> np.ndarray:
    """Poisson daily counts with a station level, a season and weekday shape,
    and in 2020 a per-station pandemic response per period."""
    days = _days(year)
    n = len(days)
    level = rng.uniform(20.0, 400.0, size=(n_stations, 1))
    t = np.arange(n) / n
    season = 1.0 + 0.5 * np.sin(2 * np.pi * (t - 0.3))
    weekday = np.array([1.0 if dt.date.fromisoformat(d).weekday() < 5 else 0.7 for d in days])
    lam = level * season * weekday
    if year == 2020:
        factor = np.ones((n_stations, n))
        for label, start, end in PERIODS[1:]:
            a, b = _window(days, year, start, end)
            factor[:, a:b] = rng.uniform(0.3, 1.6, size=(n_stations, 1))
        lam = lam * factor
    return rng.poisson(lam)


def _window(days: list[str], year: int, start: str, end: str) -> tuple[int, int]:
    return days.index(f"{year}-{start}"), days.index(f"{year}-{end}") + 1


def digest_tree(root: Path, subdirs: tuple[str, ...]) -> str:
    """sha256 over the sorted relative paths and bytes of every file."""
    h = hashlib.sha256()
    for sub in subdirs:
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                h.update(path.relative_to(root).as_posix().encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def recorded_digests() -> dict:
    """Digests of reports/ and figures/ written by the reference commit
    (see record_digests.py)."""
    return json.loads(DIGESTS_FILE.read_text())


def _cli_args(command: str, out: Path, cache: Path, *extra: str, config: Path | None = None) -> list[str]:
    """Arguments after ``python -m bikepls.cli``; every run gets its own
    output and cache directory, so nothing is written outside the run."""
    head = ["--config", str(config)] if config else []
    return head + ["--output-dir", str(out), command, *extra, "--cache-dir", str(cache)]


# --- derive_region -----------------------------------------------------------

def _cell_bounds(r: int, c: int) -> tuple[float, float, float, float]:
    lat_lo = GRID_LAT0 + r * CELL_DEG
    lon_lo = GRID_LON0 + c * CELL_DEG
    return lat_lo, lat_lo + CELL_DEG, lon_lo, lon_lo + CELL_DEG


def _county_name(r: int, c: int) -> str:
    return f"county_{r}_{c}"


def _ring(r: int, c: int) -> list[list[float]]:
    """Square ring as GeoJSON [lon, lat], counterclockwise, closed."""
    lat_lo, lat_hi, lon_lo, lon_hi = _cell_bounds(r, c)
    step = CELL_DEG / VERTICES_PER_SIDE
    pts = []
    pts += [(lat_lo, lon_lo + k * step) for k in range(VERTICES_PER_SIDE)]
    pts += [(lat_lo + k * step, lon_hi) for k in range(VERTICES_PER_SIDE)]
    pts += [(lat_hi, lon_hi - k * step) for k in range(VERTICES_PER_SIDE)]
    pts += [(lat_hi - k * step, lon_lo) for k in range(VERTICES_PER_SIDE)]
    ring = [[lon, lat] for lat, lon in pts]
    return ring + [ring[0]]


def _distances_to_cells(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Distance in meters from each station to each square county, on the
    equirectangular projection about the station (0 when inside)."""
    cells = [_cell_bounds(r, c) for r in range(GRID) for c in range(GRID)]
    lat_lo, lat_hi, lon_lo, lon_hi = (np.array(v)[None, :] for v in zip(*cells))
    lat0, lon0 = lat[:, None], lon[:, None]
    k = EARTH_RADIUS_M * math.pi / 180.0
    cos0 = np.cos(np.radians(lat0))
    dx = np.maximum(np.maximum(lon_lo - lon0, lon0 - lon_hi), 0.0) * k * cos0
    dy = np.maximum(np.maximum(lat_lo - lat0, lat0 - lat_hi), 0.0) * k
    return np.hypot(dx, dy)


def _draw_stations(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lat, lon = np.empty(0), np.empty(0)
    while lat.size < n:
        cand_lat = rng.uniform(GRID_LAT0, GRID_LAT0 + GRID * CELL_DEG, size=n)
        cand_lon = rng.uniform(GRID_LON0, GRID_LON0 + GRID * CELL_DEG, size=n)
        d = _distances_to_cells(cand_lat, cand_lon)
        keep = (np.abs(d - DEFAULT_RADIUS_M) > EDGE_MARGIN_M).all(axis=1)
        lat = np.concatenate([lat, cand_lat[keep]])
        lon = np.concatenate([lon, cand_lon[keep]])
    lat, lon = lat[:n], lon[:n]
    touched = _distances_to_cells(lat, lon) <= DEFAULT_RADIUS_M
    return lat, lon, touched


def _expected_profiles(station_ids, touched, income, education, age, population) -> str:
    """profiles.csv as the CLI must write it. Every input is an integer (or an
    integer times a half-integer level), so sums are exact and each value is
    one correctly rounded division."""
    lines = ["station_id," + ",".join(PREDICTORS)]
    levels = [lvl for _, lvl in AGE_BRACKETS]
    for sid, mask in sorted(zip(station_ids, touched)):
        idx = np.flatnonzero(mask)
        inc = [int(v) for v in income[idx].sum(axis=0)]
        edu = [int(v) for v in education[idx].sum(axis=0)]
        ages = [int(v) for v in age[idx].sum(axis=0)]
        males, females = (int(v) for v in population[idx].sum(axis=0))
        row = (
            sum(i * c for i, c in enumerate(inc)) / sum(inc),
            sum(i * c for i, c in enumerate(edu)) / sum(edu),
            math.fsum(c * lvl for c, lvl in zip(ages, levels)) / sum(ages),
            float(males + females),
            males / females,
        )
        lines.append(sid + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _expected_rates(counts_2018: np.ndarray, counts_2020: np.ndarray) -> np.ndarray:
    days18, days20 = _days(2018), _days(2020)
    yoy = []
    for _, start, end in PERIODS:
        a18, b18 = _window(days18, 2018, start, end)
        a20, b20 = _window(days20, 2020, start, end)
        t18 = counts_2018[:, a18:b18].sum(axis=1)
        t20 = counts_2020[:, a20:b20].sum(axis=1)
        yoy.append([int(x) / int(y) for x, y in zip(t20, t18)])
    yoy = np.array(yoy).T
    return yoy[:, 1:] / yoy[:, :-1]


def setup_derive_region(seed: int, directory: Path) -> Case:
    rng = _rng(seed, "derive_region")
    n = DERIVE_STATIONS
    station_ids = [f"st{i:04d}" for i in range(n)]
    lat, lon, touched = _draw_stations(rng, n)
    with open(directory / "stations.csv", "w") as f:
        f.write("station_id,latitude,longitude,name\n")
        for sid, la, lo in zip(station_ids, lat.tolist(), lon.tolist()):
            f.write(f"{sid},{la!r},{lo!r},Station {sid}\n")

    counties = [_county_name(r, c) for r in range(GRID) for c in range(GRID)]
    features = [
        {
            "type": "Feature",
            "properties": {"name": _county_name(r, c)},
            "geometry": {"type": "Polygon", "coordinates": [_ring(r, c)]},
        }
        for r in range(GRID) for c in range(GRID)
    ]
    (directory / "counties.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features})
    )

    income = rng.integers(50, 5000, size=(len(counties), len(INCOME_LABELS)))
    education = rng.integers(50, 5000, size=(len(counties), len(EDUCATION_LABELS)))
    age = rng.integers(50, 5000, size=(len(counties), len(AGE_BRACKETS)))
    population = rng.integers(20_000, 200_000, size=(len(counties), 2))
    for name, table, labels in (
        ("acs_income.csv", income, INCOME_LABELS),
        ("acs_education.csv", education, EDUCATION_LABELS),
        ("acs_age.csv", age, [label for label, _ in AGE_BRACKETS]),
    ):
        lines = ["county,label,value"]
        for county, row in zip(counties, table.tolist()):
            lines += [f"{county},{label},{v}" for label, v in zip(labels, row)]
        (directory / name).write_text("\n".join(lines) + "\n")
    lines = ["county,male,female"]
    lines += [f"{c},{m},{w}" for c, (m, w) in zip(counties, population.tolist())]
    (directory / "population.csv").write_text("\n".join(lines) + "\n")

    counts_2018 = _daily_counts(rng, n, 2018)
    counts_2020 = _daily_counts(rng, n, 2020)
    _write_counts_csv(directory / "counts_2018.csv", station_ids, _days(2018), counts_2018)
    _write_counts_csv(directory / "counts_2020.csv", station_ids, _days(2020), counts_2020)

    schedule = {label: {"start": f"2020-{a}", "end": f"2020-{b}"} for label, a, b in PERIODS}
    (directory / "schedule.json").write_text(json.dumps(schedule, indent=2))
    config = {
        "schedule": str(directory / "schedule.json"),
        "stations": str(directory / "stations.csv"),
        "counties": str(directory / "counties.geojson"),
        "acs_income": str(directory / "acs_income.csv"),
        "acs_education": str(directory / "acs_education.csv"),
        "acs_age": str(directory / "acs_age.csv"),
        "population": str(directory / "population.csv"),
        "counts_csv": [str(directory / "counts_2018.csv"), str(directory / "counts_2020.csv")],
    }
    (directory / "config.json").write_text(json.dumps(config, indent=2))

    rates = _expected_rates(counts_2018, counts_2020)
    return Case(
        directory=directory,
        rows=int(counts_2018.size + counts_2020.size),
        expected={
            "profiles": _expected_profiles(
                station_ids, touched, income, education, age, population
            ),
            "rates": dict(zip(station_ids, rates.tolist())),
            "touched_pairs": int(touched.sum()),
        },
    )


def _check_derive(case: Case, out: Path) -> list[str]:
    problems = []
    if (out / "derive_errors.csv").exists():
        problems.append("derive wrote derive_errors.csv")
    profiles = out / "profiles.csv"
    if not profiles.exists() or profiles.read_text() != case.expected["profiles"]:
        problems.append("profiles.csv differs from the expected profiles")
    transitions = out / "transitions.csv"
    if not transitions.exists():
        return problems + ["transitions.csv missing"]
    lines = transitions.read_text().splitlines()
    if lines[0] != "station_id," + ",".join(TRANSITIONS):
        problems.append("transitions.csv has a bad header")
    got = {}
    for line in lines[1:]:
        sid, *values = line.split(",")
        got[sid] = [float(v) for v in values]
    expected = case.expected["rates"]
    if sorted(got) != sorted(expected):
        problems.append(f"transitions.csv has {len(got)} stations, expected {len(expected)}")
    else:
        worst = max(
            abs(g - e) / abs(e)
            for sid in expected for g, e in zip(got[sid], expected[sid])
        )
        if worst > 1e-12:
            problems.append(f"transition rate off by relative {worst:.3g}")
    return problems


def steps_derive_region(case: Case, seq_dir: Path) -> list[Step]:
    out = seq_dir / "out"
    argv = _cli_args("derive", out, seq_dir / "cache", config=case.directory / "config.json")
    return [Step("derive_s", argv, 0, lambda: _check_derive(case, out),
                 lambda layers: _check_touched_pairs(case, layers))]


def _check_touched_pairs(case: Case, layers: dict) -> list[str]:
    got, expected = layers.get("catchment.pairs_touched"), case.expected["touched_pairs"]
    if got != expected:
        return [f"traced catchment counted {got} touched pairs, expected {expected}"]
    return []


# --- fetch_replay ------------------------------------------------------------

FETCH_START, FETCH_END = "2020-01-01", "2020-12-31"


def setup_fetch_replay(seed: int, directory: Path) -> Case:
    rng = _rng(seed, "fetch_replay")
    n = FETCH_STATIONS
    station_ids = [f"st{i:04d}" for i in range(n)]
    lat = rng.uniform(39.0, 41.0, size=n)
    lon = rng.uniform(-106.0, -104.0, size=n)
    with open(directory / "stations.csv", "w") as f:
        f.write("station_id,latitude,longitude,name\n")
        for sid, la, lo in zip(station_ids, lat.tolist(), lon.tolist()):
            f.write(f"{sid},{la!r},{lo!r},Station {sid}\n")
    days = _days(2020)
    counts = _daily_counts(rng, n, 2020)
    responses = directory / "responses"
    responses.mkdir()
    manifest = {}
    expected = ["station_id,date,count"]
    for sid, row in zip(station_ids, counts.tolist()):
        body = "".join(f"{sid},{d},{c}\n" for d, c in zip(days, row))
        (responses / f"{sid}.csv").write_text("station_id,date,count\n" + body)
        url = URL_TEMPLATE.format(station=sid, start=FETCH_START, end=FETCH_END)
        manifest[url] = f"{sid}.csv"
        expected.append(body[:-1])
    (responses / "manifest.json").write_text(json.dumps(manifest, indent=1))
    config = {
        "stations": str(directory / "stations.csv"),
        "counts_url_template": URL_TEMPLATE,
        "transport": "fixtures",
        "fixtures": str(responses),
        "start": FETCH_START,
        "end": FETCH_END,
    }
    (directory / "config.json").write_text(json.dumps(config, indent=2))
    return Case(
        directory=directory,
        # Both passes parse every response row.
        rows=2 * int(counts.size),
        expected={"counts_csv": "\n".join(expected) + "\n"},
    )


def _check_fetch(case: Case, out: Path) -> list[str]:
    path = out / "counts.csv"
    if not path.exists() or path.read_text() != case.expected["counts_csv"]:
        return [f"{path.parent.name}/counts.csv differs from the generated responses"]
    return []


def steps_fetch_replay(case: Case, seq_dir: Path) -> list[Step]:
    steps = []
    for metric, name in (("fetch_cold_s", "cold"), ("fetch_warm_s", "warm")):
        out = seq_dir / name
        argv = _cli_args("fetch", out, seq_dir / "cache", "--parallelism", "2",
                         "--transport", "fixtures", config=case.directory / "config.json")
        steps.append(Step(metric, argv, 0, lambda out=out: _check_fetch(case, out)))
    steps[1].trace_check = _check_warm_transport
    return steps


def _check_warm_transport(layers: dict) -> list[str]:
    calls = layers.get("ingest.transport_calls", 0)
    return [f"warm fetch made {calls:g} transport calls, expected 0"] if calls else []


# --- analyze_report ----------------------------------------------------------

def setup_analyze_report(seed: int, directory: Path) -> Case:
    rng = _rng(seed, "analyze_report")
    n = ANALYSIS_ROWS
    mixing = rng.normal(size=(5, 5)) + 2.0 * np.eye(5)
    x = rng.normal(size=(n, 5)) @ mixing
    coef = rng.normal(size=(5, 3))
    y = x @ coef + rng.normal(scale=2.0, size=(n, 3))
    lines = ["station_id," + ",".join(TRANSITIONS + PREDICTORS)]
    for i, (rates, preds) in enumerate(zip(y.tolist(), x.tolist())):
        lines.append(f"st{i:05d}," + ",".join(f"{v:.6f}" for v in rates + preds))
    (directory / "table.csv").write_text("\n".join(lines) + "\n")
    return Case(
        directory=directory,
        rows=n,
        expected={"digest": recorded_digests().get("analyze_report", {}).get(str(seed))},
    )


REPORT_DOCUMENTS = len(TRANSITIONS) * 5 * 2 + len(PREDICTORS) * len(TRANSITIONS)


def _check_rendered(case: Case, out: Path, state: dict, stage: str) -> list[str]:
    docs = [p for sub in ("reports", "figures") for p in (out / sub).rglob("*") if p.is_file()]
    if len(docs) != REPORT_DOCUMENTS:
        return [f"{stage}: {len(docs)} documents under reports/ and figures/, "
                f"expected {REPORT_DOCUMENTS}"]
    digest = digest_tree(out, ("reports", "figures"))
    state.setdefault("digests", []).append(digest)
    problems = []
    if len(set(state["digests"])) != 1:
        problems.append("report: reports/ and figures/ differ from what analyze wrote")
    recorded = case.expected["digest"]
    if recorded is not None and digest != recorded:
        problems.append(f"{stage}: reports/ and figures/ differ from the reference digest")
    return problems


def steps_analyze_report(case: Case, seq_dir: Path) -> list[Step]:
    out, cache = seq_dir / "out", seq_dir / "cache"
    state: dict = {}
    analyze = _cli_args("analyze", out, cache, "--input", str(case.directory / "table.csv"),
                        "--components", "3")
    report = _cli_args("report", out, cache)
    return [
        Step("analyze_s", analyze, 0, lambda: _check_rendered(case, out, state, "analyze")),
        Step("report_s", report, 0, lambda: _check_rendered(case, out, state, "report")),
    ]


# --- reproduce_bundled -------------------------------------------------------

# The reproduce check lines of the reference commit, as status, criterion and
# name. The one hard failure is the documented criterion-3 reference cell.
REPRODUCE_PATTERN = (
    "PASS 1 variance shares", "PASS 1 cumulative variance at 3 factors",
    "PASS 1 fit runtime", "PASS 2 adjusted r-square cells",
    "PASS 2 degenerate denominator", "FAIL 3 importance cells",
    "PASS 3 importance anchor", "PASS 3 importance normalization",
    "PASS 4 intercept", "PASS 4 coefficients", "PASS 4 pseudoinverse oracle",
    "PASS 5 first-factor weights", "PASS 5 later weight columns (informational)",
    "PASS 5 loading columns (informational)", "PASS 6 score orthogonality",
    "PASS 6 reconstruction", "PASS 6 deflation monotonicity",
    "PASS 6 sign-flip invariance", "PASS 6 property runtime",
    "PASS 7 standardize invariants", "PASS 7 bundled table scaling",
    "PASS 7 change-rate telescoping",
)
_CHECK_LINE = re.compile(r"^(PASS|FAIL) criterion (\d+) \[([^\]]+)\]( \(informational\))?:")
BUNDLED_ROWS = 4


def setup_reproduce_bundled(seed: int, directory: Path) -> Case:
    # reproduce reads only the table shipped inside the package.
    return Case(
        directory=directory,
        rows=BUNDLED_ROWS,
        expected={"digest": recorded_digests().get("reproduce_bundled")},
    )


def _check_reproduce(case: Case, out: Path) -> list[str]:
    summary = out / "reproduction_summary.txt"
    if not summary.exists():
        return ["reproduction_summary.txt missing"]
    pattern = []
    for line in summary.read_text().splitlines():
        m = _CHECK_LINE.match(line)
        pattern.append(f"{m[1]} {m[2]} {m[3]}{m[4] or ''}" if m else f"unparsed: {line}")
    problems = []
    if tuple(pattern) != REPRODUCE_PATTERN:
        problems.append("reproduction_summary.txt PASS/FAIL pattern differs from the reference")
    if digest_tree(out, ("reports", "figures")) != case.expected["digest"]:
        problems.append("reproduce: reports/ and figures/ differ from the reference digest")
    return problems


def steps_reproduce_bundled(case: Case, seq_dir: Path) -> list[Step]:
    out = seq_dir / "out"
    return [Step("reproduce_s", _cli_args("reproduce", out, seq_dir / "cache"), 1,
                 lambda: _check_reproduce(case, out))]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Case]
    steps: Callable[[Case, Path], list[Step]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("derive_region", setup_derive_region, steps_derive_region),
        Workload("fetch_replay", setup_fetch_replay, steps_fetch_replay),
        Workload("analyze_report", setup_analyze_report, steps_analyze_report),
        Workload("reproduce_bundled", setup_reproduce_bundled, steps_reproduce_bundled),
    )
}
