"""Command-line pipeline: fetch, derive, analyze, report, reproduce.

Exit statuses are a stable contract: 0 success, 1 internal error,
2 invalid input or configuration. Every config field can be overridden by
a CLI flag of the same name.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import catchment, frames, ingest, plsr, reproduce
from .errors import (
    BikeplsError,
    CacheCorrupt,
    MissingCounty,
    NetworkError,
    SingularProjection,
)
from .report import (
    ReportBundle,
    bundle_from_json,
    bundle_to_json,
    render_all,
    write_documents,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2

_INTERNAL_ERRORS = (NetworkError, SingularProjection, CacheCorrupt)


@dataclass
class RunConfig:
    """Pipeline settings; JSON config file fields and CLI flags share names."""

    schedule: str | None = None
    radius_m: float = catchment.DEFAULT_RADIUS_M
    components: int = 3
    standardize_y: bool = False
    input: str | None = None
    transport: str = "fixtures"
    fixtures: str | None = None
    counts_url_template: str = ""
    cache_dir: str = ".bikepls-cache"
    timeout_s: float = 30.0
    retries: int = 2
    parallelism: int = 4
    stations: str | None = None
    counties: str | None = None
    counts_csv: tuple[str, ...] = ()
    acs_income: str | None = None
    acs_education: str | None = None
    acs_age: str | None = None
    population: str | None = None
    start: str | None = None
    end: str | None = None

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("components must be >= 1")
        if self.transport not in ("live", "fixtures"):
            raise ValueError(f"unknown transport {self.transport!r}")


def _load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        config_path = Path(path)
        if not config_path.exists():
            raise FileNotFoundError(f"config file not found: {config_path}")
        loaded = json.loads(config_path.read_text())
        known = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "counts_csv" in values:
        values["counts_csv"] = tuple(values["counts_csv"])
    return RunConfig(**values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, dest=f.name, default=None,
                                action=argparse.BooleanOptionalAction)
        elif f.name == "counts_csv":
            parser.add_argument(flag, dest=f.name, default=None, nargs="*")
        elif f.type in ("int",):
            parser.add_argument(flag, dest=f.name, default=None, type=int)
        elif f.type in ("float",):
            parser.add_argument(flag, dest=f.name, default=None, type=float)
        else:
            parser.add_argument(flag, dest=f.name, default=None)


def _require(value, what: str):
    if value is None:
        raise ValueError(f"{what} is required (set it in the config or via a flag)")
    return value


def _read(path: str, what: str) -> str:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p.read_text()


def _make_transport(cfg: RunConfig):
    if cfg.transport == "live":
        return ingest.LiveTransport(cfg.timeout_s)
    directory = _require(cfg.fixtures, "fixtures directory")
    return ingest.fixture_transport_from_dir(directory)


def _merged_count_series(paths: tuple[str, ...]) -> dict[str, dict]:
    """Parse one or more counts CSVs and merge entries per station."""
    merged: dict[str, dict[dt.date, int]] = {}
    for path in paths:
        data = Path(path)
        if not data.exists():
            raise FileNotFoundError(f"counts file not found: {data}")
        for station, series in ingest.parse_counts_csv(data.read_bytes()).items():
            per_station = merged.setdefault(station, {})
            for date, count in series.entries:
                if date in per_station:
                    raise ValueError(
                        f"duplicate observation for ({station}, {date}) across files"
                    )
                per_station[date] = count
    return merged


def _year_series(station: str, entries: dict, year: int) -> frames.CountSeries:
    subset = tuple(sorted((d, c) for d, c in entries.items() if d.year == year))
    return frames.CountSeries(station_id=station, entries=subset)


def cmd_fetch(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    stations = catchment.load_stations_csv(_read(_require(cfg.stations, "stations"), "stations"))
    start = dt.date.fromisoformat(_require(cfg.start, "start date"))
    end = dt.date.fromisoformat(_require(cfg.end, "end date"))
    if not cfg.counts_url_template:
        raise ValueError("counts_url_template is required for fetch")
    source = ingest.SourceConfig(
        counts_url_template=cfg.counts_url_template,
        cache_dir=cfg.cache_dir,
        timeout_s=cfg.timeout_s,
        retries=cfg.retries,
        parallelism=cfg.parallelism,
    )
    transport = _make_transport(cfg)
    series = ingest.fetch_many(source, [s.station_id for s in stations], start, end, transport)
    lines = [",".join(frames.COUNTS_CSV_HEADER)]
    for station in sorted(series):
        for date, count in series[station].entries:
            lines.append(f"{station},{date.isoformat()},{count}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "counts.csv").write_text("\n".join(lines) + "\n")
    summary = {"stations": len(series), "rows": sum(len(s) for s in series.values())}
    print(json.dumps(summary) if as_json else
          f"fetched {summary['rows']} rows for {summary['stations']} stations")
    return EXIT_OK


def cmd_derive(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    schedule = frames.PeriodSchedule.from_json(
        _read(_require(cfg.schedule, "schedule"), "schedule")
    )
    stations = catchment.load_stations_csv(_read(_require(cfg.stations, "stations"), "stations"))
    polygons = catchment.load_county_polygons(_read(_require(cfg.counties, "counties"), "counties"))
    schema = ingest.AcsSchema.bundled()
    income = ingest.load_acs_table_csv(_read(_require(cfg.acs_income, "acs_income"), "income table"), "income")
    education = ingest.load_acs_table_csv(_read(_require(cfg.acs_education, "acs_education"), "education table"), "education")
    age = ingest.load_acs_table_csv(_read(_require(cfg.acs_age, "acs_age"), "age table"), "age")
    population = ingest.load_population_csv(_read(_require(cfg.population, "population"), "population table"))
    if not cfg.counts_csv:
        raise ValueError("counts_csv is required for derive")
    counts = _merged_count_series(cfg.counts_csv)

    assignments, unassigned = catchment.assign_counties(stations, polygons, cfg.radius_m)
    errors: list[tuple[str, str, str]] = []
    for station_id in unassigned:
        errors.append((station_id, "Unassigned", "no county within catchment radius"))

    profiles: dict[str, frames.SocioeconomicProfile] = {}
    for station in stations:
        counties = assignments[station.station_id]
        if not counties:
            continue
        try:
            counties = sorted(counties)
            income_counts = ingest.parse_acs_income(income, counties, schema)
            education_counts = ingest.parse_acs_education(education, counties, schema)
            age_counts, age_levels = ingest.parse_acs_age(age, counties, schema)
            males = females = 0.0
            for county in counties:
                if county not in population:
                    raise MissingCounty(
                        f"population table: county {county!r} missing"
                    )
                males += population[county][0]
                females += population[county][1]
            total, ratio = frames.population_and_gender(males, females)
            profiles[station.station_id] = frames.SocioeconomicProfile(
                avg_income=frames.avg_income(income_counts),
                avg_education=frames.avg_education(education_counts),
                avg_age=frames.avg_age(age_counts, age_levels),
                total_population=total,
                male_female_ratio=ratio,
            )
        except BikeplsError as exc:
            errors.append((station.station_id, type(exc).__name__, str(exc)))

    rates: dict[str, tuple[float, float, float]] = {}
    for station in stations:
        if station.station_id not in profiles:
            continue
        entries = counts.get(station.station_id)
        if not entries:
            errors.append((station.station_id, "EmptyPeriod", "no count observations"))
            continue
        try:
            s18 = _year_series(station.station_id, entries, 2018)
            s20 = _year_series(station.station_id, entries, 2020)
            rates[station.station_id] = frames.transition_rates(s18, s20, schedule)
        except (BikeplsError, ValueError) as exc:
            errors.append((station.station_id, type(exc).__name__, str(exc)))

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "profiles.csv").write_text(frames.profiles_to_csv_text(profiles))
    (out_dir / "transitions.csv").write_text(
        frames.TransitionTable(rates).to_csv_text()
    )
    if errors:
        with open(out_dir / "derive_errors.csv", "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["station_id", "error", "message"])
            writer.writerows(sorted(errors))
        for sid, kind, msg in sorted(errors):
            print(f"{sid},{kind},{msg}", file=sys.stderr)
    summary = {"profiles": len(profiles), "transitions": len(rates), "errors": len(errors)}
    print(json.dumps(summary) if as_json else
          f"derived {summary['profiles']} profiles, {summary['transitions']} "
          f"transition rows, {summary['errors']} errors")
    return EXIT_INVALID if errors else EXIT_OK


def cmd_analyze(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    text = _read(cfg.input, "input table") if cfg.input else reproduce.load_bundled_table()
    frame_map = frames.frames_from_analysis_table(text, cfg.standardize_y)
    fitted = {
        label: (frame, plsr.fit(frame, cfg.components))
        for label, frame in frame_map.items()
    }
    bundle = ReportBundle(fitted)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "analysis.json").write_text(bundle_to_json(bundle))
    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    for label, (_, model) in fitted.items():
        (models_dir / f"{label}.json").write_text(plsr.model_to_json(model))
    write_documents(render_all(bundle), out_dir)
    summary = {}
    for label in frames.TRANSITION_LABELS:
        _, model = fitted[label]
        report = plsr.variance_explained(model)
        summary[label] = {
            "factors": model.n_components,
            "cumulative_y_variance": round(float(report.cumulative_y[-1]), 6),
        }
    if as_json:
        print(json.dumps(summary, indent=2))
    else:
        for label, entry in summary.items():
            print(f"{label}: {entry['factors']} factors, "
                  f"cumulative response variance {entry['cumulative_y_variance']:.3f}")
    return EXIT_OK


def cmd_report(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    source = cfg.input or str(out_dir / "analysis.json")
    bundle = bundle_from_json(_read(source, "analysis document"))
    written = write_documents(render_all(bundle), out_dir)
    print(json.dumps({"documents": len(written)}) if as_json
          else f"wrote {len(written)} documents under {out_dir}")
    return EXIT_OK


def cmd_reproduce(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    result = reproduce.run_reproduction(components=cfg.components)
    write_documents(reproduce.render_reproduction_documents(result), out_dir)
    if as_json:
        print(result.to_json())
    else:
        for check in result.checks:
            print(check.line())
        for name, seconds in result.timings.items():
            print(f"timing {name}: {seconds:.3f}")
    return EXIT_OK if result.passed else EXIT_INTERNAL


_COMMANDS = {
    "fetch": cmd_fetch,
    "derive": cmd_derive,
    "analyze": cmd_analyze,
    "report": cmd_report,
    "reproduce": cmd_reproduce,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bikepls",
        description="Bicycle-count change-rate analysis pipeline",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--output-dir", default="out", help="directory for outputs")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "fetch": "fetch bicycle counts through the configured transport",
        "derive": "derive socioeconomic profiles and transition rates",
        "analyze": "fit the regression per transition and write reports",
        "report": "re-render reports from a saved analysis document",
        "reproduce": "regenerate the bundled dataset's tables and check them",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        _add_config_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if hasattr(args, f.name)
    }
    try:
        cfg = _load_config(args.config, overrides)
        out_dir = Path(args.output_dir)
        return _COMMANDS[args.command](cfg, out_dir, args.json)
    except _INTERNAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (BikeplsError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
