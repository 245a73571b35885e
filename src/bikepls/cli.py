"""Command-line pipeline: fetch, derive, analyze, report, reproduce.

Exit statuses are a stable contract: 0 success, 1 internal error,
2 invalid input or configuration. Every config field can be overridden by
a CLI flag of the same name.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

# The other layers, and the standard modules only some commands need, are
# imported inside the commands that use them, so that `--help` and argument
# errors load neither numpy nor anything else they do not use.
from .errors import (
    BikeplsError,
    CacheCorrupt,
    NetworkError,
    ParseError,
    SingularProjection,
    TooFewStations,
    ZeroVariance,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2

_INTERNAL_ERRORS = (NetworkError, SingularProjection, CacheCorrupt)


# Conventional bicycle catchment: 3 miles. The source material cites the
# transit-agency catchment convention without printing a radius, so this is
# a documented default, not a derived constant.
DEFAULT_RADIUS_M = 4_828.0


@dataclass
class RunConfig:
    """Pipeline settings; JSON config file fields and CLI flags share names."""

    schedule: str | None = None
    radius_m: float = DEFAULT_RADIUS_M
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
    import json

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
    """The text of a file, line ends untranslated, so that a quoted cell
    keeps a carriage return as the counts parser keeps it."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    with p.open(newline="") as f:
        return f.read()


def _make_transport(cfg: RunConfig):
    from . import ingest

    if cfg.transport == "live":
        return ingest.LiveTransport(cfg.timeout_s)
    directory = _require(cfg.fixtures, "fixtures directory")
    return ingest.fixture_transport_from_dir(directory)


def _read_counts(paths: tuple[str, ...]):
    """Parse one or more counts CSVs into one set of columns, refusing a
    (station, date) that two files both hold."""
    from . import frames, ingest

    merged = None
    for path in paths:
        data = Path(path)
        if not data.exists():
            raise FileNotFoundError(f"counts file not found: {data}")
        try:
            counts = ingest.parse_counts_csv(data.read_bytes())
        except ParseError as exc:
            raise ParseError(f"{data}: {exc}") from None
        merged = counts if merged is None else frames.merge_counts(merged, counts)
    return merged


def cmd_fetch(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    import datetime as dt
    import json

    from . import catchment, ingest

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
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "counts.csv").write_text(
        ingest.counts_to_csv_text(series[station] for station in sorted(series))
    )
    summary = {"stations": len(series), "rows": sum(len(s) for s in series.values())}
    print(json.dumps(summary) if as_json else
          f"fetched {summary['rows']} rows for {summary['stations']} stations")
    return EXIT_OK


def cmd_derive(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    import csv
    import json

    from . import catchment, frames, ingest

    schedule = frames.PeriodSchedule.from_json(
        _read(_require(cfg.schedule, "schedule"), "schedule")
    )
    stations = catchment.load_stations_csv(_read(_require(cfg.stations, "stations"), "stations"))
    polygons = catchment.load_county_polygons(_read(_require(cfg.counties, "counties"), "counties"))
    schema = ingest.AcsSchema.bundled()
    age_labels = [label for label, _ in schema.age_brackets]
    income = ingest.load_acs_table_csv(_read(_require(cfg.acs_income, "acs_income"), "income table"), "income", schema.income_categories)
    education = ingest.load_acs_table_csv(_read(_require(cfg.acs_education, "acs_education"), "education table"), "education", schema.education_levels)
    age = ingest.load_acs_table_csv(_read(_require(cfg.acs_age, "acs_age"), "age table"), "age", age_labels)
    population = ingest.load_population_csv(_read(_require(cfg.population, "population"), "population table"))
    if not cfg.counts_csv:
        raise ValueError("counts_csv is required for derive")
    counts = _read_counts(cfg.counts_csv)

    assignments, unassigned = catchment.assign_counties(stations, polygons, cfg.radius_m)
    errors: list[tuple[str, str, str]] = []
    for station_id in unassigned:
        errors.append((station_id, "Unassigned", "no county within catchment radius"))

    # Stations that touch the same counties share one profile, computed once
    # per county set, in the order the sets first appear.
    set_of = {s.station_id: tuple(sorted(assignments[s.station_id]))
              for s in stations if assignments[s.station_id]}
    county_sets = list(dict.fromkeys(set_of.values()))
    per_set = dict(zip(county_sets, ingest.census_profiles(
        county_sets, income, education, age, population, schema)))
    profiles: dict[str, frames.SocioeconomicProfile] = {}
    for station_id, counties in set_of.items():
        result = per_set[counties]
        if isinstance(result, BikeplsError):
            errors.append((station_id, type(result).__name__, str(result)))
        else:
            profiles[station_id] = result

    rates, failures = frames.transition_rates(counts, list(profiles), schedule)
    errors += [(sid, type(exc).__name__, str(exc)) for sid, exc in failures.items()]

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "profiles.csv").write_text(frames.profiles_to_csv_text(profiles))
    (out_dir / "transitions.csv").write_text(
        frames.TransitionTable(rates).to_csv_text()
    )
    table_ids = sorted(rates)
    (out_dir / "analysis_table.csv").write_text(frames.analysis_table_to_csv_text(
        table_ids, [rates[s] for s in table_ids], [profiles[s].as_row() for s in table_ids]
    ))
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
    import json

    from . import frames, plsr
    from .report import BUNDLED_TABLE, ReportBundle, bundle_to_json, render_all, write_documents

    if cfg.input:
        table = str(Path(cfg.input).resolve())
        text = _read(cfg.input, "input table")
    else:
        from .reproduce import load_bundled_table

        table, text = BUNDLED_TABLE, load_bundled_table()
    try:
        frame_map = frames.frames_from_analysis_table(text, cfg.standardize_y)
    except (TooFewStations, ZeroVariance) as exc:
        raise type(exc)(f"{cfg.input or 'bundled table'}: {exc}") from None
    fitted = {
        label: (frame, plsr.fit(frame, cfg.components))
        for label, frame in frame_map.items()
    }
    bundle = ReportBundle(fitted)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "analysis.json").write_text(bundle_to_json(bundle, table, text, cfg.standardize_y))
    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    for label, (_, model) in fitted.items():
        (models_dir / f"{label}.json").write_text(plsr.model_to_json(model))
    write_documents(render_all(bundle), out_dir)
    summary = {}
    for label in frames.TRANSITION_LABELS:
        _, model = fitted[label]
        report = plsr.variance_explained(model)
        # a fit that stopped before its first factor explains nothing
        cumulative = report.cumulative_y[-1] if model.n_components else 0.0
        summary[label] = {
            "factors": model.n_components,
            "cumulative_y_variance": round(float(cumulative), 6),
        }
    if as_json:
        print(json.dumps(summary, indent=2))
    else:
        for label, entry in summary.items():
            print(f"{label}: {entry['factors']} factors, "
                  f"cumulative response variance {entry['cumulative_y_variance']:.3f}")
    return EXIT_OK


def cmd_report(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    import json

    from .report import bundle_from_json, render_all, write_documents

    source = cfg.input or str(out_dir / "analysis.json")
    bundle = bundle_from_json(_read(source, "analysis document"))
    written = write_documents(render_all(bundle), out_dir)
    print(json.dumps({"documents": len(written)}) if as_json
          else f"wrote {len(written)} documents under {out_dir}")
    return EXIT_OK


def cmd_reproduce(cfg: RunConfig, out_dir: Path, as_json: bool) -> int:
    from . import reproduce
    from .report import write_documents

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
