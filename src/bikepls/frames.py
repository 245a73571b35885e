"""Analysis-ready matrices from raw counts and socioeconomic aggregates.

Builds the pieces the regression consumes: per-period count totals,
year-over-year change rates for the three period transitions, z-scored
predictor columns, and the assembled predictor/response frame.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyHouseholds,
    EmptyPeriod,
    LengthMismatch,
    ParseError,
    ZeroBaseline,
    ZeroFemale,
    ZeroVariance,
)

PERIOD_LABELS = ("Pre-Pandemic", "Pandemic", "Transition", "Normalization")

TRANSITION_LABELS = (
    "pre_pandemic_to_pandemic",
    "pandemic_to_transition",
    "transition_to_normalization",
)

PREDICTOR_NAMES = (
    "avg_income",
    "avg_education",
    "avg_age",
    "total_population",
    "male_female_ratio",
)

COUNTS_CSV_HEADER = ("station_id", "date", "count")
PROFILES_CSV_HEADER = ("station_id",) + PREDICTOR_NAMES
TRANSITIONS_CSV_HEADER = ("station_id",) + TRANSITION_LABELS
ANALYSIS_TABLE_HEADER = ("station_id",) + TRANSITION_LABELS + PREDICTOR_NAMES


@dataclass(frozen=True)
class CountSeries:
    """Dated bicycle counts for one station, strictly date-ordered."""

    station_id: str
    entries: tuple[tuple[dt.date, int], ...]

    def __post_init__(self):
        prev = None
        for date, count in self.entries:
            if count < 0:
                raise ValueError(f"negative count {count} on {date}")
            if prev is not None and date <= prev:
                raise ValueError(f"dates not strictly increasing at {date}")
            prev = date

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PeriodSchedule:
    """The four analysis windows, in fixed order, non-overlapping.

    The source material does not pin the calendar dates; they are
    configuration. ``placeholder_2020`` documents a usable default but any
    real run should supply its own schedule file.
    """

    periods: tuple[tuple[str, dt.date, dt.date], ...]

    def __post_init__(self):
        labels = tuple(label for label, _, _ in self.periods)
        if labels != PERIOD_LABELS:
            raise ValueError(
                f"schedule must contain exactly {PERIOD_LABELS} in order, got {labels}"
            )
        prev_end = None
        for label, start, end in self.periods:
            if start > end:
                raise ValueError(f"period {label!r} has start after end")
            # Totals map each window onto one calendar year (see period_totals),
            # which cannot hold a window that crosses New Year.
            if start.year != end.year:
                raise ValueError(
                    f"period {label!r} crosses New Year ({start}..{end}); "
                    "each window must lie within one calendar year"
                )
            if prev_end is not None and start <= prev_end:
                raise ValueError(f"period {label!r} overlaps the previous period")
            prev_end = end

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Mapping[str, str]]) -> "PeriodSchedule":
        """Build from ``{label: {"start": iso-date, "end": iso-date}}``."""
        periods = []
        for label in PERIOD_LABELS:
            if label not in mapping:
                raise ValueError(f"schedule is missing period {label!r}")
            window = mapping[label]
            periods.append(
                (
                    label,
                    dt.date.fromisoformat(window["start"]),
                    dt.date.fromisoformat(window["end"]),
                )
            )
        return cls(tuple(periods))

    @classmethod
    def from_json(cls, text: str) -> "PeriodSchedule":
        return cls.from_mapping(json.loads(text))

    @classmethod
    def placeholder_2020(cls) -> "PeriodSchedule":
        """Documented placeholder windows over the 2020 calendar."""
        return cls.from_mapping(
            {
                "Pre-Pandemic": {"start": "2020-01-01", "end": "2020-03-15"},
                "Pandemic": {"start": "2020-03-16", "end": "2020-05-31"},
                "Transition": {"start": "2020-06-01", "end": "2020-08-31"},
                "Normalization": {"start": "2020-09-01", "end": "2020-12-31"},
            }
        )


@dataclass(frozen=True)
class TransitionTable:
    """Per-station change rates for the three consecutive transitions."""

    rates: Mapping[str, tuple[float, float, float]]

    def __post_init__(self):
        for station, row in self.rates.items():
            if len(row) != len(TRANSITION_LABELS):
                raise ValueError(f"station {station!r} must have exactly 3 rates")
            if not all(np.isfinite(row)):
                raise ValueError(f"station {station!r} has a non-finite rate")

    def to_csv_text(self) -> str:
        return _csv_text(
            TRANSITIONS_CSV_HEADER, ((s, self.rates[s]) for s in sorted(self.rates))
        )


def _csv_text(header: Sequence[str], rows: Iterable[tuple[str, Sequence[float]]]) -> str:
    """``header``, then one ``station,value,...`` line per row, each value
    written as ``repr(float)`` so that it parses back to the same double."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([station] + [repr(float(v)) for v in values] for station, values in rows)
    return buf.getvalue()


def _finite_number(where: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"{where}: bad number {cell!r}")
    return value


@dataclass(frozen=True)
class SocioeconomicProfile:
    """Catchment-level aggregates used as the five predictors."""

    avg_income: float
    avg_education: float
    avg_age: float
    total_population: float
    male_female_ratio: float

    def __post_init__(self):
        if not 0.0 <= self.avg_education <= 8.0:
            raise ValueError(f"avg_education {self.avg_education} outside [0, 8]")
        if self.total_population <= 0:
            raise ValueError("total_population must be positive")
        if self.male_female_ratio <= 0:
            raise ValueError("male_female_ratio must be positive")

    def as_row(self) -> tuple[float, ...]:
        return (
            self.avg_income,
            self.avg_education,
            self.avg_age,
            self.total_population,
            self.male_female_ratio,
        )


@dataclass(frozen=True)
class StandardizedColumn:
    """A z-scored column together with its source statistics."""

    values: np.ndarray
    source_mean: float
    source_std: float

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class AnalysisFrame:
    """Standardized predictor matrix X paired with a response column y.

    ``x`` holds one z-scored column per predictor; ``x_source_means`` /
    ``x_source_stds`` retain the statistics needed to place new raw rows on
    the same scale. ``y`` is kept exactly as assembled (raw ratios unless
    response standardization was requested).
    """

    x: np.ndarray
    y: np.ndarray
    station_ids: tuple[str, ...]
    predictor_names: tuple[str, ...]
    transition: str
    x_source_means: np.ndarray
    x_source_stds: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2:
            raise ValueError("x must be two-dimensional")
        n, j = self.x.shape
        if self.y.shape != (n,):
            raise ValueError(f"y must have shape ({n},), got {self.y.shape}")
        if len(self.station_ids) != n or len(self.predictor_names) != j:
            raise ValueError("label lengths do not match matrix shape")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("frame contains non-finite entries")
        for arr in (self.x, self.y, self.x_source_means, self.x_source_stds):
            arr.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_predictors(self) -> int:
        return self.x.shape[1]


def change_rate(n_t: float, n_prev: float) -> float:
    """Ratio of usage in a period to usage in the preceding one.

    Raises
    ------
    ZeroBaseline
        If ``n_prev`` is zero, which makes the station-period unusable.
    """
    if n_t < 0 or n_prev < 0:
        raise ValueError("counts must be non-negative")
    if n_prev == 0:
        raise ZeroBaseline("change rate undefined: previous period total is zero")
    return n_t / n_prev


def period_totals(
    series: CountSeries, schedule: PeriodSchedule, year: int
) -> dict[str, int]:
    """Sum counts per period, with each window mapped onto ``year``.

    Raises
    ------
    EmptyPeriod
        If any window contains no observation for the station.
    """
    if len(series) == 0:
        raise ValueError(f"station {series.station_id!r} has no observations")
    totals: dict[str, int] = {}
    for label, start, end in schedule.periods:
        w_start = _map_to_year(start, year)
        w_end = _map_to_year(end, year)
        in_window = [count for date, count in series.entries if w_start <= date <= w_end]
        if not in_window:
            raise EmptyPeriod(
                f"station {series.station_id!r} has no observations in "
                f"{label!r} ({w_start}..{w_end})"
            )
        totals[label] = sum(in_window)
    return totals


def _map_to_year(date: dt.date, year: int) -> dt.date:
    # Feb 29 clamps to Feb 28 when the target year is not a leap year.
    try:
        return date.replace(year=year)
    except ValueError:
        return date.replace(year=year, day=28)


def transition_rates(
    series_2018: CountSeries,
    series_2020: CountSeries,
    schedule: PeriodSchedule,
    mode: str = "ratio_of_ratios",
) -> tuple[float, float, float]:
    """Change rates across the three consecutive period transitions.

    Each period's year-over-year ratio is total_2020 / total_2018. The
    default ``ratio_of_ratios`` mode divides consecutive year-over-year
    ratios; ``yoy`` instead reports the later period's ratio directly.

    Raises
    ------
    ZeroBaseline
        If any denominator along the way is zero.
    """
    if mode not in ("ratio_of_ratios", "yoy"):
        raise ValueError(f"unknown mode {mode!r}")
    totals_2018 = period_totals(series_2018, schedule, 2018)
    totals_2020 = period_totals(series_2020, schedule, 2020)
    yoy = {
        label: change_rate(totals_2020[label], totals_2018[label])
        for label in PERIOD_LABELS
    }
    rates = []
    for earlier, later in zip(PERIOD_LABELS, PERIOD_LABELS[1:]):
        if mode == "yoy":
            rates.append(yoy[later])
        else:
            if yoy[earlier] == 0:
                raise ZeroBaseline(
                    f"year-over-year ratio for {earlier!r} is zero; "
                    "transition rate undefined"
                )
            rates.append(yoy[later] / yoy[earlier])
    return tuple(rates)


def standardize(column: Sequence[float]) -> StandardizedColumn:
    """Z-score a column using its mean and population standard deviation.

    The population convention (divide by n) is used throughout the package:
    re-standardizing an already standardized column is then an identity up
    to floating point.

    Raises
    ------
    ZeroVariance
        If every value is identical (non-informative predictor).
    """
    values = np.asarray(column, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("standardize needs a one-dimensional column of length >= 2")
    mean = float(values.mean())
    std = float(values.std())  # population: ddof=0
    if std == 0.0:
        raise ZeroVariance("column is constant; standardization undefined")
    return StandardizedColumn((values - mean) / std, mean, std)


def avg_income(category_counts: Sequence[float]) -> float:
    """Household-weighted mean income level over the ten ordinal categories.

    Categories are indexed 0..9 in ascending income order and the index is
    used as the weight level.
    """
    return _weighted_level(category_counts, expected=10, what="income categories")


def avg_education(level_counts: Sequence[float]) -> float:
    """Household-weighted mean education level over the nine levels 0..8."""
    return _weighted_level(level_counts, expected=9, what="education levels")


def _weighted_level(counts: Sequence[float], expected: int, what: str) -> float:
    if len(counts) != expected:
        raise ValueError(f"expected {expected} {what}, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("category counts must be non-negative")
    total = sum(counts)
    if total == 0:
        raise EmptyHouseholds(f"no households across {what}")
    return sum(i * c for i, c in enumerate(counts)) / total


def avg_age(
    bracket_counts: Sequence[float], bracket_levels: Sequence[float]
) -> float:
    """Count-weighted mean of the age-bracket levels."""
    if len(bracket_counts) != len(bracket_levels):
        raise LengthMismatch(
            f"{len(bracket_counts)} counts vs {len(bracket_levels)} levels"
        )
    if any(c < 0 for c in bracket_counts):
        raise ValueError("bracket counts must be non-negative")
    total = sum(bracket_counts)
    if total == 0:
        raise EmptyHouseholds("no population across age brackets")
    return sum(c * l for c, l in zip(bracket_counts, bracket_levels)) / total


def population_and_gender(male: float, female: float) -> tuple[float, float]:
    """Total population and male-to-female ratio from raw head counts."""
    if male < 0 or female < 0:
        raise ValueError("head counts must be non-negative")
    if female == 0:
        raise ZeroFemale("male/female ratio undefined: zero female count")
    return male + female, male / female


def build_frame(
    station_ids: Sequence[str],
    raw_predictors: np.ndarray,
    y_raw: np.ndarray,
    transition: str,
    standardize_y: bool = False,
) -> AnalysisFrame:
    """Standardize raw predictor columns and wrap them as a frame."""
    raw_predictors = np.asarray(raw_predictors, dtype=float)
    cols, means, stds = [], [], []
    for j in range(raw_predictors.shape[1]):
        col = standardize(raw_predictors[:, j])
        cols.append(col.values)
        means.append(col.source_mean)
        stds.append(col.source_std)
    return AnalysisFrame(
        x=np.column_stack(cols),
        y=_response(y_raw, standardize_y),
        station_ids=tuple(station_ids),
        predictor_names=PREDICTOR_NAMES[: raw_predictors.shape[1]]
        if raw_predictors.shape[1] <= len(PREDICTOR_NAMES)
        else tuple(f"x{j}" for j in range(raw_predictors.shape[1])),
        transition=transition,
        x_source_means=np.array(means),
        x_source_stds=np.array(stds),
    )


def _response(y_raw: np.ndarray, standardize_y: bool) -> np.ndarray:
    y_raw = np.asarray(y_raw, dtype=float)
    y = standardize(y_raw).values if standardize_y else y_raw
    return np.array(y, dtype=float)


def load_analysis_table(
    text: str,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Parse a combined analysis table CSV into columns.

    Expected header: ``ANALYSIS_TABLE_HEADER``, that is ``station_id``, the
    three transition columns, then the five predictor columns. Returns the
    station ids in sorted order with their (n, 3) rate array and (n, 5)
    predictor array, rows in the same order. Predictors are returned raw
    (the table may already be on an arbitrary scale, so no profile-level
    range validation applies).

    Raises
    ------
    ParseError
        Naming the line of a row with the wrong number of fields, a cell
        that is not a finite number, or a station seen on an earlier line.
    """
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if header != ANALYSIS_TABLE_HEADER:
        raise ValueError(f"bad analysis table header: {header}")
    width = len(ANALYSIS_TABLE_HEADER)
    rows: dict[str, list[float]] = {}
    for row in reader:
        if not row:
            continue
        where = f"analysis table line {reader.line_num}"
        if len(row) != width:
            raise ParseError(f"{where}: expected {width} fields, got {len(row)}")
        if row[0] in rows:
            raise ParseError(f"{where}: duplicate station {row[0]!r}")
        rows[row[0]] = [_finite_number(where, cell) for cell in row[1:]]
    station_ids = tuple(sorted(rows))
    values = np.array([rows[s] for s in station_ids], dtype=float).reshape(-1, width - 1)
    n_rates = len(TRANSITION_LABELS)
    return station_ids, values[:, :n_rates].copy(), values[:, n_rates:].copy()


def analysis_table_to_csv_text(
    station_ids: Sequence[str], rates: np.ndarray, predictors: np.ndarray
) -> str:
    """Write the columns ``load_analysis_table`` returns back as CSV text.

    Rows come out in the given order, so sorted ids make this the exact
    inverse of ``load_analysis_table``: every cell is ``repr(float)`` and
    parses back to the same double.
    """
    return _csv_text(
        ANALYSIS_TABLE_HEADER,
        ((s, (*r, *p)) for s, r, p in zip(station_ids, rates, predictors)),
    )


def frames_from_analysis_table(
    text: str, standardize_y: bool = False
) -> dict[str, AnalysisFrame]:
    """Build one frame per transition from a combined analysis table CSV.

    Stations are ordered by id; predictor columns follow
    ``PREDICTOR_NAMES``. The predictors are z-scored once: the three frames
    share one read-only ``x`` with its source statistics and differ only in
    ``y``, which is z-scored only when ``standardize_y`` is set.
    """
    station_ids, rates, predictors = load_analysis_table(text)
    first = TRANSITION_LABELS[0]
    shared = build_frame(station_ids, predictors, rates[:, 0], first, standardize_y)
    return {
        transition: replace(
            shared, y=_response(rates[:, k], standardize_y), transition=transition
        )
        for k, transition in enumerate(TRANSITION_LABELS)
    }


def profiles_to_csv_text(profiles: Mapping[str, SocioeconomicProfile]) -> str:
    return _csv_text(
        PROFILES_CSV_HEADER, ((s, profiles[s].as_row()) for s in sorted(profiles))
    )
