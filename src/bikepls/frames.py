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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyHouseholds,
    EmptyPeriod,
    InvalidProfile,
    NonFiniteColumn,
    ParseError,
    TooFewStations,
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


# Day ordinals (``date.toordinal``) stay below 2**22, so a (station, day)
# pair packs into one int64 key.
_DAY_BITS = 22


@dataclass(frozen=True, eq=False)
class Counts:
    """Daily bicycle counts as columns, one row per (station, day).

    ``station`` indexes ``station_ids``, which are in order of first
    appearance; ``day`` holds date ordinals (``date.toordinal``) and
    ``count`` the non-negative totals, int64. Rows are sorted by (station,
    day), with no pair twice.
    """

    station_ids: tuple[str, ...]
    station: np.ndarray
    day: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return len(self.day)

    def keys(self) -> np.ndarray:
        """The sorted (station, day) pairs, one int64 per row."""
        return (self.station << _DAY_BITS) | self.day

    def only(self, station_id: str) -> "Counts":
        """The rows of one station, which must be present."""
        k = self.station_ids.index(station_id)
        lo, hi = np.searchsorted(self.station, [k, k + 1])
        return Counts((station_id,), np.zeros(hi - lo, dtype=np.int64), self.day[lo:hi],
                      self.count[lo:hi])


def sorted_counts(station_ids: Sequence[str], station: np.ndarray, day: np.ndarray,
                  count: np.ndarray) -> tuple[Counts, int | None]:
    """Sort rows into ``Counts``; also return the index of the first row
    (in the given order) that repeats an earlier row's (station, day), or
    None when no pair repeats."""
    keys = (station << _DAY_BITS) | day
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    counts = Counts(tuple(station_ids), station[order], day[order], count[order])
    return counts, (int(repeats.min()) if len(repeats) else None)


def merge_counts(files: Sequence[tuple[str, Counts]]) -> Counts:
    """The rows of one or more files' counts, given as (file name, counts)
    pairs.

    Raises ``ParseError`` naming the first (station, date) of a file that
    an earlier file also holds, with both files: files in order, each
    file's pairs in (station by first appearance, date) order, as a
    file-by-file merge finds it.
    """
    parts = [counts for _, counts in files]
    ids = dict.fromkeys(station for counts in parts for station in counts.station_ids)
    code = {station: k for k, station in enumerate(ids)}
    station = np.concatenate([np.array([code[s] for s in c.station_ids], dtype=np.int64)[c.station]
                              for c in parts])
    day = np.concatenate([c.day for c in parts])
    count = np.concatenate([c.count for c in parts])
    # Each file's rows are in the order above and repeat no pair, so the
    # first row that repeats an earlier one is the first a merge meets.
    merged, repeat = sorted_counts(tuple(ids), station, day, count)
    if repeat is None:
        return merged
    keys = (station << _DAY_BITS) | day
    bounds = np.cumsum([len(c) for c in parts])
    later, earlier = bounds.searchsorted([repeat, np.argmax(keys == keys[repeat])], side="right")
    raise ParseError(f"{files[later][0]}: duplicate observation for "
                     f"({merged.station_ids[station[repeat]]}, "
                     f"{dt.date.fromordinal(int(day[repeat]))}), also in {files[earlier][0]}")


@dataclass(frozen=True)
class PeriodSchedule:
    """The four analysis windows, in fixed order, non-overlapping.

    The source material does not pin the calendar dates; they are
    configuration, and every run supplies its own schedule file
    (``fixtures/schedule.json`` holds a usable 2020 one).
    """

    periods: tuple[tuple[str, dt.date, dt.date], ...]

    def __post_init__(self):
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
        """Build from ``{label: {"start": iso-date, "end": iso-date}}``, whose
        labels are exactly ``PERIOD_LABELS``, in any order. Anything else is
        a ``ValueError`` that names the period at fault."""
        if not isinstance(mapping, Mapping):
            raise ValueError(f"schedule must be an object naming the periods "
                             f"{list(PERIOD_LABELS)}, got {mapping!r}")
        if set(mapping) != set(PERIOD_LABELS):
            raise ValueError(f"schedule must name exactly the periods {list(PERIOD_LABELS)}, "
                             f"got {list(mapping)}")
        periods = []
        for label in PERIOD_LABELS:
            window = mapping[label]
            try:
                periods.append((label, dt.date.fromisoformat(window["start"]),
                                dt.date.fromisoformat(window["end"])))
            except (TypeError, KeyError, ValueError):
                raise ValueError(f"period {label!r} needs a start and an end date "
                                 f"(YYYY-MM-DD), got {window!r}") from None
        return cls(tuple(periods))

    @classmethod
    def from_json(cls, text: str) -> "PeriodSchedule":
        return cls.from_mapping(json.loads(text))


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted only when it holds a comma, a quote,
    ``\\r`` or ``\\n``, with its quotes doubled. Every CSV the package
    writes quotes its text fields by this one rule."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_document(rows: Iterable[Sequence[str]]) -> str:
    """``rows`` of text fields as CSV, each field quoted by ``_csv_field``
    and each line ended by ``\\n``."""
    return "".join([",".join(map(_csv_field, row)) + "\n" for row in rows])


def _csv_text(header: Sequence[str], rows: Iterable[tuple[str, Sequence[float]]]) -> str:
    """``header``, then one ``station,value,...`` line per row, the station
    quoted by ``_csv_field`` and each value written as ``repr(float)`` so
    that it parses back to the same double."""
    lines = [",".join(header)]
    lines += [",".join([_csv_field(station), *(repr(float(v)) for v in values)])
              for station, values in rows]
    return "\n".join(lines) + "\n"


def _csv_rows(text: str, what: str, header: Sequence[str], key: int = 1, optional: int = 0,
              non_negative: bool = False) -> Iterator[tuple[int, list[str], list[float]]]:
    """The rows of a CSV whose first line is exactly ``header``, as
    ``(line, cells, numbers)``.

    Blank lines are skipped. A row has every column of ``header``, or all
    but the last ``optional`` ones. Its first ``key`` cells name it, and no
    two rows share a name. The cells after the key, up to the optional
    columns, are numbers: finite, and not negative when ``non_negative``.

    Raises
    ------
    ParseError
        ``<what>: bad header (...)``, or ``<what> line N: ...`` for the
        first row at fault (or text the csv module refuses), numbered by
        physical line.
    """
    # Lines end at \n, \r\n or a bare \r, as in a file opened with newline="".
    reader = csv.reader(io.StringIO(text, newline=""))
    stop = len(header) - optional
    widths = range(stop, len(header) + 1)
    seen: set = set()
    try:
        found = tuple(next(reader, ()))
        if found != tuple(header):
            raise ParseError(f"{what}: bad header {found}")
        for row in reader:
            if not row:
                continue
            if len(row) not in widths:
                expected = " or ".join(map(str, widths))
                raise ParseError(f"{what} line {reader.line_num}: expected {expected} fields, "
                                 f"got {len(row)}")
            name = row[0] if key == 1 else tuple(row[:key])
            if name in seen:
                key_text = ", ".join(f"{c} {v!r}" for c, v in zip(header, row[:key]))
                raise ParseError(f"{what} line {reader.line_num}: duplicate {key_text}")
            seen.add(name)
            try:
                values = list(map(float, row[key:stop]))
                ok = all(map(math.isfinite, values)) and not (non_negative and min(values) < 0)
            except ValueError:
                ok = False
            if not ok:
                raise ParseError(f"{what} line {reader.line_num}: "
                                 f"{_bad_cell(row[key:stop], non_negative)}")
            yield reader.line_num, row, values
    except csv.Error as exc:
        raise ParseError(f"{what} line {reader.line_num}: {exc}") from None


def _bad_cell(cells: list[str], non_negative: bool) -> str:
    """What is wrong with the first of ``cells`` that is not a finite
    number, or is negative when ``non_negative``."""
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            return f"bad number {cell!r}"
        if non_negative and value < 0:
            return f"negative number {cell!r}"
    raise AssertionError(f"no bad cell in {cells}")


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
            raise InvalidProfile(f"avg_education {self.avg_education} outside [0, 8]")
        if self.male_female_ratio <= 0:
            raise InvalidProfile("male_female_ratio must be positive")
        # census sums can overflow to inf, which makes the averages nan
        for name, value in zip(PREDICTOR_NAMES, self.as_row()):
            if not math.isfinite(value):
                raise InvalidProfile(f"{name} {value} is not finite")

    def as_row(self) -> tuple[float, ...]:
        return (
            self.avg_income,
            self.avg_education,
            self.avg_age,
            self.total_population,
            self.male_female_ratio,
        )


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
    counts: Counts, schedule: PeriodSchedule, year: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sum counts per station and period, with each window mapped onto ``year``.

    Returns two (stations x periods) arrays, stations in
    ``counts.station_ids`` order and periods in schedule order: the totals
    and the number of rows each total holds.
    """
    windows = [(_map_to_year(start, year), _map_to_year(end, year))
               for _, start, end in schedule.periods]
    lo, hi = _window_rows(counts, [w.toordinal() for w, _ in windows],
                          [w.toordinal() for _, w in windows])
    # The running sum may wrap int64, but a difference of two wrapped sums
    # is exact modulo 2**64, and a window's total (at most 366 counts of
    # 15 digits) is below 2**63, so each total is exact.
    cumulative = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts.count)])
    return cumulative[hi] - cumulative[lo], hi - lo


def _window_rows(counts: Counts, first_days, last_days) -> tuple[np.ndarray, np.ndarray]:
    """Row bounds ``[lo, hi)`` of each station's rows within each window of
    days, as two (stations x windows) arrays."""
    base = np.arange(len(counts.station_ids), dtype=np.int64)[:, None] << _DAY_BITS
    keys = counts.keys()
    lo = np.searchsorted(keys, base | np.array(first_days, dtype=np.int64), side="left")
    hi = np.searchsorted(keys, base | np.array(last_days, dtype=np.int64), side="right")
    return lo, hi


def _map_to_year(date: dt.date, year: int) -> dt.date:
    # Feb 29 clamps to Feb 28 when the target year is not a leap year.
    try:
        return date.replace(year=year)
    except ValueError:
        return date.replace(year=year, day=28)


def transition_rates(
    counts: Counts, station_ids: Sequence[str], schedule: PeriodSchedule
) -> tuple[dict[str, tuple[float, float, float]], dict[str, Exception]]:
    """Change rates across the three consecutive period transitions.

    Each period's year-over-year ratio is total_2020 / total_2018, and each
    transition's rate divides the later period's ratio by the earlier's.
    Returns the rates of every station in ``station_ids`` that has them,
    and for each other station the first reason it has none, checked in
    this order: no rows; no rows in 2018 (``ValueError``); an empty 2018
    window (``EmptyPeriod``); the same two for 2020; a zero 2018 total and
    then a zero year-over-year ratio (``ZeroBaseline``), period by period.
    """
    index = {station: k for k, station in enumerate(counts.station_ids)}
    present = [station for station in station_ids if station in index]
    rows = np.array([index[station] for station in present], dtype=np.int64)
    per_year = []
    for year in (2018, 2020):
        totals, sizes = period_totals(counts, schedule, year)
        lo, hi = _window_rows(counts, [dt.date(year, 1, 1).toordinal()],
                              [dt.date(year, 12, 31).toordinal()])
        per_year.append(((hi - lo)[rows, 0], sizes[rows], totals[rows]))
    (in_2018, sizes_2018, t18), (in_2020, sizes_2020, t20) = per_year
    valid = ((in_2018 > 0) & (sizes_2018 > 0).all(axis=1) & (in_2020 > 0)
             & (sizes_2020 > 0).all(axis=1) & (t18 > 0).all(axis=1))
    yoy = np.asarray(t20[valid] / t18[valid], dtype=float).reshape(-1, len(PERIOD_LABELS))
    nonzero = (yoy[:, :-1] != 0).all(axis=1)
    ok = valid.copy()
    ok[valid] = nonzero
    rates = dict(zip([present[k] for k in np.flatnonzero(ok).tolist()],
                     map(tuple, (yoy[nonzero, 1:] / yoy[nonzero, :-1]).tolist())))

    failures: dict[str, Exception] = {}
    for k in np.flatnonzero(~ok).tolist():
        failures[present[k]] = _first_failure(
            present[k], schedule, *((n[k], sizes[k], t[k]) for n, sizes, t in per_year))
    return rates, {
        station: failures.get(station) or EmptyPeriod("no count observations")
        for station in station_ids if station not in rates
    }


def _first_failure(station: str, schedule: PeriodSchedule, *per_year) -> Exception:
    """The reason a station with rows has no rates, from its row count,
    window sizes and window totals in 2018 and in 2020."""
    for year, (in_year, sizes, _) in zip((2018, 2020), per_year):
        if in_year == 0:
            return ValueError(f"station {station!r} has no observations")
        for (label, start, end), size in zip(schedule.periods, sizes):
            if size == 0:
                return EmptyPeriod(
                    f"station {station!r} has no observations in "
                    f"{label!r} ({_map_to_year(start, year)}..{_map_to_year(end, year)})"
                )
    (_, _, t18), (_, _, t20) = per_year
    if not all(t18):
        return ZeroBaseline("change rate undefined: previous period total is zero")
    yoy = [a / b for a, b in zip(t20.tolist(), t18.tolist())]
    earlier = PERIOD_LABELS[yoy[:-1].index(0)]
    return ZeroBaseline(
        f"year-over-year ratio for {earlier!r} is zero; transition rate undefined"
    )


def standardize(column: Sequence[float],
                name: str = "column") -> tuple[np.ndarray, float, float]:
    """Z-score a column using its mean and population standard deviation;
    return the z-scores with that mean and deviation.

    The population convention (divide by n) is used throughout the package:
    re-standardizing an already standardized column is then an identity up
    to floating point.

    Raises
    ------
    NonFiniteColumn
        If the mean or the deviation overflows (see ``_moments``).
    ZeroVariance
        If every value is identical (non-informative predictor); the
        message names the column as ``name``.
    """
    values = np.asarray(column, dtype=float)
    mean, std = _moments(values, name)
    if std == 0.0:
        raise ZeroVariance(f"{name} is constant; standardization undefined")
    return (values - mean) / std, mean, std


def _moments(values: np.ndarray, name: str) -> tuple[float, float]:
    """The mean and population standard deviation of a column of finite
    values, or ``NonFiniteColumn`` naming it as ``name`` when either
    overflows a double (as it does for ``1e308, 1e308``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std = float(values.std())  # population: ddof=0
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise NonFiniteColumn(f"{name} overflows: its mean or standard deviation "
                              "is not a finite double")
    return mean, std


def avg_income(category_counts: Sequence[float]) -> float:
    """Household-weighted mean income level over the ten ordinal categories.

    Categories are indexed 0..9 in ascending income order and the index is
    used as the weight level.
    """
    return _weighted_level(category_counts, "income categories")


def avg_education(level_counts: Sequence[float]) -> float:
    """Household-weighted mean education level over the nine levels 0..8."""
    return _weighted_level(level_counts, "education levels")


def _weighted_level(counts: Sequence[float], what: str) -> float:
    total = sum(counts)
    if total == 0:
        raise EmptyHouseholds(f"no households across {what}")
    return sum(i * c for i, c in enumerate(counts)) / total


def avg_age(
    bracket_counts: Sequence[float], bracket_levels: Sequence[float]
) -> float:
    """Count-weighted mean of the age-bracket levels."""
    total = sum(bracket_counts)
    if total == 0:
        raise EmptyHouseholds("no population across age brackets")
    return sum(c * l for c, l in zip(bracket_counts, bracket_levels)) / total


def population_and_gender(male: float, female: float) -> tuple[float, float]:
    """Total population and male-to-female ratio from raw head counts."""
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
    j = raw_predictors.shape[1]
    names = PREDICTOR_NAMES[:j] if j <= len(PREDICTOR_NAMES) else tuple(f"x{k}" for k in range(j))
    cols, means, stds = zip(*(standardize(column, f"predictor {name!r}")
                              for name, column in zip(names, raw_predictors.T)))
    return AnalysisFrame(
        x=np.column_stack(cols),
        y=_response(y_raw, standardize_y, transition),
        station_ids=tuple(station_ids),
        predictor_names=names,
        transition=transition,
        x_source_means=np.array(means),
        x_source_stds=np.array(stds),
    )


def _response(y_raw: np.ndarray, standardize_y: bool, transition: str) -> np.ndarray:
    """The response column, z-scored when ``standardize_y``. A raw one must
    also have a finite mean and deviation, as the fit centers it and sums
    its squares."""
    y_raw = np.asarray(y_raw, dtype=float)
    name = f"response {transition!r}"
    if standardize_y:
        return standardize(y_raw, name)[0]
    _moments(y_raw, name)
    return np.array(y_raw, dtype=float)


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

    A plain table (no quote, carriage return or NUL, the header first, no
    line over the csv field size limit, 9 fields on each non-blank line,
    finite values, distinct ids) is read in one pass, splitting lines at
    commas as ``csv.reader`` would; any other text row by row by ``_csv_rows``.

    Raises
    ------
    ParseError
        For a bad header, or naming the line of a row with the wrong number
        of fields, a cell that is not a finite number, or a station seen on
        an earlier line.
    """
    head = ",".join(ANALYSIS_TABLE_HEADER) + "\n"
    ids: list[str] = []

    def plain_cells() -> Iterator[str]:
        if not text.startswith(head) or any(c in text for c in '"\r\x00'):
            raise ValueError("not a plain table")
        for line in filter(None, text[len(head):].split("\n")):
            row = line.split(",")
            if len(row) != len(ANALYSIS_TABLE_HEADER) or len(line) > csv.field_size_limit():
                raise ValueError("not a plain table")
            ids.append(row[0])
            yield from row[1:]

    try:
        values = np.fromiter(map(float, plain_cells()), float)
        if not np.isfinite(values).all() or len(set(ids)) < len(ids):
            raise ValueError("not a plain table")
    except ValueError:
        rows = {cells[0]: numbers
                for _, cells, numbers in _csv_rows(text, "analysis table", ANALYSIS_TABLE_HEADER)}
        ids, values = list(rows), np.array(list(rows.values()), dtype=float)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    values = values.reshape(len(ids), len(ANALYSIS_TABLE_HEADER) - 1)[order]
    n_rates = len(TRANSITION_LABELS)
    return tuple(ids[k] for k in order), values[:, :n_rates].copy(), values[:, n_rates:].copy()


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

    Raises
    ------
    TooFewStations
        If the table holds fewer than two stations.
    """
    station_ids, rates, predictors = load_analysis_table(text)
    if len(station_ids) < 2:
        raise TooFewStations(
            f"the analysis table has {len(station_ids)} station(s); a fit needs at least 2"
        )
    first = TRANSITION_LABELS[0]
    shared = build_frame(station_ids, predictors, rates[:, 0], first, standardize_y)
    return {
        transition: replace(
            shared, y=_response(rates[:, k], standardize_y, transition), transition=transition
        )
        for k, transition in enumerate(TRANSITION_LABELS)
    }


def profiles_to_csv_text(profiles: Mapping[str, SocioeconomicProfile]) -> str:
    return _csv_text(
        PROFILES_CSV_HEADER, ((s, profiles[s].as_row()) for s in sorted(profiles))
    )


def transitions_to_csv_text(rates: Mapping[str, Sequence[float]]) -> str:
    """``transitions.csv``: each station's three change rates, stations
    sorted, as ``transition_rates`` returns them."""
    return _csv_text(TRANSITIONS_CSV_HEADER, ((s, rates[s]) for s in sorted(rates)))
