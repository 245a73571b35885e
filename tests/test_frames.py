import csv
import datetime as dt
import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikepls import frames
from bikepls.errors import (
    EmptyHouseholds,
    EmptyPeriod,
    InvalidProfile,
    ParseError,
    ZeroBaseline,
    ZeroFemale,
    ZeroVariance,
)
from bikepls.frames import (
    ANALYSIS_TABLE_HEADER,
    PERIOD_LABELS,
    PREDICTOR_NAMES,
    TRANSITION_LABELS,
    AnalysisFrame,
    Counts,
    PeriodSchedule,
    SocioeconomicProfile,
    analysis_table_to_csv_text,
    avg_age,
    avg_education,
    avg_income,
    build_frame,
    change_rate,
    frames_from_analysis_table,
    load_analysis_table,
    merge_counts,
    period_totals,
    population_and_gender,
    profiles_to_csv_text,
    standardize,
    transition_rates,
    transitions_to_csv_text,
)
from bikepls.ingest import parse_counts_csv
from conftest import SPECIAL_VALUES


def d(text):
    return dt.date.fromisoformat(text)


def counts_of(rows) -> Counts:
    """Columns parsed from ``(station, iso date, count)`` rows."""
    text = "station_id,date,count\n" + "".join(f"{s},{day},{c}\n" for s, day, c in rows)
    return parse_counts_csv(text.encode())


def series(station, *pairs):
    return [(station, day, count) for day, count in pairs]


SCHEDULE = PeriodSchedule.from_mapping(
    {
        "Pre-Pandemic": {"start": "2020-01-01", "end": "2020-03-15"},
        "Pandemic": {"start": "2020-03-16", "end": "2020-05-31"},
        "Transition": {"start": "2020-06-01", "end": "2020-08-31"},
        "Normalization": {"start": "2020-09-01", "end": "2020-12-31"},
    }
)


class TestChangeRate:
    def test_simple_ratio(self):
        assert change_rate(150, 100) == 1.5

    def test_identity(self):
        assert change_rate(500, 500) == 1.0

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            change_rate(7, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            change_rate(-1, 10)

    def test_telescoping_exact_on_rationals(self, rng):
        for _ in range(200):
            a, b, c = (
                Fraction(int(rng.integers(1, 500)), int(rng.integers(1, 500)))
                for _ in range(3)
            )
            assert change_rate(a, b) * change_rate(b, c) == change_rate(a, c)


class TestPeriodTotals:
    def test_partition_sums(self):
        s = series(
            "s1",
            ("2020-01-05", 3), ("2020-02-05", 4), ("2020-03-05", 5),
            ("2020-04-10", 10),
            ("2020-06-10", 20), ("2020-07-10", 30),
            ("2020-10-01", 7),
        )
        totals, sizes = period_totals(counts_of(s), SCHEDULE, 2020)
        assert totals.tolist() == [[12, 10, 50, 7]]
        assert sizes.tolist() == [[3, 1, 2, 1]]

    def test_empty_window(self):
        s = series("s1", ("2020-01-05", 3), ("2020-04-10", 1), ("2020-06-10", 1))
        _, sizes = period_totals(counts_of(s), SCHEDULE, 2020)
        assert sizes.tolist() == [[1, 1, 1, 0]]
        s18 = series("s1", *((day, 1) for day in ("2018-01-15", "2018-04-15",
                                                  "2018-07-15", "2018-10-15")))
        _, failures = transition_rates(counts_of(s18 + s), ["s1"], SCHEDULE)
        assert isinstance(failures["s1"], EmptyPeriod)
        assert str(failures["s1"]) == ("station 's1' has no observations in "
                                       "'Normalization' (2020-09-01..2020-12-31)")

    def test_year_mapping(self):
        s = series("s1", ("2018-01-05", 2), ("2018-04-10", 1),
                   ("2018-06-10", 1), ("2018-10-01", 1))
        totals, _ = period_totals(counts_of(s), SCHEDULE, 2018)
        assert totals[0, 0] == 2

    def test_totals_exact_where_the_running_sum_wraps(self):
        # 15-digit counts on 30 stations x 366 days: the running sum over
        # all rows passes 2**63, yet every window total is the exact sum
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(366)]
        rows = [(f"s{k}", str(day), 10**15 - 1 - (k * 366 + j) % 977)
                for k in range(30) for j, day in enumerate(days)]
        counts = counts_of(rows)
        assert sum(c for _, _, c in rows) >= 2**63
        totals, _ = period_totals(counts, SCHEDULE, 2020)
        want = [[sum(c for s, day, c in rows if s == station and start <= d(day) <= end)
                 for _, start, end in SCHEDULE.periods] for station in counts.station_ids]
        assert totals.dtype == np.int64 and totals.tolist() == want

    def test_empty_series_invalid(self):
        # a station with rows, but none in 2020
        s18, _ = _two_year_series((1, 1, 1, 1), (1, 1, 1, 1))
        _, failures = transition_rates(counts_of(s18), ["s"], SCHEDULE)
        assert type(failures["s"]) is ValueError
        assert str(failures["s"]) == "station 's' has no observations"


def _two_year_series(totals_2018, totals_2020):
    """One observation per period carrying that period's whole total."""
    days = ("01-15", "04-15", "07-15", "10-15")
    s18 = series("s", *((f"2018-{day}", t) for day, t in zip(days, totals_2018)))
    s20 = series("s", *((f"2020-{day}", t) for day, t in zip(days, totals_2020)))
    return s18, s20


def rates_of(totals_2018, totals_2020):
    s18, s20 = _two_year_series(totals_2018, totals_2020)
    return transition_rates(counts_of(s18 + s20), ["s"], SCHEDULE)


class TestTransitionRates:
    def test_no_change(self):
        rates, failures = rates_of((10, 10, 10, 10), (10, 10, 10, 10))
        assert rates == {"s": (1.0, 1.0, 1.0)} and failures == {}

    def test_consecutive_ratios(self):
        # year-over-year ratios (1, 2, 1, 3) -> (2, 0.5, 3)
        rates, _ = rates_of((10, 10, 10, 10), (10, 20, 10, 30))
        assert rates["s"] == pytest.approx((2.0, 0.5, 3.0))

    def test_zero_baseline_propagates(self):
        rates, failures = rates_of((10, 0, 10, 10), (10, 20, 10, 30))
        assert rates == {}
        assert isinstance(failures["s"], ZeroBaseline)

    def test_zero_year_over_year_ratio(self):
        rates, failures = rates_of((10, 10, 10, 10), (10, 0, 10, 30))
        assert rates == {}
        assert str(failures["s"]) == ("year-over-year ratio for 'Pandemic' is zero; "
                                      "transition rate undefined")
        # a zero ratio in the last period divides nothing
        rates, failures = rates_of((10, 10, 10, 10), (10, 10, 10, 0))
        assert rates == {"s": (1.0, 1.0, 0.0)} and failures == {}

    def test_station_without_rows(self):
        rates, failures = transition_rates(counts_of([]), ["s"], SCHEDULE)
        assert rates == {}
        assert (type(failures["s"]), str(failures["s"])) == \
            (EmptyPeriod, "no count observations")


def merge_oracle(parts):
    """The dict merge the column merge replaced: files in order, each
    file's stations in order of first appearance, dates ascending."""
    merged: dict[str, dict] = {}
    held: dict[tuple[str, dt.date], str] = {}
    for name, rows in parts:
        series: dict[str, dict] = {}
        for station, day, count in rows:
            series.setdefault(station, {})[d(day)] = count
        for station, dates in series.items():
            per_station = merged.setdefault(station, {})
            for date, count in sorted(dates.items()):
                if date in per_station:
                    raise ParseError(f"{name}: duplicate observation for ({station}, {date}), "
                                     f"also in {held[station, date]}")
                per_station[date] = count
                held[station, date] = name
    return {station: sorted(dates.items()) for station, dates in merged.items()}


class TestMergeCounts:
    def test_against_dict_merge(self, rng):
        days = [str(dt.date(2020, 1, 1) + dt.timedelta(days=k)) for k in range(40)]
        for _ in range(200):
            parts = []
            for k in range(int(rng.integers(1, 5))):
                rows = {(f"s{int(rng.integers(0, 5))}", days[int(rng.integers(0, 40))]): 1
                        for _ in range(int(rng.integers(0, 25)))}
                parts.append((f"file{k}.csv",
                              [(s, day, int(rng.integers(0, 9))) for s, day in rows]))
            try:
                want = merge_oracle(parts)
            except ParseError as exc:
                want = str(exc)
            try:
                merged = merge_counts([(name, counts_of(rows)) for name, rows in parts])
            except ParseError as exc:
                got = str(exc)
            else:
                assert (np.diff(merged.keys()) > 0).all()
                got = {station: [] for station in merged.station_ids}
                for k, day, count in zip(merged.station.tolist(), merged.day.tolist(),
                                         merged.count.tolist()):
                    got[merged.station_ids[k]].append((dt.date.fromordinal(day), count))
                assert list(got) == list(want)
            assert got == want


def period_totals_oracle(entries, schedule, year, station):
    """The per-entry window scan the column totals replaced."""
    if not entries:
        raise ValueError(f"station {station!r} has no observations")
    totals = {}
    for label, start, end in schedule.periods:
        w_start, w_end = _map_to_year(start, year), _map_to_year(end, year)
        in_window = [count for date, count in entries if w_start <= date <= w_end]
        if not in_window:
            raise EmptyPeriod(
                f"station {station!r} has no observations in "
                f"{label!r} ({w_start}..{w_end})"
            )
        totals[label] = sum(in_window)
    return totals


def _map_to_year(date, year):
    try:
        return date.replace(year=year)
    except ValueError:
        return date.replace(year=year, day=28)


def transition_rates_oracle(entries, schedule, station):
    """One station's rates as the per-station code computed them."""
    if not entries:
        raise EmptyPeriod("no count observations")
    totals_2018 = period_totals_oracle(
        sorted(e for e in entries if e[0].year == 2018), schedule, 2018, station)
    totals_2020 = period_totals_oracle(
        sorted(e for e in entries if e[0].year == 2020), schedule, 2020, station)
    yoy = {label: change_rate(totals_2020[label], totals_2018[label])
           for label in PERIOD_LABELS}
    rates = []
    for earlier, later in zip(PERIOD_LABELS, PERIOD_LABELS[1:]):
        if yoy[earlier] == 0:
            raise ZeroBaseline(
                f"year-over-year ratio for {earlier!r} is zero; transition rate undefined"
            )
        rates.append(yoy[later] / yoy[earlier])
    return tuple(rates)


def random_schedule(rng):
    """Four ordered windows inside one year, sometimes starting or ending
    on Feb 29 of the leap year the windows are written in."""
    year = int(rng.choice([2016, 2019, 2020]))
    days = (dt.date(year, 12, 31) - dt.date(year, 1, 1)).days + 1
    cuts = rng.choice(np.arange(days), size=8, replace=False)
    if year != 2019 and rng.random() < 0.3 and 59 not in cuts:
        cuts[rng.integers(8)] = 59  # Feb 29
    cuts = sorted(cuts.tolist())
    day = lambda k: dt.date(year, 1, 1) + dt.timedelta(days=int(k))
    mapping = {}
    for label, (a, b) in zip(PERIOD_LABELS, zip(cuts[0::2], cuts[1::2])):
        mapping[label] = {"start": str(day(a)), "end": str(day(b))}
    try:
        return PeriodSchedule.from_mapping(mapping)
    except ValueError:
        return SCHEDULE


class TestTransitionRatesAgainstOracle:
    """The first reason a station has no rates, and its rates otherwise,
    match the per-station code the column version replaced."""

    def test_random_stations(self, rng):
        for _ in range(40):
            schedule = random_schedule(rng)
            rows = []
            for k in range(12):
                zeros = rng.choice([0.0, 0.3, 0.95])
                for year in (2018, 2019, 2020):
                    density = rng.choice([0.0, 0.01, 0.05, 0.5, 1.0])
                    start = dt.date(year, 1, 1)
                    n = (dt.date(year, 12, 31) - start).days + 1
                    for offset in np.flatnonzero(rng.random(n) < density).tolist():
                        count = 0 if rng.random() < zeros else int(rng.integers(0, 400))
                        rows.append((f"s{k}", start + dt.timedelta(days=offset), count))
            order = rng.permutation(len(rows)).tolist()
            counts = counts_of([rows[i] for i in order])
            stations = [f"s{k}" for k in range(14)]  # two have no rows at all
            rates, failures = transition_rates(counts, stations, schedule)
            assert list(rates) + list(failures) == [s for s in stations if s in rates] + \
                [s for s in stations if s in failures]
            for station in stations:
                entries = [(day, c) for s, day, c in rows if s == station]
                try:
                    want = transition_rates_oracle(entries, schedule, station)
                except (ValueError, EmptyPeriod, ZeroBaseline) as exc:
                    assert station not in rates
                    got = failures[station]
                    assert (type(got), str(got)) == (type(exc), str(exc))
                else:
                    assert station not in failures
                    assert np.array(rates[station]).tobytes() == np.array(want).tobytes()


class TestStandardize:
    def test_hand_computed(self):
        values, mean, std = standardize([1, 2, 3, 4])
        assert mean == 2.5
        assert std == pytest.approx(1.1180, abs=1e-4)
        assert values == pytest.approx(
            [-1.3416, -0.4472, 0.4472, 1.3416], abs=1e-4
        )

    def test_constant_column(self):
        with pytest.raises(ZeroVariance, match="^column is constant; standardization undefined$"):
            standardize([5, 5, 5])

    def test_population_convention_on_reference_income_column(self):
        # The bundled table's columns are already z-scored under the
        # divide-by-n convention: re-deriving their statistics confirms it.
        col = np.array([0.65, 0.79, 0.27, -1.70])
        assert col.mean() == pytest.approx(0.0025, abs=1e-12)
        assert col.var() == pytest.approx(1.002, abs=5e-4)

    def test_idempotent_on_standardized_columns(self, rng):
        for _ in range(50):
            raw = rng.normal(size=int(rng.integers(3, 20))) * 7 + 3
            once, _, _ = standardize(raw)
            twice, _, _ = standardize(once)
            assert np.abs(twice - once).max() < 1e-9

    def test_output_moments(self, rng):
        for _ in range(50):
            raw = rng.normal(size=int(rng.integers(2, 30))) * rng.uniform(0.1, 50)
            z, _, _ = standardize(raw)
            assert abs(z.mean()) < 1e-9
            assert abs(z.var() - 1.0) < 1e-9


class TestWeightedAverages:
    def test_income_degenerate_mass(self):
        counts = [0] * 9 + [100]
        assert avg_income(counts) == 9.0

    def test_income_two_point(self):
        assert avg_income([2, 2, 0, 0, 0, 0, 0, 0, 0, 0]) == 0.5

    def test_income_uniform(self):
        assert avg_income([1] * 10) == 4.5

    def test_income_empty(self):
        with pytest.raises(EmptyHouseholds):
            avg_income([0] * 10)

    def test_education_top_level(self):
        assert avg_education([0] * 8 + [50]) == 8.0

    def test_education_uniform(self):
        assert avg_education([1] * 9) == 4.0

    def test_education_empty(self):
        with pytest.raises(EmptyHouseholds):
            avg_education([0] * 9)

    def test_bounds(self, rng):
        for _ in range(100):
            counts = rng.integers(0, 50, size=10)
            if counts.sum() == 0:
                counts[0] = 1
            assert 0.0 <= avg_income(list(counts)) <= 9.0

    def test_age_single_bracket(self):
        assert avg_age([10], [35]) == 35

    def test_age_two_brackets(self):
        assert avg_age([1, 1], [20, 40]) == 30

    def test_age_weighted(self):
        assert avg_age([1, 2, 1], [20, 40, 60]) == 40

    def test_age_empty(self):
        with pytest.raises(EmptyHouseholds):
            avg_age([0, 0], [20, 40])


class TestPopulationAndGender:
    def test_balanced(self):
        assert population_and_gender(100, 100) == (200, 1.0)

    def test_no_males(self):
        assert population_and_gender(0, 50) == (50, 0.0)

    def test_ratio(self):
        assert population_and_gender(120, 80) == (200, 1.5)

    def test_zero_female(self):
        with pytest.raises(ZeroFemale):
            population_and_gender(10, 0)


class TestSchedule:
    def test_labels_fixed_order(self):
        # the windows come out in PERIOD_LABELS order whatever the key order
        mapping = {label: {"start": str(start), "end": str(end)}
                   for label, start, end in reversed(SCHEDULE.periods)}
        schedule = PeriodSchedule.from_mapping(mapping)
        assert tuple(label for label, _, _ in schedule.periods) == PERIOD_LABELS
        assert schedule == SCHEDULE

    def test_missing_label(self):
        with pytest.raises(ValueError):
            PeriodSchedule.from_mapping({"Pandemic": {"start": "2020-01-01", "end": "2020-02-01"}})

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PeriodSchedule.from_mapping(
                {
                    "Pre-Pandemic": {"start": "2020-01-01", "end": "2020-03-15"},
                    "Pandemic": {"start": "2020-03-10", "end": "2020-05-31"},
                    "Transition": {"start": "2020-06-01", "end": "2020-08-31"},
                    "Normalization": {"start": "2020-09-01", "end": "2020-12-31"},
                }
            )

    def test_start_after_end(self):
        with pytest.raises(ValueError, match="start after end"):
            PeriodSchedule.from_mapping(
                {
                    "Pre-Pandemic": {"start": "2020-03-15", "end": "2020-01-01"},
                    "Pandemic": {"start": "2020-03-16", "end": "2020-05-31"},
                    "Transition": {"start": "2020-06-01", "end": "2020-08-31"},
                    "Normalization": {"start": "2020-09-01", "end": "2020-12-31"},
                }
            )

    def test_window_across_new_year_rejected(self):
        # totals map a window onto one year, which such a window cannot fit
        with pytest.raises(ValueError, match="^period 'Normalization' crosses New Year"):
            PeriodSchedule.from_mapping(
                {
                    "Pre-Pandemic": {"start": "2020-01-01", "end": "2020-03-15"},
                    "Pandemic": {"start": "2020-03-16", "end": "2020-05-31"},
                    "Transition": {"start": "2020-06-01", "end": "2020-10-31"},
                    "Normalization": {"start": "2020-11-01", "end": "2021-02-28"},
                }
            )


def _profiles_for(values_by_station):
    return {
        sid: SocioeconomicProfile(*vals) for sid, vals in values_by_station.items()
    }


PROFILES = _profiles_for(
    {
        "a": (4.2, 5.1, 35.2, 98000, 0.96),
        "b": (4.5, 5.6, 34.1, 120000, 0.99),
        "c": (3.8, 4.9, 38.5, 75000, 1.02),
        "d": (5.0, 6.0, 31.0, 140000, 0.94),
    }
)
RATES = {
    "a": (1.1, 0.9, 1.2),
    "b": (1.3, 0.8, 1.1),
    "c": (0.9, 1.2, 0.7),
    "d": (1.0, 1.0, 1.4),
}


def table_text(profiles, rates, order=None):
    """An analysis table of ``profiles`` and ``rates``, rows in ``order``."""
    ids = sorted(profiles) if order is None else order
    return analysis_table_to_csv_text(
        ids, [rates[s] for s in ids], [profiles[s].as_row() for s in ids]
    )


class TestAssembleFrame:
    """Frame assembly, which only ``frames_from_analysis_table`` does."""

    def test_columns_standardized(self):
        frame = frames_from_analysis_table(table_text(PROFILES, RATES))[
            "pre_pandemic_to_pandemic"]
        assert frame.x.shape == (4, 5)
        assert np.abs(frame.x.mean(axis=0)).max() < 1e-9
        assert np.abs(frame.x.var(axis=0) - 1).max() < 1e-9
        assert frame.predictor_names == PREDICTOR_NAMES
        assert frame.station_ids == ("a", "b", "c", "d")

    def test_rows_sorted_by_station(self):
        shuffled = frames_from_analysis_table(
            table_text(PROFILES, RATES, order=["c", "a", "d", "b"]))
        for transition, frame in frames_from_analysis_table(
                table_text(PROFILES, RATES)).items():
            other = shuffled[transition]
            assert other.station_ids == ("a", "b", "c", "d")
            assert other.x.tobytes() == frame.x.tobytes()
            assert other.y.tobytes() == frame.y.tobytes()

    def test_predictor_order(self):
        frame = frames_from_analysis_table(table_text(PROFILES, RATES))[
            "pre_pandemic_to_pandemic"]
        raw = frame.x * frame.x_source_stds + frame.x_source_means
        expected = np.array([PROFILES[s].as_row() for s in "abcd"])
        assert np.allclose(raw, expected, rtol=1e-12)

    def test_raw_y_by_default(self):
        frame = frames_from_analysis_table(table_text(PROFILES, RATES))[
            "pandemic_to_transition"]
        assert frame.y.tolist() == [0.9, 0.8, 1.2, 1.0]

    def test_standardize_y_flag(self):
        frames = frames_from_analysis_table(table_text(PROFILES, RATES),
                                            standardize_y=True)
        for frame in frames.values():
            assert abs(frame.y.mean()) < 1e-9
            assert abs(frame.y.var() - 1) < 1e-9

    def test_identical_stations_zero_variance(self):
        twins = _profiles_for({"a": (4.2, 5.1, 35.2, 98000, 0.96),
                               "b": (4.2, 5.1, 35.2, 98000, 0.96)})
        rates = {"a": (1.0, 1.0, 1.0), "b": (1.0, 1.0, 1.0)}
        with pytest.raises(ZeroVariance, match="^predictor 'avg_income' is constant; "):
            frames_from_analysis_table(table_text(twins, rates))

    def test_constant_response_named_when_standardized(self):
        rates = {s: (1.0, 2.0 + k, 3.0) for k, s in enumerate(sorted(PROFILES))}
        text = table_text(PROFILES, rates)
        assert frames_from_analysis_table(text)["pre_pandemic_to_pandemic"].y.tolist() == \
            [1.0] * len(PROFILES)
        with pytest.raises(ZeroVariance, match="^response 'pre_pandemic_to_pandemic' is "
                                               "constant; standardization undefined$"):
            frames_from_analysis_table(text, standardize_y=True)


class TestAnalysisTable:
    def test_bundled_shape(self, table1_frames):
        for label in TRANSITION_LABELS:
            frame = table1_frames[label]
            assert frame.x.shape == (4, 5)
            assert frame.y.shape == (4,)

    def test_uncentered_response_column_kept_raw(self, table1_frames):
        # One period's printed response column is uncentered; with the
        # flag unset its mean must survive assembly untouched.
        frame = table1_frames["pandemic_to_transition"]
        assert frame.y.mean() == pytest.approx(0.5275, abs=1e-12)

    def test_standardize_y_reproduces_printed_column(self, table1_text):
        # The pre-pandemic printed column is already z-scored, so
        # re-standardizing changes it only by print rounding.
        frames_std = frames_from_analysis_table(table1_text, standardize_y=True)
        frames_raw = frames_from_analysis_table(table1_text, standardize_y=False)
        label = "pre_pandemic_to_pandemic"
        diff = np.abs(frames_std[label].y - frames_raw[label].y).max()
        assert diff < 0.005

    def test_bad_header(self):
        with pytest.raises(ParseError,
                           match=r"^analysis table: bad header \('station', 'avg_income'\)$"):
            load_analysis_table("station,avg_income\n0,1\n")

    def test_duplicate_station(self, table1_text):
        lines = table1_text.strip().splitlines()
        with pytest.raises(ParseError, match=f"line {len(lines) + 1}: duplicate"):
            load_analysis_table("\n".join(lines + [lines[1]]))


# Edits of one analysis-table row (a list of cells) and the error they give.
BAD_ROW_EDITS = [
    (lambda cells: cells + ["7"], "expected 9 fields, got 10"),
    (lambda cells: cells[:-1], "expected 9 fields, got 8"),
    (lambda cells: cells[:6] + ["n/a"] + cells[7:], "bad number 'n/a'"),
    (lambda cells: cells[:2] + [""] + cells[3:], "bad number ''"),
    (lambda cells: cells[:2] + ["inf"] + cells[3:], "bad number 'inf'"),
    (lambda cells: cells[:8] + ["nan"], "bad number 'nan'"),
    (lambda cells: ["1"] + cells[1:], "duplicate station_id '1'"),
]


class TestAnalysisTableRows:
    @pytest.mark.parametrize("edit, message", BAD_ROW_EDITS)
    def test_bad_row_names_its_line(self, table1_text, edit, message):
        lines = table1_text.strip().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        with pytest.raises(ParseError, match="^" + re.escape(f"analysis table line 4: {message}")):
            load_analysis_table("\n".join(lines) + "\n")

    def test_line_numbers_count_blank_lines(self, table1_text):
        lines = table1_text.strip().splitlines()
        text = "\n".join(lines[:2] + ["", ""] + lines[2:] + [lines[1]]) + "\n"
        with pytest.raises(ParseError, match="analysis table line 8: duplicate"):
            load_analysis_table(text)

    def test_empty_text_is_a_bad_header(self):
        with pytest.raises(ParseError, match=r"^analysis table: bad header \(\)$"):
            load_analysis_table("")

    def test_field_over_the_csv_limit_names_its_line(self, table1_text):
        lines = table1_text.strip().splitlines()
        lines[2] = "x" * (csv.field_size_limit() + 1) + lines[2]
        with pytest.raises(ParseError, match=r"^analysis table line 3: field larger than "):
            load_analysis_table("\n".join(lines) + "\n")

    def test_frames_share_one_predictor_matrix(self, table1_frames):
        first = table1_frames[TRANSITION_LABELS[0]]
        for frame in table1_frames.values():
            assert frame.x is first.x
            assert frame.x_source_means is first.x_source_means
            assert frame.x_source_stds is first.x_source_stds
            assert frame.station_ids is first.station_ids
        assert not first.x.flags.writeable

    @pytest.mark.parametrize("standardize_y", [False, True])
    def test_frames_equal_one_build_per_transition(self, table1_text, standardize_y):
        # the frames the per-transition build_frame calls gave, bit for bit
        ids, rates, predictors = load_analysis_table(table1_text)
        got = frames_from_analysis_table(table1_text, standardize_y)
        for k, transition in enumerate(TRANSITION_LABELS):
            want = build_frame(ids, predictors, np.array(rates[:, k]), transition,
                               standardize_y)
            frame = got[transition]
            for name in ("x", "y", "x_source_means", "x_source_stds"):
                assert getattr(frame, name).tobytes() == getattr(want, name).tobytes()
            assert (frame.station_ids, frame.predictor_names, frame.transition) == \
                (want.station_ids, want.predictor_names, want.transition)


def load_analysis_table_oracle(text):
    """The row-by-row reader that ``load_analysis_table`` was before its
    one-pass read of plain tables."""
    rows = {cells[0]: values for _, cells, values
            in frames._csv_rows(text, "analysis table", ANALYSIS_TABLE_HEADER)}
    station_ids = tuple(sorted(rows))
    values = np.array([rows[s] for s in station_ids], dtype=float)
    values = values.reshape(-1, len(ANALYSIS_TABLE_HEADER) - 1)
    return station_ids, values[:, :3].copy(), values[:, 3:].copy()


def table_outcome(load, text):
    """The ids and the bytes of the two arrays, or the error's type and text."""
    try:
        ids, rates, predictors = load(text)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc).__name__, str(exc)
    return ids, rates.shape, rates.tobytes(), predictors.shape, predictors.tobytes()


TABLE_HEAD = ",".join(ANALYSIS_TABLE_HEADER)
TABLE_IDS = ["a", "b", "c", "st00001", "st00002", "Zürich", "東京", "a b", "", "b "]
PLAIN_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr) \
    | st.floats(-1e3, 1e3).map("{:.6f}".format) | st.sampled_from(["0", "-0", "7", "1e3"])
# Cells that ``float`` refuses, reads as non-finite, or reads though they
# are not in the plain decimal forms above.
ODD_CELLS = st.sampled_from(["nan", "inf", "-inf", "high", "1_000", " 1.5", "1.5 ", "",
                             "+2", "١", "0x10", '"2.5"', '"3', "1\x002"])
# Whole-line faults, and lines the csv module reads in its own way.
ODD_LINES = st.sampled_from([
    "", "   ", '"q,1",1,2,3,4,5,6,7,8', 'a"b,1,2,3,4,5,6,7,8', "cr\r1,2,3,4,5,6,7,8,9",
    "nul\x00,1,2,3,4,5,6,7,8", "eight,1,2,3,4,5,6,7", "ten,1,2,3,4,5,6,7,8,9",
    "{long},1,2,3,4,5,6,7,8",
])


def _table_line(row):
    station, cells = row
    return ",".join([station, *cells])


@st.composite
def mixed_tables(draw):
    """Plain rows with, now and then, a fallback trigger among them."""
    plain_only = draw(st.booleans())
    cells = PLAIN_CELLS if plain_only else PLAIN_CELLS | ODD_CELLS
    rows = draw(st.lists(st.tuples(st.sampled_from(TABLE_IDS),
                                   st.lists(cells, min_size=8, max_size=8)),
                         max_size=12, unique_by=(lambda row: row[0]) if plain_only else None))
    lines = [_table_line(row) for row in rows]
    if not plain_only:
        for line in draw(st.lists(ODD_LINES, max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))),
                         line.replace("{long}", "x" * (csv.field_size_limit() + 1)))
    head = draw(st.sampled_from([TABLE_HEAD] * 4 + [TABLE_HEAD + ",extra", TABLE_HEAD.upper(),
                                                    TABLE_HEAD + "\r"]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return end.join([head, *lines]) + draw(st.sampled_from([end, ""]))


class TestAnalysisTableBatchRead:
    """A plain table read in one pass, and any other text read row by row,
    give the row reader's ids and values, or its ``ParseError``."""

    @settings(max_examples=400, deadline=None)
    @given(text=mixed_tables())
    def test_matches_the_row_reader(self, text):
        assert table_outcome(load_analysis_table, text) == \
            table_outcome(load_analysis_table_oracle, text)

    def test_plain_tables_take_the_one_pass(self, table1_text, rng, monkeypatch):
        ids = [f"st{k:05d}" for k in rng.permutation(50)]
        rates, predictors = rng.normal(size=(50, 3)), rng.normal(size=(50, 5))
        for text in (table1_text, analysis_table_to_csv_text(ids, rates, predictors),
                     table1_text + "\n\n", table1_text.rstrip("\n")):
            want = table_outcome(load_analysis_table_oracle, text)
            with monkeypatch.context() as m:
                m.setattr(frames, "_csv_rows", None)  # the row reader is not called
                assert table_outcome(load_analysis_table, text) == want

    @pytest.mark.parametrize("edit, plain", [
        (lambda lines: lines.insert(2, '"q",1,2,3,4,5,6,7,8'), False),
        (lambda lines: lines.__setitem__(1, lines[1] + "\r"), False),
        (lambda lines: lines.__setitem__(1, "\x00" + lines[1]), False),
        (lambda lines: lines.insert(2, "x" * (csv.field_size_limit() + 1)), False),
        (lambda lines: lines.__setitem__(1, lines[1] + ",9"), False),
        (lambda lines: lines.__setitem__(1, lines[1].rsplit(",", 1)[0]), False),
        (lambda lines: lines.__setitem__(1, lines[1].rsplit(",", 1)[0] + ",nan"), False),
        (lambda lines: lines.append(lines[1]), False),
        (lambda lines: lines.__setitem__(0, lines[0] + ","), False),
        # forms that ``float`` reads, so both passes take them
        (lambda lines: lines.__setitem__(1, lines[1].rsplit(",", 1)[0] + ",1_000"), True),
        (lambda lines: lines.__setitem__(1, lines[1].rsplit(",", 1)[0] + ", 1.5"), True),
    ], ids=["quote", "cr", "nul", "long-line", "10-fields", "8-fields", "nan", "repeated-id",
            "header", "underscore", "space"])
    def test_which_tables_take_the_row_reader(self, table1_text, edit, plain, monkeypatch):
        lines = table1_text.split("\n")
        edit(lines)
        text = "\n".join(lines)
        want = table_outcome(load_analysis_table_oracle, text)
        calls = []
        row_reader = frames._csv_rows
        monkeypatch.setattr(frames, "_csv_rows",
                            lambda *args: calls.append(args) or row_reader(*args))
        assert table_outcome(load_analysis_table, text) == want
        assert len(calls) == (0 if plain else 1)


def assert_table_round_trip(ids, rates, predictors):
    """The writer and ``load_analysis_table`` invert each other exactly."""
    text = analysis_table_to_csv_text(ids, rates, predictors)
    got_ids, got_rates, got_predictors = load_analysis_table(text)
    assert got_ids == tuple(ids)
    assert got_rates.shape == (len(ids), 3) and got_predictors.shape == (len(ids), 5)
    assert got_rates.tobytes() == np.asarray(rates, dtype=float).tobytes()
    assert got_predictors.tobytes() == np.asarray(predictors, dtype=float).tobytes()
    assert analysis_table_to_csv_text(got_ids, got_rates, got_predictors) == text


class TestCsvRoundTrips:
    def test_profiles(self):
        # profiles.csv has no reader in the package; every cell of the
        # writer's text parses back to the same double
        rows = list(csv.reader(io.StringIO(profiles_to_csv_text(PROFILES))))
        assert tuple(rows[0]) == ("station_id",) + PREDICTOR_NAMES
        assert [row[0] for row in rows[1:]] == sorted(PROFILES)
        back = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert back.tobytes() == np.array(
            [PROFILES[s].as_row() for s in sorted(PROFILES)]).tobytes()

    def test_transitions(self):
        values = np.resize(SPECIAL_VALUES, (4, 3))
        rates = {s: tuple(row) for s, row in zip("dcba", values.tolist())}
        rows = list(csv.reader(io.StringIO(transitions_to_csv_text(rates))))
        assert tuple(rows[0]) == ("station_id",) + TRANSITION_LABELS
        assert [row[0] for row in rows[1:]] == ["a", "b", "c", "d"]
        back = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert back.tobytes() == values[::-1].tobytes()

    def test_analysis_table_random_values(self, rng):
        # random bit patterns: subnormals, huge and tiny magnitudes, both signs
        cells = rng.integers(0, 2**64, size=(50, 8), dtype=np.uint64).view(float)
        cells[~np.isfinite(cells)] = 0.5
        ids = sorted(f"s{i}" for i in range(50))
        assert_table_round_trip(ids, cells[:, :3], cells[:, 3:])

    def test_analysis_table_special_values(self):
        n = len(SPECIAL_VALUES)
        # every value lands in every column
        cells = np.array([np.roll(SPECIAL_VALUES, k)[:8] for k in range(n)])
        assert_table_round_trip([f"s{k:02d}" for k in range(n)], cells[:, :3], cells[:, 3:])

    def test_analysis_table_awkward_station_ids(self, rng):
        ids = sorted(["a,b", 'say "hi"', "Zürich", "東京", "plain", " padded "])
        cells = rng.normal(size=(len(ids), 8))
        assert_table_round_trip(ids, cells[:, :3], cells[:, 3:])

    def test_header_is_the_readers(self):
        text = analysis_table_to_csv_text([], [], [])
        assert text == ",".join(ANALYSIS_TABLE_HEADER) + "\n"
        ids, rates, predictors = load_analysis_table(text)
        assert ids == () and rates.shape == (0, 3) and predictors.shape == (0, 5)


class TestProfileValidation:
    def test_education_range(self):
        with pytest.raises(InvalidProfile, match=r"^avg_education 9\.5 outside \[0, 8\]$"):
            SocioeconomicProfile(4.0, 9.5, 30.0, 1000, 1.0)

    def test_ratio_positive(self):
        with pytest.raises(InvalidProfile, match="^male_female_ratio must be positive$"):
            SocioeconomicProfile(4.0, 5.0, 30.0, 1000, 0.0)

    @pytest.mark.parametrize("values, message", [
        ((math.nan, 5.0, 30.0, 1000, 1.0), "avg_income nan is not finite"),
        ((4.0, 5.0, -math.inf, 1000, 1.0), "avg_age -inf is not finite"),
        ((4.0, 5.0, 30.0, math.inf, 1.0), "total_population inf is not finite"),
        ((4.0, 5.0, 30.0, 1000, math.inf), "male_female_ratio inf is not finite"),
    ])
    def test_values_finite(self, values, message):
        with pytest.raises(InvalidProfile, match=f"^{message}$"):
            SocioeconomicProfile(*values)
