import datetime as dt
import re
from fractions import Fraction

import numpy as np
import pytest

from bikepls.errors import (
    EmptyHouseholds,
    EmptyPeriod,
    LengthMismatch,
    ParseError,
    ZeroBaseline,
    ZeroFemale,
    ZeroVariance,
)
from bikepls.frames import (
    PERIOD_LABELS,
    PREDICTOR_NAMES,
    TRANSITION_LABELS,
    AnalysisFrame,
    CountSeries,
    PeriodSchedule,
    SocioeconomicProfile,
    TransitionTable,
    assemble_frame,
    avg_age,
    avg_education,
    avg_income,
    build_frame,
    change_rate,
    frames_from_analysis_table,
    load_analysis_table,
    period_totals,
    population_and_gender,
    profiles_from_csv_text,
    profiles_to_csv_text,
    standardize,
    transition_rates,
)


def d(text):
    return dt.date.fromisoformat(text)


def series(station, *pairs):
    return CountSeries(station, tuple((d(day), count) for day, count in pairs))


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
        totals = period_totals(s, SCHEDULE, 2020)
        assert totals["Pre-Pandemic"] == 12
        assert totals["Pandemic"] == 10
        assert totals["Transition"] == 50
        assert totals["Normalization"] == 7

    def test_empty_window(self):
        s = series("s1", ("2020-01-05", 3), ("2020-04-10", 1), ("2020-06-10", 1))
        with pytest.raises(EmptyPeriod, match="Normalization"):
            period_totals(s, SCHEDULE, 2020)

    def test_year_mapping(self):
        s = series("s1", ("2018-01-05", 2), ("2018-04-10", 1),
                   ("2018-06-10", 1), ("2018-10-01", 1))
        totals = period_totals(s, SCHEDULE, 2018)
        assert totals["Pre-Pandemic"] == 2

    def test_empty_series_invalid(self):
        with pytest.raises(ValueError):
            period_totals(CountSeries("s1", ()), SCHEDULE, 2020)


def _two_year_series(totals_2018, totals_2020):
    """One observation per period carrying that period's whole total."""
    days = ("01-15", "04-15", "07-15", "10-15")
    s18 = series("s", *((f"2018-{day}", t) for day, t in zip(days, totals_2018)))
    s20 = series("s", *((f"2020-{day}", t) for day, t in zip(days, totals_2020)))
    return s18, s20


class TestTransitionRates:
    def test_no_change(self):
        s18, s20 = _two_year_series((10, 10, 10, 10), (10, 10, 10, 10))
        assert transition_rates(s18, s20, SCHEDULE) == (1.0, 1.0, 1.0)

    def test_consecutive_ratios(self):
        # year-over-year ratios (1, 2, 1, 3) -> (2, 0.5, 3)
        s18, s20 = _two_year_series((10, 10, 10, 10), (10, 20, 10, 30))
        rates = transition_rates(s18, s20, SCHEDULE)
        assert rates == pytest.approx((2.0, 0.5, 3.0))

    def test_zero_baseline_propagates(self):
        s18, s20 = _two_year_series((10, 0, 10, 10), (10, 20, 10, 30))
        with pytest.raises(ZeroBaseline):
            transition_rates(s18, s20, SCHEDULE)

    def test_yoy_mode(self):
        s18, s20 = _two_year_series((10, 10, 10, 10), (10, 20, 10, 30))
        assert transition_rates(s18, s20, SCHEDULE, mode="yoy") == \
            pytest.approx((2.0, 1.0, 3.0))

    def test_unknown_mode(self):
        s18, s20 = _two_year_series((1, 1, 1, 1), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            transition_rates(s18, s20, SCHEDULE, mode="bogus")


class TestStandardize:
    def test_hand_computed(self):
        col = standardize([1, 2, 3, 4])
        assert col.source_mean == 2.5
        assert col.source_std == pytest.approx(1.1180, abs=1e-4)
        assert col.values == pytest.approx(
            [-1.3416, -0.4472, 0.4472, 1.3416], abs=1e-4
        )

    def test_constant_column(self):
        with pytest.raises(ZeroVariance):
            standardize([5, 5, 5])

    def test_too_short(self):
        with pytest.raises(ValueError):
            standardize([1.0])

    def test_population_convention_on_reference_income_column(self):
        # The bundled table's columns are already z-scored under the
        # divide-by-n convention: re-deriving their statistics confirms it.
        col = np.array([0.65, 0.79, 0.27, -1.70])
        assert col.mean() == pytest.approx(0.0025, abs=1e-12)
        assert col.var() == pytest.approx(1.002, abs=5e-4)

    def test_idempotent_on_standardized_columns(self, rng):
        for _ in range(50):
            raw = rng.normal(size=int(rng.integers(3, 20))) * 7 + 3
            once = standardize(raw).values
            twice = standardize(once).values
            assert np.abs(twice - once).max() < 1e-9

    def test_output_moments(self, rng):
        for _ in range(50):
            raw = rng.normal(size=int(rng.integers(2, 30))) * rng.uniform(0.1, 50)
            z = standardize(raw).values
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

    def test_income_wrong_length(self):
        with pytest.raises(ValueError):
            avg_income([1] * 9)

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

    def test_age_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            avg_age([1, 2], [20, 40, 60])

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

    def test_placeholder_valid(self):
        PeriodSchedule.placeholder_2020()


class TestCountSeries:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError):
            series("s", ("2020-02-01", 1), ("2020-01-01", 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            series("s", ("2020-01-01", -1))


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
RATES = TransitionTable(
    {
        "a": (1.1, 0.9, 1.2),
        "b": (1.3, 0.8, 1.1),
        "c": (0.9, 1.2, 0.7),
        "d": (1.0, 1.0, 1.4),
    }
)


class TestAssembleFrame:
    def test_columns_standardized(self):
        frame = assemble_frame(PROFILES, RATES, "pre_pandemic_to_pandemic")
        assert frame.x.shape == (4, 5)
        assert np.abs(frame.x.mean(axis=0)).max() < 1e-9
        assert np.abs(frame.x.var(axis=0) - 1).max() < 1e-9
        assert frame.predictor_names == PREDICTOR_NAMES
        assert frame.station_ids == ("a", "b", "c", "d")

    def test_raw_y_by_default(self):
        frame = assemble_frame(PROFILES, RATES, "pandemic_to_transition")
        assert frame.y == pytest.approx([0.9, 0.8, 1.2, 1.0])

    def test_standardize_y_flag(self):
        frame = assemble_frame(PROFILES, RATES, "pandemic_to_transition",
                               standardize_y=True)
        assert abs(frame.y.mean()) < 1e-9
        assert abs(frame.y.var() - 1) < 1e-9

    def test_identical_stations_zero_variance(self):
        twins = _profiles_for({"a": (4.2, 5.1, 35.2, 98000, 0.96),
                               "b": (4.2, 5.1, 35.2, 98000, 0.96)})
        rates = TransitionTable({"a": (1.0, 1.0, 1.0), "b": (1.0, 1.0, 1.0)})
        with pytest.raises(ZeroVariance):
            assemble_frame(twins, rates, "pre_pandemic_to_pandemic")

    def test_station_set_mismatch(self):
        rates = TransitionTable({"a": (1.0, 1.0, 1.0)})
        with pytest.raises(ValueError):
            assemble_frame(PROFILES, rates, "pre_pandemic_to_pandemic")

    def test_unknown_transition(self):
        with pytest.raises(ValueError):
            assemble_frame(PROFILES, RATES, "sideways")


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
        with pytest.raises(ValueError):
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
    (lambda cells: ["1"] + cells[1:], "duplicate station '1'"),
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
        with pytest.raises(ValueError, match="bad analysis table header"):
            load_analysis_table("")

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
        predictor_rows, transitions = load_analysis_table(table1_text)
        ids = tuple(sorted(predictor_rows))
        raw = np.array([predictor_rows[s] for s in ids])
        got = frames_from_analysis_table(table1_text, standardize_y)
        for transition in TRANSITION_LABELS:
            col = transitions.column(transition)
            want = build_frame(ids, raw, np.array([col[s] for s in ids]), transition,
                               standardize_y)
            frame = got[transition]
            for name in ("x", "y", "x_source_means", "x_source_stds"):
                assert getattr(frame, name).tobytes() == getattr(want, name).tobytes()
            assert (frame.station_ids, frame.predictor_names, frame.transition) == \
                (want.station_ids, want.predictor_names, want.transition)


class TestCsvRoundTrips:
    def test_profiles(self):
        text = profiles_to_csv_text(PROFILES)
        back = profiles_from_csv_text(text)
        assert back == PROFILES

    def test_transitions(self):
        text = RATES.to_csv_text()
        back = TransitionTable.from_csv_text(text)
        assert back.rates == RATES.rates

    @pytest.mark.parametrize("row, message", [
        ("a,1.0,2.0,3.0", "duplicate station 'a'"),
        ("b,1.0,2.0", "expected 4 fields, got 3"),
        ("b,1.0,2.0,3.0,4.0", "expected 4 fields, got 5"),
        ("b,1.0,fast,3.0", "bad number 'fast'"),
        ("b,1.0,-inf,3.0", "bad number '-inf'"),
    ])
    def test_transitions_bad_row_names_its_line(self, row, message):
        text = ",".join(("station_id",) + TRANSITION_LABELS) + "\na,1.0,2.0,3.0\n" + row + "\n"
        with pytest.raises(ParseError, match="^" + re.escape(f"transitions line 3: {message}")):
            TransitionTable.from_csv_text(text)


class TestProfileValidation:
    def test_education_range(self):
        with pytest.raises(ValueError):
            SocioeconomicProfile(4.0, 9.5, 30.0, 1000, 1.0)

    def test_population_positive(self):
        with pytest.raises(ValueError):
            SocioeconomicProfile(4.0, 5.0, 30.0, 0, 1.0)
