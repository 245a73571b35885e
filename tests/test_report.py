import csv
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from bikepls import plsr
from bikepls.errors import IncompleteBundle, ShapeMismatch, StaleTable
from bikepls.frames import TRANSITION_LABELS, AnalysisFrame
from bikepls.report import (
    BUNDLE_VERSION,
    BUNDLED_TABLE,
    ReportBundle,
    bundle_from_json,
    bundle_to_json,
    export_figure_data,
    format_cell,
    render_all,
    render_tables,
    write_documents,
)
from conftest import SPECIAL_VALUES


def export_figure_data_oracle(frames):
    """The per-cell figure writer that ``export_figure_data`` replaced,
    quoting as ``csv.writer`` does with its default ``\\r\\n`` terminator
    (which quotes a field holding ``\\r`` or ``\\n``), each line ended by
    ``\\n``."""
    docs = {}
    for period in TRANSITION_LABELS:
        frame = frames[period]
        for j, pname in enumerate(frame.predictor_names):
            rows = [["station_id", "predictor_value", "change_rate"]]
            rows += [[station, repr(float(frame.x[i, j])), repr(float(frame.y[i]))]
                     for i, station in enumerate(frame.station_ids)]
            lines = []
            for row in rows:
                buf = io.StringIO()
                csv.writer(buf).writerow(row)
                lines.append(buf.getvalue()[:-2] + "\n")
            docs[f"figures/{pname}__{period}.csv"] = "".join(lines)
    return docs


# Ids that csv.writer quotes, or that look as if it might.
AWKWARD_IDS = ("a,b", 'say "hi"', " lead", "trail ", "Zürich-Ost", "東京",
               "", "two\nlines", "cr\rlf", "plain")


def _with_special_values(rng, arr):
    mask = rng.random(arr.shape) < 0.3
    arr[mask] = rng.choice(SPECIAL_VALUES, size=int(mask.sum()))
    return arr


def _random_x(rng, n, j):
    return _with_special_values(rng, rng.normal(size=(n, j)) * 10.0 ** rng.integers(-5, 5, size=j))


def _frame(x, y, station_ids, transition=TRANSITION_LABELS[0]):
    j = x.shape[1]
    return AnalysisFrame(
        x=x, y=y, station_ids=station_ids,
        predictor_names=tuple(f"p{k}" for k in range(j)), transition=transition,
        x_source_means=np.zeros(j), x_source_stds=np.ones(j),
    )


@pytest.fixture(scope="module")
def bundle(table1_frames, table1_models):
    return ReportBundle(
        {t: (table1_frames[t], table1_models[t]) for t in TRANSITION_LABELS}
    )


class TestFormatCell:
    def test_three_decimals(self):
        assert format_cell(0.3304) == "0.330"
        assert format_cell(-1.0071) == "-1.007"

    def test_zero_never_blank(self):
        assert format_cell(0.0) == "0.000"
        assert format_cell(-0.0) == "0.000"

    def test_tiny_values_scientific(self):
        assert format_cell(9.54e-5) == "9.54E-05"
        assert format_cell(-3.2e-4) == "-3.20E-04"
        assert format_cell(5e-4) == "0.001"

    def test_reparse_within_rounding_bound(self, rng):
        for _ in range(10_000):
            v = float(rng.normal() * 10.0 ** float(rng.integers(-6, 3)))
            assert abs(float(format_cell(v)) - v) <= 5e-4


class TestRenderTables:
    def test_document_set_layout(self, bundle):
        docs = render_tables(bundle, "csv")
        assert len(docs) == 15  # five tables for each of three periods
        for period in TRANSITION_LABELS:
            for name in ("variance_explained", "weights", "loadings", "vip",
                         "coefficients"):
                assert f"reports/{period}/{name}.csv" in docs

    def test_variance_rows_formatted(self, bundle, table1_models):
        docs = render_tables(bundle, "csv")
        text = docs["reports/pre_pandemic_to_pandemic/variance_explained.csv"]
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["statistic", "factor_1", "factor_2", "factor_3"]
        report = plsr.variance_explained(table1_models["pre_pandemic_to_pandemic"])
        expected = [format_cell(v) for v in report.x_shares]
        assert rows[1] == ["x_variance"] + expected

    def test_weight_table_has_dependent_row(self, bundle):
        docs = render_tables(bundle, "csv")
        text = docs["reports/pandemic_to_transition/weights.csv"]
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[-1][0] == "dependent_variable_weight"
        assert rows[1][0] == "avg_income"

    def test_tiny_cell_renders_scientific(self, bundle):
        text = render_tables(bundle, "csv")[
            "reports/transition_to_normalization/variance_explained.csv"
        ]
        assert "E-0" in text  # the sub-5e-4 third-factor response share

    def test_markdown_roundtrips_to_csv_numbers(self, bundle):
        csv_docs = render_tables(bundle, "csv")
        md_docs = render_tables(bundle, "markdown")
        for path, text in csv_docs.items():
            md_text = md_docs[path.replace(".csv", ".md")]
            csv_rows = list(csv.reader(io.StringIO(text)))
            md_lines = md_text.strip().splitlines()
            md_rows = [
                [cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in [md_lines[0]] + md_lines[2:]
            ]
            assert md_rows == csv_rows

    def test_rendering_is_deterministic(self, bundle, table1_frames, table1_models):
        again = ReportBundle(
            {t: (table1_frames[t], table1_models[t]) for t in TRANSITION_LABELS}
        )
        assert render_all(bundle) == render_all(again)


class TestFigureData:
    def test_fifteen_files_four_rows(self, bundle, table1_frames):
        docs = export_figure_data(table1_frames)
        assert len(docs) == 15
        assert len(set(docs)) == 15
        for path, text in docs.items():
            assert path.startswith("figures/")
            rows = list(csv.reader(io.StringIO(text)))
            assert rows[0] == ["station_id", "predictor_value", "change_rate"]
            assert len(rows) == 5

    def test_values_reparse_exactly(self, bundle, table1_frames):
        docs = export_figure_data(table1_frames)
        frame = table1_frames["pre_pandemic_to_pandemic"]
        text = docs["figures/avg_income__pre_pandemic_to_pandemic.csv"]
        rows = list(csv.reader(io.StringIO(text)))[1:]
        got = np.array([float(r[1]) for r in rows])
        assert np.array_equal(got, frame.x[:, 0])

    def test_single_station_frame(self):
        single = AnalysisFrame(
            x=np.array([[0.5, -0.2]]),
            y=np.array([1.2]),
            station_ids=("solo",),
            predictor_names=("avg_income", "avg_education"),
            transition=TRANSITION_LABELS[0],
            x_source_means=np.zeros(2),
            x_source_stds=np.ones(2),
        )
        frames = {t: single for t in TRANSITION_LABELS}
        docs = export_figure_data(frames)
        rows = list(csv.reader(io.StringIO(
            docs["figures/avg_income__pre_pandemic_to_pandemic.csv"]
        )))
        assert len(rows) == 2

    def test_matches_per_cell_oracle(self, rng):
        for trial in range(60):
            n, j = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            ids = tuple(str(sid) for sid in rng.choice(AWKWARD_IDS, size=n))
            x = _random_x(rng, n, j)
            if trial % 4 == 0:  # one X object shared by every period
                xs = [x, x, x]
            elif trial % 4 == 1:  # equal values in distinct objects
                xs = [x, x.copy(), np.array(x, order="F")]
            elif trial % 4 == 2:  # a different X per period
                xs = [x, _random_x(rng, n, j), x[::-1].copy()]
            else:  # equal as numbers but -0.0 where the first has 0.0
                zeroed = x.copy()
                zeroed[0, 0] = 0.0
                flipped = zeroed.copy()
                flipped[0, 0] = -0.0
                xs = [zeroed, flipped, zeroed.copy()]
            frames = {}
            for period, xp in zip(TRANSITION_LABELS, xs):
                y = _with_special_values(rng, rng.normal(size=n))
                frames[period] = _frame(xp, y, ids, period)
            assert export_figure_data(frames) == export_figure_data_oracle(frames)

    def test_awkward_station_ids_match_oracle(self, rng):
        x = _random_x(rng, len(AWKWARD_IDS), 2)
        frames = {t: _frame(x, rng.normal(size=len(AWKWARD_IDS)), AWKWARD_IDS, t)
                  for t in TRANSITION_LABELS}
        assert export_figure_data(frames) == export_figure_data_oracle(frames)
        for ids in [(sid,) for sid in AWKWARD_IDS]:
            single = _frame(np.array([[-0.0, 5e-324]]), np.array([2.0]), ids)
            frames = {t: single for t in TRANSITION_LABELS}
            assert export_figure_data(frames) == export_figure_data_oracle(frames)

    def test_station_lists_may_differ_by_period(self, rng):
        x = _random_x(rng, 3, 2)
        frames = {t: _frame(x, rng.normal(size=3), (f"{t}-a", "b,c", "d"), t)
                  for t in TRANSITION_LABELS}
        assert export_figure_data(frames) == export_figure_data_oracle(frames)

    def test_bundled_table_matches_oracle(self, table1_frames):
        assert export_figure_data(table1_frames) == export_figure_data_oracle(table1_frames)


def bundled_document(bundle, table1_text):
    return bundle_to_json(bundle, BUNDLED_TABLE, table1_text, False)


class TestBundle:
    def test_requires_all_periods(self, table1_frames, table1_models):
        label = TRANSITION_LABELS[0]
        with pytest.raises(IncompleteBundle):
            ReportBundle({label: (table1_frames[label], table1_models[label])})

    def test_json_round_trip_renders_identically(self, bundle, table1_text):
        text = bundled_document(bundle, table1_text)
        back = bundle_from_json(text)
        assert render_all(back) == render_all(bundle)
        assert bundled_document(back, table1_text) == text

    def test_rejects_version_1_documents(self, bundle, table1_text):
        doc = json.loads(bundled_document(bundle, table1_text))
        doc["version"] = 1
        with pytest.raises(ValueError, match="re-run `analyze`"):
            bundle_from_json(json.dumps(doc))
        # a current bundle that embeds a version-1 model is refused too
        doc["version"] = BUNDLE_VERSION
        doc["periods"][TRANSITION_LABELS[0]]["model"]["version"] = 1
        with pytest.raises(ValueError, match="re-run `analyze`"):
            bundle_from_json(json.dumps(doc))

    def test_round_trip_is_bit_exact(self, bundle, table1_text):
        back = bundle_from_json(bundled_document(bundle, table1_text))
        for period in TRANSITION_LABELS:
            (frame, model), (got, got_model) = bundle.periods[period], back.periods[period]
            for name in ("x", "y", "x_source_means", "x_source_stds"):
                assert getattr(got, name).tobytes() == getattr(frame, name).tobytes()
            assert got.station_ids == frame.station_ids
            assert got.predictor_names == frame.predictor_names
            assert got.transition == period
            assert plsr.model_to_json(got_model) == plsr.model_to_json(model)

    def test_loaded_periods_share_one_matrix(self, bundle, table1_text):
        back = bundle_from_json(bundled_document(bundle, table1_text))
        xs = {id(back.periods[t][0].x) for t in TRANSITION_LABELS}
        assert len(xs) == 1

    def test_document_names_its_table_and_holds_no_samples(self, bundle, table1_text):
        doc = json.loads(bundled_document(bundle, table1_text))
        assert set(doc) == {"format", "version", "table", "table_sha256",
                            "standardize_y", "periods"}
        assert doc["table"] == BUNDLED_TABLE and doc["standardize_y"] is False
        assert len(doc["table_sha256"]) == 64
        found = []

        def walk(node):
            if isinstance(node, dict):
                found.extend(key for key in node if key in ("x", "y"))
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(doc)
        assert found == []
        for period in TRANSITION_LABELS:
            assert set(doc["periods"][period]) == {"model"}

    def test_rejects_version_2_documents(self, bundle, table1_models):
        # the version-2 layout: a full frame, with its own x, per period
        frame = bundle.periods[TRANSITION_LABELS[0]][0]
        doc = {"format": "bikepls-analysis", "version": 2, "periods": {
            t: {"frame": {"x": plsr.matrix_to_doc(frame.x)},
                "model": json.loads(plsr.model_to_json(table1_models[t]))}
            for t in TRANSITION_LABELS
        }}
        with pytest.raises(ValueError, match="version 2 .*re-run `analyze`"):
            bundle_from_json(json.dumps(doc))

    def test_changed_or_missing_table_is_stale(self, bundle, table1_text, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(table1_text)
        text = bundle_to_json(bundle, str(table), table1_text, False)
        assert render_all(bundle_from_json(text)) == render_all(bundle)
        table.write_text(table1_text + "\n")  # a blank line: the same rows, other text
        with pytest.raises(StaleTable,
                           match="^" + re.escape(f"analysis table {table} has changed")):
            bundle_from_json(text)
        table.unlink()
        with pytest.raises(StaleTable, match="^" + re.escape(f"analysis table {table} not found")):
            bundle_from_json(text)

    @pytest.mark.parametrize("field", ["predictor_names", "n_samples"])
    def test_rejects_a_model_fit_to_another_frame(self, field, table1_frames,
                                                  table1_models):
        period = TRANSITION_LABELS[1]
        model = table1_models[period]
        changed = (model.predictor_names[:-1] + ("other",) if field == "predictor_names"
                   else model.n_samples - 1)
        periods = {t: (table1_frames[t], table1_models[t]) for t in TRANSITION_LABELS}
        periods[period] = (table1_frames[period], replace(model, **{field: changed}))
        with pytest.raises(ShapeMismatch, match=f"the {period} model was fit to"):
            ReportBundle(periods)

    def test_accepts_equal_copies(self, table1_frames, table1_models):
        periods = {t: (replace(table1_frames[t], x=table1_frames[t].x.copy()),
                       table1_models[t]) for t in TRANSITION_LABELS}
        assert render_all(ReportBundle(periods)) == render_all(
            ReportBundle({t: (table1_frames[t], table1_models[t]) for t in TRANSITION_LABELS})
        )

    def test_write_documents(self, bundle, tmp_path):
        docs = render_all(bundle)
        written = write_documents(docs, tmp_path)
        assert len(written) == len(docs)
        sample = tmp_path / "reports/pre_pandemic_to_pandemic/vip.csv"
        assert sample.read_text() == docs["reports/pre_pandemic_to_pandemic/vip.csv"]
