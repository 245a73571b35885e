import csv
import io
import json

import numpy as np
import pytest

from bikepls import plsr
from bikepls.errors import IncompleteBundle
from bikepls.frames import TRANSITION_LABELS, AnalysisFrame
from bikepls.report import (
    ReportBundle,
    bundle_from_json,
    bundle_to_json,
    export_figure_data,
    format_cell,
    render_all,
    render_tables,
    write_documents,
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

    def test_unknown_format(self, bundle):
        with pytest.raises(ValueError):
            render_tables(bundle, "html")

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

    def test_missing_period(self, table1_frames):
        partial = {TRANSITION_LABELS[0]: table1_frames[TRANSITION_LABELS[0]]}
        with pytest.raises(IncompleteBundle):
            export_figure_data(partial)


class TestBundle:
    def test_requires_all_periods(self, table1_frames, table1_models):
        label = TRANSITION_LABELS[0]
        with pytest.raises(IncompleteBundle):
            ReportBundle({label: (table1_frames[label], table1_models[label])})

    def test_json_round_trip_renders_identically(self, bundle):
        back = bundle_from_json(bundle_to_json(bundle))
        assert render_all(back) == render_all(bundle)
        assert bundle_to_json(back) == bundle_to_json(bundle)

    def test_rejects_version_1_documents(self, bundle):
        doc = json.loads(bundle_to_json(bundle))
        doc["version"] = 1
        with pytest.raises(ValueError, match="re-run `analyze`"):
            bundle_from_json(json.dumps(doc))
        # a current bundle that embeds a version-1 model is refused too
        doc["version"] = 2
        doc["periods"][TRANSITION_LABELS[0]]["model"]["version"] = 1
        with pytest.raises(ValueError, match="re-run `analyze`"):
            bundle_from_json(json.dumps(doc))

    def test_write_documents(self, bundle, tmp_path):
        docs = render_all(bundle)
        written = write_documents(docs, tmp_path)
        assert len(written) == len(docs)
        sample = tmp_path / "reports/pre_pandemic_to_pandemic/vip.csv"
        assert sample.read_text() == docs["reports/pre_pandemic_to_pandemic/vip.csv"]
