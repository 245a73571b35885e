"""Rendering of fitted diagnostics as tables and plot-ready scatter data.

Tables print with 3 decimal places; tiny nonzero magnitudes fall back to
scientific notation so they never render as a bare ``0.000``. Rendering is
a pure function of the bundle so equal bundles produce byte-identical
documents.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import IncompleteBundle
from .frames import TRANSITION_LABELS, AnalysisFrame
from .plsr import (
    PlsModel,
    check_document,
    coefficients,
    matrix_from_doc,
    matrix_to_doc,
    model_from_json,
    model_to_json,
    variance_explained,
    vip_table,
)

BUNDLE_VERSION = 2

TABLE_NAMES = ("variance_explained", "weights", "loadings", "vip", "coefficients")

SCI_THRESHOLD = 5e-4


def format_cell(value: float) -> str:
    """Three decimals, or 2-digit scientific for tiny nonzero magnitudes."""
    if value == 0:
        return "0.000"
    if abs(value) < SCI_THRESHOLD:
        return f"{value:.2E}"
    return f"{value:.3f}"


@dataclass(frozen=True)
class ReportBundle:
    """Frames and fitted models for all three period transitions."""

    periods: Mapping[str, tuple[AnalysisFrame, PlsModel]]

    def __post_init__(self):
        missing = [t for t in TRANSITION_LABELS if t not in self.periods]
        if missing:
            raise IncompleteBundle(f"bundle is missing transitions: {missing}")


def _table_rows(frame: AnalysisFrame, model: PlsModel, name: str) -> tuple[list[str], list[list[str]]]:
    """Header and formatted body rows for one table."""
    A = model.n_components
    factor_cols = [f"factor_{a}" for a in range(1, A + 1)]
    if name == "variance_explained":
        report = variance_explained(model)
        header = ["statistic"] + factor_cols
        body = [[label] + [format_cell(v) for v in values]
                for label, values in report.rows()]
    elif name == "weights":
        header = ["variable"] + factor_cols
        body = [[pname] + [format_cell(v) for v in model.x_rotations[j]]
                for j, pname in enumerate(frame.predictor_names)]
        body.append(["dependent_variable_weight"]
                    + [format_cell(v) for v in model.y_loadings])
    elif name == "loadings":
        header = ["variable"] + factor_cols
        body = [[pname] + [format_cell(v) for v in model.x_loadings[j]]
                for j, pname in enumerate(frame.predictor_names)]
        # The PLS1 response direction is the unit scalar for every factor.
        body.append(["dependent_variable_loading"] + [format_cell(1.0)] * A)
    elif name == "vip":
        header = ["variable"] + factor_cols
        table = vip_table(model)
        body = [[pname] + [format_cell(v) for v in table[j]]
                for j, pname in enumerate(frame.predictor_names)]
    elif name == "coefficients":
        header = ["variable", "coefficient"]
        coef = coefficients(model)
        body = [["constant", format_cell(coef.intercept)]]
        body += [[pname, format_cell(coef.values[j])]
                 for j, pname in enumerate(frame.predictor_names)]
    else:
        raise ValueError(f"unknown table {name!r}")
    return header, body


def _to_csv(header: list[str], body: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    return buf.getvalue()


def _to_markdown(header: list[str], body: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(lines) + "\n"


def render_tables(bundle: ReportBundle, fmt: str = "csv") -> dict[str, str]:
    """Render the five diagnostic tables per period.

    Returns relative path -> document text, laid out as
    ``reports/<period>/<table>.<fmt>``.
    """
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    ext = "csv" if fmt == "csv" else "md"
    docs: dict[str, str] = {}
    for period in TRANSITION_LABELS:
        frame, model = bundle.periods[period]
        for name in TABLE_NAMES:
            header, body = _table_rows(frame, model, name)
            text = _to_csv(header, body) if fmt == "csv" else _to_markdown(header, body)
            docs[f"reports/{period}/{name}.{ext}"] = text
    return docs


def export_figure_data(frames: Mapping[str, AnalysisFrame]) -> dict[str, str]:
    """One scatter CSV per (predictor, period): value vs change rate."""
    missing = [t for t in TRANSITION_LABELS if t not in frames]
    if missing:
        raise IncompleteBundle(f"figure export is missing transitions: {missing}")
    docs: dict[str, str] = {}
    for period in TRANSITION_LABELS:
        frame = frames[period]
        for j, pname in enumerate(frame.predictor_names):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["station_id", "predictor_value", "change_rate"])
            for i, station in enumerate(frame.station_ids):
                writer.writerow(
                    [station, repr(float(frame.x[i, j])), repr(float(frame.y[i]))]
                )
            docs[f"figures/{pname}__{period}.csv"] = buf.getvalue()
    return docs


def render_all(bundle: ReportBundle) -> dict[str, str]:
    """CSV and markdown tables plus figure data, as one document set."""
    docs = render_tables(bundle, "csv")
    docs.update(render_tables(bundle, "markdown"))
    docs.update(export_figure_data({t: bundle.periods[t][0] for t in TRANSITION_LABELS}))
    return docs


def write_documents(docs: Mapping[str, str], out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    written = []
    for relpath in sorted(docs):
        path = out_dir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(docs[relpath])
        written.append(path)
    return written


# --- bundle persistence ------------------------------------------------------

def _frame_to_doc(frame: AnalysisFrame) -> dict:
    return {
        "station_ids": list(frame.station_ids),
        "predictor_names": list(frame.predictor_names),
        "transition": frame.transition,
        "x": matrix_to_doc(frame.x),
        "y": matrix_to_doc(frame.y),
        "x_source_means": matrix_to_doc(frame.x_source_means),
        "x_source_stds": matrix_to_doc(frame.x_source_stds),
    }


def _frame_from_doc(doc: dict) -> AnalysisFrame:
    return AnalysisFrame(
        x=matrix_from_doc(doc["x"]),
        y=matrix_from_doc(doc["y"]),
        station_ids=tuple(doc["station_ids"]),
        predictor_names=tuple(doc["predictor_names"]),
        transition=doc["transition"],
        x_source_means=matrix_from_doc(doc["x_source_means"]),
        x_source_stds=matrix_from_doc(doc["x_source_stds"]),
    )


def bundle_to_json(bundle: ReportBundle) -> str:
    doc = {"format": "bikepls-analysis", "version": BUNDLE_VERSION, "periods": {}}
    for period in TRANSITION_LABELS:
        frame, model = bundle.periods[period]
        doc["periods"][period] = {
            "frame": _frame_to_doc(frame),
            "model": json.loads(model_to_json(model)),
        }
    return json.dumps(doc, indent=2)


def bundle_from_json(text: str) -> ReportBundle:
    doc = json.loads(text)
    check_document(doc, "bikepls-analysis", BUNDLE_VERSION)
    periods = {}
    for period, entry in doc["periods"].items():
        frame = _frame_from_doc(entry["frame"])
        model = model_from_json(json.dumps(entry["model"]))
        periods[period] = (frame, model)
    return ReportBundle(periods)
