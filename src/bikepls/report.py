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

import numpy as np

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

BUNDLE_VERSION = 3

TABLE_NAMES = ("variance_explained", "weights", "loadings", "vip", "coefficients")

SCI_THRESHOLD = 5e-4


def format_cell(value: float) -> str:
    """Three decimals, or 2-digit scientific for tiny nonzero magnitudes."""
    if value == 0:
        return "0.000"
    if abs(value) < SCI_THRESHOLD:
        return f"{value:.2E}"
    return f"{value:.3f}"


# Frame fields that every period of a bundle shares: only y differs.
_SHARED_FRAME_FIELDS = (
    "station_ids", "predictor_names", "x", "x_source_means", "x_source_stds",
)


def _same_values(a, b) -> bool:
    """Equal labels, or arrays with the same shape and the same float bits.

    Bits rather than ``==`` so that -0.0 and 0.0, which print differently,
    never count as the same value.
    """
    if a is b:
        return True
    if isinstance(a, tuple):
        return a == b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass(frozen=True)
class ReportBundle:
    """Frames and fitted models for all three period transitions.

    The frames share one station list, one predictor list and one
    standardized predictor matrix with its source statistics; only the
    response column differs by period.
    """

    periods: Mapping[str, tuple[AnalysisFrame, PlsModel]]

    def __post_init__(self):
        missing = [t for t in TRANSITION_LABELS if t not in self.periods]
        if missing:
            raise IncompleteBundle(f"bundle is missing transitions: {missing}")
        first = TRANSITION_LABELS[0]
        frame0 = self.periods[first][0]
        for period in TRANSITION_LABELS[1:]:
            frame = self.periods[period][0]
            for name in _SHARED_FRAME_FIELDS:
                if not _same_values(getattr(frame0, name), getattr(frame, name)):
                    raise ValueError(
                        f"bundle periods {first!r} and {period!r} differ in {name}"
                    )


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


FIGURE_HEADER = "station_id,predictor_value,change_rate"


class _LineSink(list):
    """A file-like target that keeps each line a ``csv.writer`` writes."""

    write = list.append


def _station_cells(station_ids: tuple[str, ...]) -> list[str]:
    """Each station id as ``csv.writer`` writes it, with the comma after it.

    A row's quoting of one field does not depend on the others unless the
    row is a single empty field, so a two-field row gives the same bytes
    as the station cell of a full figure row.
    """
    sink = _LineSink()
    csv.writer(sink, lineterminator="\n").writerows((s, "") for s in station_ids)
    return [line[:-1] for line in sink]


def export_figure_data(frames: Mapping[str, AnalysisFrame]) -> dict[str, str]:
    """One scatter CSV per (predictor, period): value vs change rate.

    Each column is formatted once: the station ids once per distinct id
    list, each predictor column once per distinct matrix, and each
    period's change rates once.
    """
    missing = [t for t in TRANSITION_LABELS if t not in frames]
    if missing:
        raise IncompleteBundle(f"figure export is missing transitions: {missing}")
    docs: dict[str, str] = {}
    stations: dict[tuple[str, ...], list[str]] = {}
    formatted: list[tuple[np.ndarray, list[list[str]]]] = []
    for period in TRANSITION_LABELS:
        frame = frames[period]
        if frame.station_ids not in stations:
            stations[frame.station_ids] = _station_cells(frame.station_ids)
        cells = stations[frame.station_ids]
        columns = next((cols for x, cols in formatted if _same_values(x, frame.x)), None)
        if columns is None:
            x = np.asarray(frame.x, dtype=float)
            columns = [[f"{v!r}," for v in col] for col in x.T.tolist()]
            formatted.append((frame.x, columns))
        rates = list(map(repr, np.asarray(frame.y, dtype=float).tolist()))
        for pname, column in zip(frame.predictor_names, columns):
            rows = map("".join, zip(cells, column, rates))
            docs[f"figures/{pname}__{period}.csv"] = "\n".join([FIGURE_HEADER, *rows]) + "\n"
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

def bundle_to_json(bundle: ReportBundle) -> str:
    """Serialize the shared frame fields once, then each period's y and model."""
    frame = bundle.periods[TRANSITION_LABELS[0]][0]
    doc = {
        "format": "bikepls-analysis",
        "version": BUNDLE_VERSION,
        "station_ids": list(frame.station_ids),
        "predictor_names": list(frame.predictor_names),
        "x": matrix_to_doc(frame.x),
        "x_source_means": matrix_to_doc(frame.x_source_means),
        "x_source_stds": matrix_to_doc(frame.x_source_stds),
        "periods": {},
    }
    for period in TRANSITION_LABELS:
        frame, model = bundle.periods[period]
        doc["periods"][period] = {
            "y": matrix_to_doc(frame.y),
            "model": json.loads(model_to_json(model)),
        }
    return json.dumps(doc, indent=2)


def bundle_from_json(text: str) -> ReportBundle:
    doc = json.loads(text)
    check_document(doc, "bikepls-analysis", BUNDLE_VERSION)
    shared = {
        "x": matrix_from_doc(doc["x"]),
        "station_ids": tuple(doc["station_ids"]),
        "predictor_names": tuple(doc["predictor_names"]),
        "x_source_means": matrix_from_doc(doc["x_source_means"]),
        "x_source_stds": matrix_from_doc(doc["x_source_stds"]),
    }
    periods = {}
    for period, entry in doc["periods"].items():
        frame = AnalysisFrame(y=matrix_from_doc(entry["y"]), transition=period, **shared)
        model = model_from_json(json.dumps(entry["model"]))
        periods[period] = (frame, model)
    return ReportBundle(periods)
