"""Rendering of fitted diagnostics as tables and plot-ready scatter data.

Tables print with 3 decimal places; tiny nonzero magnitudes fall back to
scientific notation so they never render as a bare ``0.000``. Rendering is
a pure function of the bundle so equal bundles produce byte-identical
documents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import IncompleteBundle, InvalidModel, ShapeMismatch, StaleTable
from .frames import (
    TRANSITION_LABELS,
    AnalysisFrame,
    _csv_document,
    _csv_field,
    frames_from_analysis_table,
)
from .plsr import (
    PlsModel,
    check_document,
    check_model,
    coefficients,
    model_from_json,
    model_to_json,
    variance_explained,
    vip_table,
)

BUNDLE_VERSION = 4

BUNDLED_TABLE = "bundled"  # the table shipped with the package, as a document names it

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
    """Frames and fitted models for all three period transitions, each
    model fit to its own frame's predictors and samples."""

    periods: Mapping[str, tuple[AnalysisFrame, PlsModel]]

    def __post_init__(self):
        missing = [t for t in TRANSITION_LABELS if t not in self.periods]
        if missing:
            raise IncompleteBundle(f"bundle is missing transitions: {missing}")
        for period, (frame, model) in self.periods.items():
            if (model.predictor_names, model.n_samples) != (frame.predictor_names, frame.n_samples):
                raise ShapeMismatch(f"the {period} model was fit to {model.n_samples} samples of "
                                    f"{list(model.predictor_names)}, but its frame holds "
                                    f"{frame.n_samples} samples of {list(frame.predictor_names)}")


def _table_rows(frame: AnalysisFrame, model: PlsModel, name: str) -> tuple[list[str], list[list[str]]]:
    """Header and formatted body rows for one of ``TABLE_NAMES``."""
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
    else:  # coefficients
        header = ["variable", "coefficient"]
        coef = coefficients(model)
        body = [["constant", format_cell(coef.intercept)]]
        body += [[pname, format_cell(coef.values[j])]
                 for j, pname in enumerate(frame.predictor_names)]
    return header, body


def _to_markdown(header: list[str], body: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(lines) + "\n"


def render_tables(bundle: ReportBundle, fmt: str = "csv") -> dict[str, str]:
    """Render the five diagnostic tables per period, as ``csv`` or
    ``markdown``.

    Returns relative path -> document text, laid out as
    ``reports/<period>/<table>.<fmt>``.
    """
    ext = "csv" if fmt == "csv" else "md"
    docs: dict[str, str] = {}
    for period in TRANSITION_LABELS:
        frame, model = bundle.periods[period]
        for name in TABLE_NAMES:
            header, body = _table_rows(frame, model, name)
            text = _csv_document([header, *body]) if fmt == "csv" else _to_markdown(header, body)
            docs[f"reports/{period}/{name}.{ext}"] = text
    return docs


FIGURE_HEADER = "station_id,predictor_value,change_rate"


def export_figure_data(frames: Mapping[str, AnalysisFrame]) -> dict[str, str]:
    """One scatter CSV per (predictor, period): value vs change rate, for
    a frame of every period.

    Each column is formatted once: the station ids once per distinct id
    list, each predictor column once per matrix object (frames built by
    one ``frames_from_analysis_table`` call share theirs), and each
    period's change rates once.
    """
    docs: dict[str, str] = {}
    stations: dict[tuple[str, ...], list[str]] = {}
    formatted: list[tuple[np.ndarray, list[list[str]]]] = []
    for period in TRANSITION_LABELS:
        frame = frames[period]
        if frame.station_ids not in stations:
            stations[frame.station_ids] = [_csv_field(s) + "," for s in frame.station_ids]
        cells = stations[frame.station_ids]
        columns = next((cols for x, cols in formatted if x is frame.x), None)
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

def bundle_to_json(bundle: ReportBundle, table: str, table_text: str,
                   standardize_y: bool) -> str:
    """The analysis document: the table the frames were built from (its
    absolute path or ``BUNDLED_TABLE``), the sha256 of ``table_text``,
    ``standardize_y``, then each period's model."""
    doc = {
        "format": "bikepls-analysis",
        "version": BUNDLE_VERSION,
        "table": table,
        "table_sha256": hashlib.sha256(table_text.encode()).hexdigest(),
        "standardize_y": standardize_y,
        "periods": {period: {"model": json.loads(model_to_json(bundle.periods[period][1]))}
                    for period in TRANSITION_LABELS},
    }
    return json.dumps(doc, indent=2)


def bundle_from_json(text: str) -> ReportBundle:
    """Build the frames again from the table an analysis document names and
    pair them with its models; ``StaleTable`` if the table is gone or its
    text is not the text `analyze` read, ``InvalidModel`` naming the period
    if a model's numbers are not ones a fit gives."""
    doc = json.loads(text)
    check_document(doc, "bikepls-analysis", BUNDLE_VERSION)
    table = doc["table"]
    if table == BUNDLED_TABLE:
        from .reproduce import load_bundled_table

        table_text = load_bundled_table()
    elif not Path(table).is_file():
        raise StaleTable(f"analysis table {table} not found; re-run `analyze`")
    else:
        with open(table, newline="") as f:  # line ends untranslated, as `analyze` reads
            table_text = f.read()
    if hashlib.sha256(table_text.encode()).hexdigest() != doc["table_sha256"]:
        raise StaleTable(f"analysis table {table} has changed since `analyze` read it; "
                         "re-run `analyze`")
    frame_map = frames_from_analysis_table(table_text, doc["standardize_y"])
    periods = {}
    for period, entry in doc["periods"].items():
        model = model_from_json(json.dumps(entry["model"]))
        try:
            check_model(model)
        except InvalidModel as exc:
            raise InvalidModel(f"{period} model: {exc}") from None
        periods[period] = (frame_map[period], model)
    return ReportBundle(periods)
