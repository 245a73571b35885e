"""Single-response latent-factor regression (PLS1) in closed form.

One factor at a time, the predictor direction with maximal covariance to
the response residual is ``w ∝ Eᵀf``; the fitted rank-1 term is then
removed from both residuals before the next factor is extracted. With one
response column no inner iteration is needed (Dayal & MacGregor, "Improved
PLS algorithms", J. Chemometrics 11, 1997). All diagnostics the reporting
layer needs (variance shares, weights, loadings, importance scores,
coefficients) are derived from the fitted state here.

Conventions
-----------
* ``x_weights`` holds the unit direction used against each deflated
  residual; ``x_rotations`` is ``W (PᵀW)⁻¹``, the basis that maps the
  *original* standardized predictors straight to the scores
  (``scores = X @ x_rotations``).
* The response residual is deflated by its regression on the predictor
  score, ``f −= c t``. The response direction is the unit scalar, and
  ``fᵀt = ‖Eᵀf‖ > 0`` fixes every factor's sign.
* The model keeps nothing with one entry per sample: the per-factor sum
  of squared scores and the sample count carry what the diagnostics need.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel, TooManyComponents
from .frames import AnalysisFrame

_RESIDUAL_FLOOR = 1e-12
# On and below the diagonal, |PᵀW - I| stays under 1e-13 for every fit
# measured; a model read from a document must stay within this of it
_TRIANGULAR_TOLERANCE = 1e-6
MODEL_VERSION = 2


@dataclass(frozen=True)
class VarianceReport:
    """Per-factor explained-variance bookkeeping."""

    x_shares: np.ndarray
    cumulative_x: np.ndarray
    y_shares: np.ndarray
    cumulative_y: np.ndarray
    adjusted_r2: np.ndarray

    def rows(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("x_variance", self.x_shares),
            ("cumulative_x_variance", self.cumulative_x),
            ("y_variance", self.y_shares),
            ("cumulative_y_variance", self.cumulative_y),
            ("adjusted_r_square", self.adjusted_r2),
        ]


@dataclass(frozen=True)
class CoefficientVector:
    """Regression coefficients in standardized-predictor units."""

    intercept: float
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class PlsModel:
    """Fitted state: weights, loadings, per-factor score sums and constants.

    ``n_components`` is the number of factors actually extracted, which can
    fall short of the request when a residual reaches zero first. Every
    array has a predictor or factor axis only, so a model's size does not
    grow with ``n_samples``.
    """

    x_weights: np.ndarray  # (J, A) unit per-residual weights
    x_rotations: np.ndarray  # (J, A), scores = X @ x_rotations
    x_loadings: np.ndarray  # (J, A)
    y_loadings: np.ndarray  # (A,) regression loadings on the x-scores
    score_ss: np.ndarray  # (A,) sum of squared x-scores per factor
    x_means: np.ndarray  # raw-scale column means of the predictors
    x_stds: np.ndarray  # raw-scale population stds of the predictors
    y_mean: float
    x_total_ss: float
    y_total_ss: float
    n_samples: int
    n_components: int
    requested_components: int
    predictor_names: tuple[str, ...]
    transition: str

    def __post_init__(self):
        for name in _MATRIX_FIELDS:
            getattr(self, name).setflags(write=False)

    @property
    def n_predictors(self) -> int:
        return self.x_weights.shape[0]


def extract_factors(
    x: np.ndarray, f: np.ndarray, n_components: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract up to ``n_components`` factors from predictors ``x`` and the
    centered response ``f``.

    Per factor: ``w = Eᵀf/‖Eᵀf‖``, ``t = Ew``, ``p = Eᵀt/tᵀt``,
    ``c = fᵀt/tᵀt``, then ``E −= t pᵀ`` and ``f −= c t``. Extraction stops
    early once ``‖E‖``, ``‖f‖`` or ``‖Eᵀf‖`` is numerically zero.

    Returns ``(W, T, P, C, E)``: weights (J, A), scores (n, A), loadings
    (J, A), response loadings (A,) and the final predictor residual (n, J),
    where A is the number of factors actually extracted.
    """
    E = np.array(x, dtype=float)
    f = np.array(f, dtype=float)
    n, J = E.shape
    ws, ts, ps, cs = [], [], [], []
    for _ in range(n_components):
        if np.linalg.norm(E) <= _RESIDUAL_FLOOR or np.linalg.norm(f) <= _RESIDUAL_FLOOR:
            break
        w = E.T @ f
        w_norm = np.linalg.norm(w)
        if w_norm <= _RESIDUAL_FLOOR:
            break
        w /= w_norm
        t = E @ w
        tt = t @ t
        p = E.T @ t / tt
        c = f @ t / tt
        E -= np.outer(t, p)
        f -= c * t
        ws.append(w)
        ts.append(t)
        ps.append(p)
        cs.append(c)
    if not ts:
        return np.zeros((J, 0)), np.zeros((n, 0)), np.zeros((J, 0)), np.zeros(0), E
    return (np.column_stack(ws), np.column_stack(ts), np.column_stack(ps),
            np.array(cs), E)


def fit(frame: AnalysisFrame, n_components: int) -> PlsModel:
    """Fit the latent-factor regression on an assembled frame.

    The response is centered internally and its mean stored as the
    intercept. Extraction stops early (with the actual count reported)
    if a residual reaches zero before ``n_components`` factors.

    Raises
    ------
    TooManyComponents
        If more factors are requested than ``min(n_samples - 1,
        n_predictors)``; a centered n-row matrix has rank at most n - 1.
    """
    n, J = frame.x.shape
    limit = min(n - 1, J)
    if n_components > limit:
        raise TooManyComponents(
            f"{n_components} factors requested but at most {limit} exist "
            f"for a {n}x{J} frame"
        )

    y_mean = float(frame.y.mean())
    f = frame.y - y_mean
    W, T, P, C, _ = extract_factors(frame.x, f, n_components)

    return PlsModel(
        x_weights=W,
        x_rotations=_rotations(W, P),
        x_loadings=P,
        y_loadings=C,
        score_ss=(T * T).sum(axis=0),
        x_means=np.array(frame.x_source_means, dtype=float),
        x_stds=np.array(frame.x_source_stds, dtype=float),
        y_mean=y_mean,
        x_total_ss=float((frame.x * frame.x).sum()),
        y_total_ss=float((f * f).sum()),
        n_samples=n,
        n_components=W.shape[1],
        requested_components=n_components,
        predictor_names=frame.predictor_names,
        transition=frame.transition,
    )


def _rotations(W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``W (PᵀW)⁻¹``: the weights expressed against the original matrix.
    PᵀW is unit upper triangular (``p_kᵀw_k = 1``, and each deflation sends
    every earlier weight to zero), so the inverse exists."""
    return W @ np.linalg.inv(P.T @ W)


def _y_share_per_component(model: PlsModel) -> np.ndarray:
    """Share of centered-response variance captured by each factor.

    Scores are mutually orthogonal, so the fitted response decomposes as
    a sum of per-factor terms plus the final residual; each factor's share
    is exactly the increment in R² when that factor joins the prediction.
    A factor is only extracted while the response residual is nonzero, so
    ``y_total_ss`` is positive whenever there is a factor.
    """
    c = model.y_loadings
    per_factor = c * c * model.score_ss
    return per_factor / model.y_total_ss


def adjusted_r_square(r2: float, n: int, a: int) -> float:
    """Closed-form sample-size penalty: 1 - (1 - R²)(n - 1)/(n - a - 1).

    Returns 0.0 when the denominator degenerates (n - a - 1 <= 0).
    """
    if n - a - 1 <= 0:
        return 0.0
    return 1.0 - (1.0 - r2) * (n - 1) / (n - a - 1)


def variance_explained(model: PlsModel) -> VarianceReport:
    """Per-factor and cumulative variance shares plus adjusted R²."""
    A = model.n_components
    if A == 0:
        z = np.zeros(0)
        return VarianceReport(z, z, z, z, z)
    P = model.x_loadings
    x_per_factor = model.score_ss * (P * P).sum(axis=0)
    x_shares = x_per_factor / model.x_total_ss
    y_shares = _y_share_per_component(model)
    cum_x = np.cumsum(x_shares)
    cum_y = np.cumsum(y_shares)
    n = model.n_samples
    adj = np.array(
        [adjusted_r_square(min(cum_y[a - 1], 1.0), n, a) for a in range(1, A + 1)]
    )
    return VarianceReport(x_shares, cum_x, y_shares, cum_y, adj)


def vip(model: PlsModel, a: int) -> np.ndarray:
    """Importance-in-projection score per predictor using ``a`` factors.

    ``VIP_j = sqrt(J * Σ_k ssy_k (w_jk/‖w_k‖)² / Σ_k ssy_k)`` over factors
    ``k <= a``, where ``ssy_k`` is factor k's share of response variance
    and the weight columns are taken from ``x_rotations`` (the weight
    matrix the score identity holds for) normalized to unit length. The
    squared scores always sum to the number of predictors. Needs
    1 <= a <= n_components; every factor's share is positive.
    """
    ssy = _y_share_per_component(model)[:a]
    total = ssy.sum()
    Wn = model.x_rotations[:, :a]
    Wn = Wn / np.linalg.norm(Wn, axis=0, keepdims=True)
    J = model.n_predictors
    return np.sqrt(J * (Wn * Wn) @ ssy / total)


def vip_table(model: PlsModel) -> np.ndarray:
    """Stack ``vip(model, a)`` for a = 1..n_components as columns."""
    if model.n_components == 0:
        return np.zeros((model.n_predictors, 0))
    return np.column_stack([vip(model, a) for a in range(1, model.n_components + 1)])


def coefficients(model: PlsModel, a: int | None = None) -> CoefficientVector:
    """Regression coefficients using the first ``a`` factors.

    ``β = W (PᵀW)⁻¹ c`` restricted to the leading factors; the intercept
    is the stored response mean (predictors are standardized, so their
    means contribute nothing). Needs 0 <= a <= n_components.
    """
    if a is None:
        a = model.n_components
    W = model.x_weights[:, :a]
    P = model.x_loadings[:, :a]
    beta = W @ np.linalg.solve(P.T @ W, model.y_loadings[:a])
    return CoefficientVector(model.y_mean, beta)


def predict(model: PlsModel, x_new: np.ndarray, a: int | None = None) -> np.ndarray:
    """Predict responses for raw-scale predictor rows, an (n, J) array.

    New rows are placed on the training scale with the stored means and
    population stds, then pushed through ``coefficients(model, a)``.
    """
    coef = coefficients(model, a)
    x_std = (x_new - model.x_means) / model.x_stds
    return coef.intercept + x_std @ coef.values


def check_model(model: PlsModel) -> None:
    """Refuse, with ``InvalidModel``, a model read from a document that no
    fit produces: an array shape that disagrees with the factor and
    predictor counts, a number that is not finite, a sum of squares that
    is not positive while there is a factor, a PᵀW that is not unit
    upper triangular, or numbers whose diagnostics overflow. A model that
    passes renders finite variance, importance and coefficient tables."""
    J, A = len(model.predictor_names), model.n_components
    vectors = {"y_loadings": (A,), "score_ss": (A,), "x_means": (J,), "x_stds": (J,)}
    for name in _MATRIX_FIELDS:
        shape = vectors.get(name, (J, A))
        got = getattr(model, name).shape
        if got != shape:
            raise InvalidModel(f"{name} has shape {list(got)}, but {A} factors of {J} "
                               f"predictors need {list(shape)}")
    for name in _MATRIX_FIELDS + ("y_mean", "x_total_ss", "y_total_ss"):
        if not np.isfinite(getattr(model, name)).all():
            raise InvalidModel(f"{name} holds a number that is not finite")
    if A == 0:
        return
    for name in ("x_total_ss", "y_total_ss", "score_ss"):
        if not np.all(getattr(model, name) > 0):
            raise InvalidModel(f"{name} must be positive")
    PtW = model.x_loadings.T @ model.x_weights
    if np.abs(np.tril(PtW) - np.eye(A)).max() > _TRIANGULAR_TOLERANCE:
        raise InvalidModel("x_loadings and x_weights do not give a unit upper "
                           "triangular product")
    with np.errstate(all="ignore"):
        derived = [values for _, values in variance_explained(model).rows()]
        derived += [vip_table(model), coefficients(model).values]
    if not all(np.isfinite(values).all() for values in derived):
        raise InvalidModel("its variance shares, importance scores or coefficients "
                           "are not finite")


# --- serialization -----------------------------------------------------------

_MATRIX_FIELDS = (
    "x_weights", "x_rotations", "x_loadings", "y_loadings", "score_ss",
    "x_means", "x_stds",
)


def matrix_to_doc(arr: np.ndarray) -> dict:
    """Encode an array as shape plus 17-significant-digit decimal strings."""
    arr = np.asarray(arr, dtype=float)
    return {
        "shape": list(arr.shape),
        "data": [f"{v:.17g}" for v in arr.ravel().tolist()],
    }


def matrix_from_doc(obj: dict) -> np.ndarray:
    data = obj["data"]
    return np.fromiter(map(float, data), float, len(data)).reshape(tuple(obj["shape"]))


def check_document(doc: dict, fmt: str, version: int) -> None:
    """Reject a parsed document of another format or version."""
    if doc.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    if doc.get("version") != version:
        raise ValueError(
            f"{fmt} document version {doc.get('version')} is not supported "
            f"(expected {version}); re-run `analyze` to regenerate it"
        )


def model_to_json(model: PlsModel) -> str:
    """Serialize with decimal strings of 17 significant digits (lossless)."""
    doc = {"format": "bikepls-model", "version": MODEL_VERSION}
    for name in _MATRIX_FIELDS:
        doc[name] = matrix_to_doc(getattr(model, name))
    doc.update(
        y_mean=f"{model.y_mean:.17g}",
        x_total_ss=f"{model.x_total_ss:.17g}",
        y_total_ss=f"{model.y_total_ss:.17g}",
        n_samples=model.n_samples,
        n_components=model.n_components,
        requested_components=model.requested_components,
        predictor_names=list(model.predictor_names),
        transition=model.transition,
    )
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> PlsModel:
    doc = json.loads(text)
    check_document(doc, "bikepls-model", MODEL_VERSION)
    kwargs = {name: matrix_from_doc(doc[name]) for name in _MATRIX_FIELDS}
    return PlsModel(
        **kwargs,
        y_mean=float(doc["y_mean"]),
        x_total_ss=float(doc["x_total_ss"]),
        y_total_ss=float(doc["y_total_ss"]),
        n_samples=int(doc["n_samples"]),
        n_components=int(doc["n_components"]),
        requested_components=int(doc["requested_components"]),
        predictor_names=tuple(doc["predictor_names"]),
        transition=doc["transition"],
    )
