"""One-command regeneration of the bundled dataset's diagnostic tables,
checked cell-by-cell against the golden reference values.

Each check carries its tolerance; hard checks gate the exit status of the
``reproduce`` command, informational ones are reported only. Latent-factor
signs are aligned to the reference column (maximal dot product) before
differencing, since the factor sign is arbitrary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from . import frames as fr
from . import plsr
from .frames import TRANSITION_LABELS, AnalysisFrame, build_frame
from .report import ReportBundle, render_all

GOLDEN_RESOURCE = "golden_tables.json"
TABLE_RESOURCE = "table1.csv"

FIT_TIME_BUDGET_S = 1.0
PROPERTY_TIME_BUDGET_S = 10.0


@dataclass
class Check:
    criterion: int
    name: str
    passed: bool
    hard: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        kind = "" if self.hard else " (informational)"
        return f"{status} criterion {self.criterion} [{self.name}]{kind}: {self.detail}"


@dataclass
class ReproductionResult:
    checks: list[Check] = field(default_factory=list)
    bundle: ReportBundle | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def hard_failures(self) -> list[Check]:
        return [c for c in self.checks if c.hard and not c.passed]

    @property
    def passed(self) -> bool:
        return not self.hard_failures

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "checks": [
                    {
                        "criterion": c.criterion,
                        "name": c.name,
                        "passed": c.passed,
                        "hard": c.hard,
                        "detail": c.detail,
                    }
                    for c in self.checks
                ],
            },
            indent=2,
        )


def load_golden() -> dict:
    text = resources.files("bikepls.data").joinpath(GOLDEN_RESOURCE).read_text()
    return json.loads(text)


def load_bundled_table() -> str:
    return resources.files("bikepls.data").joinpath(TABLE_RESOURCE).read_text()


def align_sign(column: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip the computed column if that increases agreement with the reference."""
    return -column if float(column @ reference) < 0 else column


def _fit_all(components: int) -> tuple[dict[str, tuple[AnalysisFrame, plsr.PlsModel]], float]:
    table_text = load_bundled_table()
    start = time.perf_counter()
    frame_map = fr.frames_from_analysis_table(table_text, standardize_y=False)
    fitted = {
        label: (frame, plsr.fit(frame, components))
        for label, frame in frame_map.items()
    }
    elapsed = time.perf_counter() - start
    return fitted, elapsed


def run_reproduction(components: int = 3) -> ReproductionResult:
    if components != 3:
        raise ValueError(
            "the reference tables are three-factor; run reproduce with components=3"
        )
    golden = load_golden()
    result = ReproductionResult()
    fitted, fit_elapsed = _fit_all(components)
    result.timings["fit_s"] = fit_elapsed
    result.bundle = ReportBundle(fitted)

    _check_variance(result, fitted, golden, fit_elapsed)
    _check_adjusted_r2(result, golden)
    _check_vip(result, fitted, golden)
    _check_coefficients(result, fitted, golden)
    _check_weights(result, fitted, golden)
    _check_properties(result)
    _check_preprocessing(result)
    return result


def _check_variance(result, fitted, golden, fit_elapsed: float) -> None:
    worst = 0.0
    cum_ok = True
    for label in TRANSITION_LABELS:
        _, model = fitted[label]
        report = plsr.variance_explained(model)
        ref = golden["periods"][label]
        worst = max(worst, np.abs(report.x_shares - ref["x_variance"]).max())
        worst = max(worst, np.abs(report.y_shares - ref["y_variance"]).max())
        if abs(report.cumulative_x[-1] - 1.0) > 1e-6 or abs(report.cumulative_y[-1] - 1.0) > 1e-6:
            cum_ok = False
    result.checks.append(
        Check(1, "variance shares", worst <= 0.02, True,
              f"max |diff| {worst:.4f} (tolerance 0.02)")
    )
    result.checks.append(
        Check(1, "cumulative variance at 3 factors", cum_ok, True,
              "cumulative X and Y variance reach 1.000 within 1e-6")
    )
    result.checks.append(
        Check(1, "fit runtime", fit_elapsed < FIT_TIME_BUDGET_S, True,
              f"three fits complete under {FIT_TIME_BUDGET_S:.0f} s")
    )


def _check_adjusted_r2(result, golden) -> None:
    worst = 0.0
    for label in TRANSITION_LABELS:
        for cell in golden["periods"][label]["adjusted_r2_cells"]:
            got = plsr.adjusted_r_square(cell["r2"], 4, cell["a"])
            worst = max(worst, abs(got - cell["expected"]))
    result.checks.append(
        Check(2, "adjusted r-square cells", worst <= 0.002, True,
              f"max |diff| {worst:.4f} over six cells (tolerance 0.002)")
    )
    degenerate = all(
        plsr.adjusted_r_square(r2, 4, 3) == 0.0 for r2 in (0.0, 0.5, 1.0)
    )
    result.checks.append(
        Check(2, "degenerate denominator", degenerate, True,
              "a = 3 with n = 4 returns 0.0")
    )


def _check_vip(result, fitted, golden) -> None:
    worst = 0.0
    worst_cell = ""
    n_within = 0
    sum_ok = True
    anchor_diff = None
    for label in TRANSITION_LABELS:
        _, model = fitted[label]
        table = plsr.vip_table(model)
        ref = np.array(golden["periods"][label]["vip"])
        for a in range(3):
            col = table[:, a]
            if abs(float(col @ col) - 5.0) > 1e-6:
                sum_ok = False
            for j in range(5):
                diff = abs(col[j] - ref[j, a])
                n_within += diff <= 0.03
                if diff > worst:
                    worst = diff
                    worst_cell = (
                        f"{label} factor {a + 1} "
                        f"{golden['predictor_order'][j]}: "
                        f"computed {col[j]:.3f} vs reference {ref[j, a]:.3f}"
                    )
        if label == "pre_pandemic_to_pandemic":
            anchor_diff = abs(table[2, 0] - 2.013)
    result.checks.append(
        Check(3, "importance cells", worst <= 0.03, True,
              f"{n_within}/45 cells within 0.03; worst {worst_cell} "
              f"(|diff| {worst:.4f})")
    )
    result.checks.append(
        Check(3, "importance anchor", anchor_diff <= 0.005, True,
              f"first-factor avg_age importance within 0.005 of 2.013 "
              f"(|diff| {anchor_diff:.4f})")
    )
    result.checks.append(
        Check(3, "importance normalization", sum_ok, True,
              "sum of squared importances equals 5 within 1e-6 for every column")
    )


def _check_coefficients(result, fitted, golden) -> None:
    worst_coef = 0.0
    worst_oracle = 0.0
    intercept_ok = True
    intercept_detail = ""
    for label in TRANSITION_LABELS:
        frame, model = fitted[label]
        coef = plsr.coefficients(model, 3)
        ref = golden["periods"][label]
        worst_coef = max(worst_coef, np.abs(coef.values - ref["coefficients"]).max())
        # independent route: minimum-norm least squares via pseudoinverse
        oracle = np.linalg.pinv(frame.x) @ (frame.y - frame.y.mean())
        worst_oracle = max(worst_oracle, np.abs(coef.values - oracle).max())
        if label == "pandemic_to_transition":
            diff = abs(coef.intercept - ref["intercept"])
            intercept_ok = diff <= 0.005
            intercept_detail = f"intercept {coef.intercept:.4f} vs 0.528 (|diff| {diff:.4f})"
    result.checks.append(
        Check(4, "intercept", intercept_ok, True, intercept_detail)
    )
    result.checks.append(
        Check(4, "coefficients", worst_coef <= 0.10, True,
              f"max |diff| {worst_coef:.4f} over 15 cells (tolerance 0.10)")
    )
    result.checks.append(
        Check(4, "pseudoinverse oracle", worst_oracle <= 1e-6, True,
              f"full-rank fit matches minimum-norm least squares within 1e-6 "
              f"(max |diff| {worst_oracle:.2e})")
    )


def _check_weights(result, fitted, golden) -> None:
    worst_first = 0.0
    worst_later = 0.0
    worst_loading = 0.0
    for label in TRANSITION_LABELS:
        _, model = fitted[label]
        ref_w = np.array(golden["periods"][label]["weights"])
        ref_p = np.array(golden["periods"][label]["loadings"])
        for a in range(3):
            col = align_sign(model.x_rotations[:, a], ref_w[:, a])
            diff = np.abs(col - ref_w[:, a]).max()
            if a == 0:
                worst_first = max(worst_first, diff)
            else:
                worst_later = max(worst_later, diff)
            pcol = align_sign(model.x_loadings[:, a], ref_p[:, a])
            worst_loading = max(worst_loading, np.abs(pcol - ref_p[:, a]).max())
    result.checks.append(
        Check(5, "first-factor weights", worst_first <= 0.05, True,
              f"max |diff| {worst_first:.4f} (tolerance 0.05)")
    )
    result.checks.append(
        Check(5, "later weight columns", True, False,
              f"max |diff| {worst_later:.4f} (compared informationally)")
    )
    result.checks.append(
        Check(5, "loading columns", True, False,
              f"max |diff| {worst_loading:.4f} (compared informationally)")
    )


def _random_frame(rng: np.random.Generator) -> AnalysisFrame:
    n = int(rng.integers(4, 9))
    j = int(rng.integers(2, 7))
    raw = rng.normal(size=(n, j)) * rng.uniform(0.5, 3.0)
    y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
    ids = tuple(f"s{i}" for i in range(n))
    return build_frame(ids, raw, y, TRANSITION_LABELS[0])


def _flip_component(model: plsr.PlsModel, k: int) -> plsr.PlsModel:
    import dataclasses

    def flip_col(arr):
        out = np.array(arr)
        out[..., k] = -out[..., k]
        return out

    return dataclasses.replace(
        model,
        x_weights=flip_col(model.x_weights),
        x_rotations=flip_col(model.x_rotations),
        x_loadings=flip_col(model.x_loadings),
        y_loadings=flip_col(model.y_loadings),
    )


def _check_properties(result) -> None:
    rng = np.random.default_rng(1804289383)
    start = time.perf_counter()
    worst_orth = worst_recon = worst_flip = 0.0
    monotone = True
    for _ in range(200):
        frame = _random_frame(rng)
        a_max = min(frame.n_samples - 1, frame.n_predictors)
        model = plsr.fit(frame, a_max)
        _, T, P, _, E = plsr.extract_factors(frame.x, frame.y - frame.y.mean(), a_max)
        gram = T.T @ T
        if gram.size:
            off = gram - np.diag(np.diag(gram))
            worst_orth = max(worst_orth, np.abs(off).max())
        recon = np.abs(frame.x - T @ P.T - E).max()
        worst_recon = max(worst_recon, recon)
        norms = [
            np.linalg.norm(frame.x - T[:, :a] @ P[:, :a].T)
            for a in range(model.n_components + 1)
        ]
        if any(b > a + 1e-12 for a, b in zip(norms, norms[1:])):
            monotone = False
        if model.n_components:
            k = int(rng.integers(model.n_components))
            flipped = _flip_component(model, k)
            x_raw = frame.x * model.x_stds + model.x_means
            for a in range(1, model.n_components + 1):
                c0 = plsr.coefficients(model, a)
                c1 = plsr.coefficients(flipped, a)
                worst_flip = max(worst_flip, abs(c0.intercept - c1.intercept),
                                 np.abs(c0.values - c1.values).max())
                worst_flip = max(worst_flip, np.abs(
                    plsr.vip(model, a) - plsr.vip(flipped, a)).max())
                worst_flip = max(worst_flip, np.abs(
                    plsr.predict(model, x_raw, a) - plsr.predict(flipped, x_raw, a)).max())
            v0 = plsr.variance_explained(model)
            v1 = plsr.variance_explained(flipped)
            worst_flip = max(worst_flip, np.abs(v0.x_shares - v1.x_shares).max(),
                             np.abs(v0.y_shares - v1.y_shares).max())
    elapsed = time.perf_counter() - start
    result.timings["properties_s"] = elapsed
    result.checks.append(
        Check(6, "score orthogonality", worst_orth < 1e-8, True,
              f"max off-diagonal {worst_orth:.2e} over 200 random frames")
    )
    result.checks.append(
        Check(6, "reconstruction", worst_recon < 1e-8, True,
              f"max |X - T·Pᵀ - E| {worst_recon:.2e}")
    )
    result.checks.append(
        Check(6, "deflation monotonicity", monotone, True,
              "residual norm non-increasing per factor")
    )
    result.checks.append(
        Check(6, "sign-flip invariance", worst_flip < 1e-12, True,
              f"max diagnostic change {worst_flip:.2e} under joint sign flips")
    )
    result.checks.append(
        Check(6, "property runtime", elapsed < PROPERTY_TIME_BUDGET_S, True,
              f"200-frame suite completes under {PROPERTY_TIME_BUDGET_S:.0f} s")
    )


def _check_preprocessing(result) -> None:
    rng = np.random.default_rng(846930886)
    worst_mean = worst_var = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        col = rng.normal(size=n) * rng.uniform(0.1, 100.0) + rng.uniform(-50, 50)
        if np.all(col == col[0]):
            col[0] += 1.0
        z = fr.standardize(col).values
        worst_mean = max(worst_mean, abs(float(z.mean())))
        worst_var = max(worst_var, abs(float(z.var()) - 1.0))
    result.checks.append(
        Check(7, "standardize invariants", worst_mean <= 1e-9 and worst_var <= 1e-9,
              True,
              f"1000 random columns: max |mean| {worst_mean:.2e}, "
              f"max |variance - 1| {worst_var:.2e}")
    )

    _, _, predictors = fr.load_analysis_table(load_bundled_table())
    var_diffs = np.abs(predictors.var(axis=0) - 1.0)
    result.checks.append(
        Check(7, "bundled table scaling", float(var_diffs.max()) <= 0.01, True,
              f"every predictor column has population variance within 0.01 of 1 "
              f"(max |diff| {var_diffs.max():.4f})")
    )

    telescopes = True
    rng2 = np.random.default_rng(1681692777)
    for _ in range(100):
        a, b, c = (Fraction(int(rng2.integers(1, 1000)),
                            int(rng2.integers(1, 1000))) for _ in range(3))
        if fr.change_rate(a, b) * fr.change_rate(b, c) != fr.change_rate(a, c):
            telescopes = False
    result.checks.append(
        Check(7, "change-rate telescoping", telescopes, True,
              "r(a,b) * r(b,c) == r(a,c) exactly on 100 rational triples")
    )


def render_reproduction_documents(result: ReproductionResult) -> dict[str, str]:
    """Rendered tables/figures plus the deterministic summary files."""
    docs = render_all(result.bundle)
    docs["reproduction_summary.txt"] = (
        "\n".join(check.line() for check in result.checks) + "\n"
    )
    docs["reproduction_summary.json"] = result.to_json() + "\n"
    return docs
