"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``-s`` to watch them live).
Latent-factor signs are aligned to the reference column by maximizing the
dot product before differencing.

Known red: the importance-cell comparison in criterion 3 (and therefore
the full-gate half of criterion 8) fails on exactly one reference cell.
The reference importance tables embed unnormalized weight columns, which
is incompatible with the sum-of-squares normalization the same criterion
requires; see
tests/test_plsr.py::TestVip::test_reference_vip_uses_unnormalized_weight_columns
for the demonstration.
"""

import dataclasses
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from bikepls import plsr
from bikepls.cli import main
from bikepls.frames import (
    TRANSITION_LABELS,
    build_frame,
    change_rate,
    frames_from_analysis_table,
    load_analysis_table,
    standardize,
)
from bikepls.reproduce import run_reproduction
from conftest import random_frame

PERIODS = TRANSITION_LABELS


def emit(criterion, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def align(column, reference):
    column = np.asarray(column, dtype=float)
    return -column if float(column @ reference) < 0 else column


def test_criterion_1_variance_explained(table1_text, golden):
    start = time.perf_counter()
    frames = frames_from_analysis_table(table1_text)
    models = {label: plsr.fit(frame, 3) for label, frame in frames.items()}
    elapsed = time.perf_counter() - start

    worst = 0.0
    cum_ok = True
    for label in PERIODS:
        report = plsr.variance_explained(models[label])
        ref = golden["periods"][label]
        worst = max(worst, np.abs(report.x_shares - ref["x_variance"]).max())
        worst = max(worst, np.abs(report.y_shares - ref["y_variance"]).max())
        cum_ok &= abs(report.cumulative_x[-1] - 1.0) <= 1e-6
        cum_ok &= abs(report.cumulative_y[-1] - 1.0) <= 1e-6
    ok = worst <= 0.02 and cum_ok and elapsed < 1.0
    assert emit(
        1,
        ok,
        f"variance shares max |diff| {worst:.4f} (tol 0.02); cumulative at "
        f"three factors = 1 within 1e-6: {cum_ok}; runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_2_adjusted_r_square(golden):
    worst = 0.0
    for label in PERIODS:
        for cell in golden["periods"][label]["adjusted_r2_cells"]:
            got = plsr.adjusted_r_square(cell["r2"], 4, cell["a"])
            worst = max(worst, abs(got - cell["expected"]))
    degenerate_ok = all(
        plsr.adjusted_r_square(r2, 4, 3) == 0.0 for r2 in (0.0, 0.25, 0.5, 1.0)
    )
    ok = worst <= 0.002 and degenerate_ok
    assert emit(
        2,
        ok,
        f"six defined cells max |diff| {worst:.4f} (tol 0.002); "
        f"third-factor cells return 0.0: {degenerate_ok}",
    )


def test_criterion_3_vip(table1_models, golden):
    sums_ok = True
    anchor = abs(plsr.vip(table1_models["pre_pandemic_to_pandemic"], 1)[2] - 2.013)
    worst = 0.0
    worst_cell = ""
    for label in PERIODS:
        table = plsr.vip_table(table1_models[label])
        ref = np.array(golden["periods"][label]["vip"])
        for a in range(3):
            col = table[:, a]
            sums_ok &= abs(float(col @ col) - 5.0) <= 1e-6
            cell_diffs = np.abs(col - ref[:, a])
            j = int(cell_diffs.argmax())
            if cell_diffs[j] > worst:
                worst = float(cell_diffs[j])
                worst_cell = (
                    f"{label}/factor {a + 1}/"
                    f"{golden['predictor_order'][j]} "
                    f"(computed {col[j]:.3f}, reference {ref[j, a]:.3f})"
                )
    cells_ok = worst <= 0.03
    emit(
        3,
        cells_ok and sums_ok and anchor <= 0.005,
        f"45 cells max |diff| {worst:.4f} at {worst_cell} (tol 0.03); "
        f"anchor |diff| {anchor:.4f} (tol 0.005); squared scores sum to 5: {sums_ok}",
    )
    assert anchor <= 0.005
    assert sums_ok
    assert cells_ok, (
        f"one reference cell is out of tolerance: {worst_cell}; the reference "
        "tables embed unnormalized weight columns, which no column-normalized "
        "importance score (as the sum-of-squares constraint requires) can "
        "reproduce; see test_plsr.py::TestVip::"
        "test_reference_vip_uses_unnormalized_weight_columns"
    )


def test_criterion_4_coefficients(table1_frames, table1_models, golden):
    worst_cell = 0.0
    worst_oracle = 0.0
    for label in PERIODS:
        coef = plsr.coefficients(table1_models[label], 3)
        ref = golden["periods"][label]
        worst_cell = max(worst_cell, np.abs(coef.values - ref["coefficients"]).max())
        frame = table1_frames[label]
        oracle = np.linalg.pinv(frame.x) @ (frame.y - frame.y.mean())
        worst_oracle = max(worst_oracle, np.abs(coef.values - oracle).max())
    intercept = plsr.coefficients(table1_models["pandemic_to_transition"], 3).intercept
    intercept_diff = abs(intercept - 0.528)
    ok = worst_cell <= 0.10 and intercept_diff <= 0.005 and worst_oracle <= 1e-6
    assert emit(
        4,
        ok,
        f"intercept |diff| {intercept_diff:.4f} (tol 0.005); 15 coefficients "
        f"max |diff| {worst_cell:.4f} (tol 0.10); pseudoinverse oracle max "
        f"|diff| {worst_oracle:.2e} (tol 1e-6)",
    )


def test_criterion_5_weights(table1_models, golden):
    worst_first = 0.0
    worst_later = 0.0
    for label in PERIODS:
        model = table1_models[label]
        ref = np.array(golden["periods"][label]["weights"])
        for a in range(3):
            col = align(model.x_rotations[:, a], ref[:, a])
            diff = float(np.abs(col - ref[:, a]).max())
            if a == 0:
                worst_first = max(worst_first, diff)
            else:
                worst_later = max(worst_later, diff)
    assert emit(
        5,
        worst_first <= 0.05,
        f"first-factor weight columns max |diff| {worst_first:.4f} (tol 0.05); "
        f"later columns max |diff| {worst_later:.4f} (informational, non-gating)",
    )


def test_criterion_6_property_suite(rng):
    start = time.perf_counter()
    worst_orth = worst_recon = worst_flip = 0.0
    monotone = True
    for _ in range(200):
        frame = random_frame(rng)
        a_max = min(frame.n_samples - 1, frame.n_predictors)
        model = plsr.fit(frame, a_max)
        _, T, P, _, E = plsr.extract_factors(frame.x, frame.y - frame.y.mean(), a_max)
        gram = T.T @ T
        if gram.size:
            worst_orth = max(
                worst_orth, float(np.abs(gram - np.diag(np.diag(gram))).max())
            )
        worst_recon = max(
            worst_recon, float(np.abs(frame.x - T @ P.T - E).max())
        )
        norms = [
            np.linalg.norm(frame.x - T[:, :a] @ P[:, :a].T)
            for a in range(model.n_components + 1)
        ]
        monotone &= all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        if model.n_components:
            k = int(rng.integers(model.n_components))

            def flip_col(arr):
                out = np.array(arr)
                out[..., k] = -out[..., k]
                return out

            flipped = dataclasses.replace(
                model,
                x_weights=flip_col(model.x_weights),
                x_rotations=flip_col(model.x_rotations),
                x_loadings=flip_col(model.x_loadings),
                y_loadings=flip_col(model.y_loadings),
            )
            raw = frame.x * model.x_stds + model.x_means
            a = model.n_components
            c0, c1 = plsr.coefficients(model, a), plsr.coefficients(flipped, a)
            worst_flip = max(worst_flip, float(np.abs(c0.values - c1.values).max()))
            worst_flip = max(
                worst_flip, float(np.abs(plsr.vip(model, a) - plsr.vip(flipped, a)).max())
            )
            worst_flip = max(
                worst_flip,
                float(np.abs(plsr.predict(model, raw, a) - plsr.predict(flipped, raw, a)).max()),
            )
            v0, v1 = plsr.variance_explained(model), plsr.variance_explained(flipped)
            worst_flip = max(
                worst_flip,
                float(np.abs(v0.x_shares - v1.x_shares).max()),
                float(np.abs(v0.y_shares - v1.y_shares).max()),
            )
    elapsed = time.perf_counter() - start
    ok = (
        worst_orth < 1e-8
        and worst_recon < 1e-8
        and monotone
        and worst_flip < 1e-12
        and elapsed < 10.0
    )
    assert emit(
        6,
        ok,
        f"200 random frames: orthogonality {worst_orth:.2e} (<1e-8), "
        f"reconstruction {worst_recon:.2e} (<1e-8), deflation monotone "
        f"{monotone}, sign-flip invariance {worst_flip:.2e} (<1e-12), "
        f"runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_7_preprocessing(table1_text, rng):
    worst_mean = worst_var = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        col = rng.normal(size=n) * rng.uniform(0.1, 100.0) + rng.uniform(-50, 50)
        if np.all(col == col[0]):
            col[0] += 1.0
        z = standardize(col).values
        worst_mean = max(worst_mean, abs(float(z.mean())))
        worst_var = max(worst_var, abs(float(z.var()) - 1.0))

    _, _, predictors = load_analysis_table(table1_text)
    scale_diff = float(np.abs(predictors.var(axis=0) - 1.0).max())

    telescopes = all(
        change_rate(a, b) * change_rate(b, c) == change_rate(a, c)
        for a, b, c in [
            tuple(
                Fraction(int(rng.integers(1, 999)), int(rng.integers(1, 999)))
                for _ in range(3)
            )
            for _ in range(200)
        ]
    )
    ok = worst_mean <= 1e-9 and worst_var <= 1e-9 and scale_diff <= 0.01 and telescopes
    assert emit(
        7,
        ok,
        f"1000 columns: |mean| {worst_mean:.2e}, |variance-1| {worst_var:.2e} "
        f"(tol 1e-9); bundled predictor columns variance |diff| {scale_diff:.4f} "
        f"(tol 0.01); exact telescoping on rationals: {telescopes}",
    )


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["--output-dir", str(out1), "reproduce"])
    code2 = main(["--output-dir", str(out2), "reproduce"])
    tree1, tree2 = _tree(out1), _tree(out2)
    identical = tree1 == tree2
    assert emit(
        8,
        identical and code1 == code2,
        f"two consecutive reproduce runs emit byte-identical documents "
        f"({len(tree1)} files compared): {identical}",
    )


def test_criterion_8_full_gate():
    result = run_reproduction()
    failures = [f"{c.criterion}/{c.name}" for c in result.hard_failures]
    emit(
        8,
        result.passed,
        "reproduce passes every hard check"
        if result.passed
        else f"hard failures: {failures} (the single known reference-table "
             f"discrepancy, see criterion 3)",
    )
    assert result.passed, (
        f"reproduce reports hard failures: {failures}; root cause is the "
        "criterion-3 importance-cell discrepancy documented in "
        "test_plsr.py::TestVip::test_reference_vip_uses_unnormalized_weight_columns"
    )
