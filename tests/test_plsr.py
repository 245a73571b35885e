import dataclasses
import json
from typing import NamedTuple

import numpy as np
import pytest

from bikepls import plsr
from bikepls.errors import TooManyComponents
from bikepls.frames import TRANSITION_LABELS, build_frame
from bikepls.plsr import (
    adjusted_r_square,
    check_model,
    coefficients,
    extract_factors,
    fit,
    model_from_json,
    model_to_json,
    predict,
    variance_explained,
    vip,
    vip_table,
)
from conftest import SPECIAL_VALUES, random_frame


def min_norm_lstsq(x, y):
    """Independent oracle: minimum-norm least squares via pseudoinverse."""
    return np.linalg.pinv(x) @ (y - y.mean())


# --- reference oracle: the general NIPALS iteration extract_factors replaced --

class OracleComponent(NamedTuple):
    t: np.ndarray  # predictor score (n,)
    u: np.ndarray  # response score (n,)
    p: np.ndarray  # predictor loading (J,)
    q: np.ndarray  # unit response direction (m,)
    w: np.ndarray  # unit predictor weight (J,)


def oracle_nipals_component(E, F, tol=1e-10, max_iter=500):
    """One factor of the alternating score iteration, for any response width.

    Returns None where the closed form stops early on a zero residual.
    """
    E = np.asarray(E, dtype=float)
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F.reshape(-1, 1)
    if np.linalg.norm(E) <= 1e-12 or np.linalg.norm(F) <= 1e-12:
        return None
    u = F[:, 0].copy()
    t_prev = None
    for _ in range(max_iter):
        w = E.T @ u
        w_norm = np.linalg.norm(w)
        if w_norm <= 1e-12:
            return None
        w /= w_norm
        t = E @ w
        q = F.T @ t
        q_norm = np.linalg.norm(q)
        if q_norm <= 1e-12:
            return None
        q /= q_norm
        u = F @ q
        if F.shape[1] == 1:
            break
        if t_prev is not None and np.linalg.norm(t - t_prev) <= tol:
            break
        t_prev = t
    else:
        raise RuntimeError(f"score iteration still moving after {max_iter} passes")
    # Canonical sign: make the dominant response-direction entry positive.
    k = int(np.argmax(np.abs(q)))
    if q[k] < 0:
        w, t, q, u = -w, -t, -q, -u
    p = E.T @ t / (t @ t)
    return OracleComponent(t=t, u=u, p=p, q=q, w=w)


def oracle_deflate(E, F, t, p):
    """Remove a fitted factor: rank-1 for E, regression on t for F."""
    E_next = E - np.outer(t, p)
    c = F.T @ t / (t @ t)
    F_next = F - np.outer(t, c)
    return E_next, F_next


def oracle_fit(frame, n_components):
    """Weights, rotations, loadings, response loadings and Σt² per factor."""
    X = np.array(frame.x, dtype=float)
    E = X.copy()
    F = (frame.y - float(frame.y.mean())).reshape(-1, 1)
    ws, ts, ps, cs = [], [], [], []
    for _ in range(n_components):
        comp = oracle_nipals_component(E, F)
        if comp is None:
            break
        c = F.T @ comp.t / (comp.t @ comp.t)
        E, F = oracle_deflate(E, F, comp.t, comp.p)
        ws.append(comp.w)
        ts.append(comp.t)
        ps.append(comp.p)
        cs.append(c)
    J = X.shape[1]
    if not ts:
        return np.zeros((J, 0)), np.zeros((J, 0)), np.zeros((J, 0)), np.zeros(0), np.zeros(0)
    W, T, P = np.column_stack(ws), np.column_stack(ts), np.column_stack(ps)
    C = np.column_stack(cs)
    R = W @ np.linalg.inv(P.T @ W)
    return W, R, P, C[0], (T * T).sum(axis=0)


def _oracle_frames(rng, count):
    """Random frames, a third with a collinear column pair, a third with the
    response equal to a predictor; the fit always asks for A = n - 1 when
    the predictors allow it."""
    for i in range(count):
        n = int(rng.integers(3, 10))
        j = int(rng.integers(2, 9))
        raw = rng.normal(size=(n, j)) * rng.uniform(0.2, 4.0)
        y = rng.normal(size=n) * rng.uniform(0.2, 4.0)
        if i % 3 == 1:
            raw[:, 1] = 2.5 * raw[:, 0] - 1.0
        elif i % 3 == 2:
            y = raw[:, -1].copy()
        yield build_frame(tuple(f"s{k}" for k in range(n)), raw, y, TRANSITION_LABELS[0])


class TestAgainstNipalsOracle:
    def test_bit_identical_to_nipals_iteration(self, rng):
        saturated = 0
        for frame in _oracle_frames(rng, 600):
            a_max = min(frame.n_samples - 1, frame.n_predictors)
            saturated += a_max == frame.n_samples - 1
            model = fit(frame, a_max)
            W, R, P, C, score_ss = oracle_fit(frame, a_max)
            assert np.array_equal(model.x_weights, W)
            assert np.array_equal(model.x_rotations, R)
            assert np.array_equal(model.x_loadings, P)
            assert np.array_equal(model.y_loadings, C)
            assert np.array_equal(model.score_ss, score_ss)
        assert saturated >= 300


class TestNipalsComponent:
    """One factor of single-response NIPALS, which extract_factors computes
    in closed form."""

    def test_orthonormal_basis_oracle(self, rng):
        q_mat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        W, T, _, _, _ = extract_factors(q_mat, q_mat[:, 0], 1)
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert W[:, 0] == pytest.approx(e1, abs=1e-12)
        assert T[:, 0] == pytest.approx(q_mat[:, 0], abs=1e-12)

    def test_single_response_column_converges_immediately(self, rng):
        E = rng.normal(size=(5, 3))
        f = rng.normal(size=5)
        W, T, _, _, _ = extract_factors(E, f, 1)
        assert np.linalg.norm(W[:, 0]) == pytest.approx(1.0)
        # the iteration's first pass is the closed form ...
        comp = oracle_nipals_component(E, f)
        assert np.array_equal(comp.w, W[:, 0])
        assert np.array_equal(comp.t, T[:, 0])
        # ... and one more pass reproduces the same direction
        w_again = E.T @ comp.u
        w_again /= np.linalg.norm(w_again)
        assert w_again == pytest.approx(W[:, 0], abs=1e-12)

    def test_zero_predictor_residual(self):
        W, T, P, C, E = extract_factors(np.zeros((4, 3)), np.ones(4), 2)
        assert W.shape == P.shape == (3, 0)
        assert T.shape == (4, 0) and C.shape == (0,)
        assert not E.any()

    def test_zero_response_residual(self, rng):
        x = rng.normal(size=(4, 3))
        W, T, _, C, E = extract_factors(x, np.zeros(4), 2)
        assert W.shape == (3, 0) and T.shape == (4, 0) and C.shape == (0,)
        assert np.array_equal(E, x)

    def test_canonical_sign(self, rng):
        # fᵀt = ‖Eᵀf‖ > 0: the response direction is positive for every factor
        for _ in range(20):
            W, T, P, C, E = extract_factors(rng.normal(size=(6, 4)), rng.normal(size=6), 4)
            assert (C > 0).all()


class TestDeflate:
    """The rank-1 deflation extract_factors applies after each factor."""

    def test_rank_one_exact(self, rng):
        t = rng.normal(size=5)
        p = rng.normal(size=3)
        _, _, _, _, E2 = extract_factors(np.outer(t, p), rng.normal(size=5), 1)
        assert np.abs(E2).max() < 1e-12

    def test_residual_orthogonal_to_score(self, rng):
        E = rng.normal(size=(6, 4))
        f = rng.normal(size=6)
        _, T, _, C, E2 = extract_factors(E, f, 1)
        assert np.abs(E2.T @ T).max() < 1e-9
        assert np.abs((f - T @ C) @ T).max() < 1e-9

    def test_second_deflation_is_identity(self, rng):
        # a deflated residual has zero loading and zero response loading on
        # the same score, so deflating by it again changes nothing
        E = rng.normal(size=(6, 4))
        f = rng.normal(size=6)
        _, T, _, C, E2 = extract_factors(E, f, 1)
        t = T[:, 0]
        p_again = E2.T @ t / (t @ t)
        c_again = (f - C[0] * t) @ t / (t @ t)
        assert np.abs(p_again).max() < 1e-12
        assert abs(c_again) < 1e-12
        assert np.abs(np.outer(t, p_again)).max() < 1e-12

    def test_norm_decreases(self, rng):
        for _ in range(20):
            E = rng.normal(size=(4, 5))
            _, _, _, _, E2 = extract_factors(E, rng.normal(size=4), 1)
            assert np.linalg.norm(E2) < np.linalg.norm(E)


class TestFit:
    def test_reference_cumulative_response_variance(self, table1_models):
        model = table1_models["pre_pandemic_to_pandemic"]
        report = variance_explained(model)
        assert report.cumulative_y == pytest.approx((0.836, 0.924, 1.000), abs=0.02)

    def test_zero_components(self, table1_frames):
        frame = table1_frames["pre_pandemic_to_pandemic"]
        model = fit(frame, 0)
        assert model.n_components == 0
        assert model.score_ss.shape == (0,)
        assert model.n_samples == 4
        raw = frame.x * model.x_stds + model.x_means
        assert predict(model, raw) == pytest.approx(
            np.full(4, frame.y.mean()), abs=1e-12
        )

    def test_too_many_components(self, table1_frames):
        with pytest.raises(TooManyComponents):
            fit(table1_frames["pre_pandemic_to_pandemic"], 4)

    def test_truncates_on_rank_deficiency(self, rng):
        # rank-1 predictors: the second factor has nothing left to fit
        u = rng.normal(size=5)
        v = rng.normal(size=3) + 2.0
        frame = build_frame(
            tuple(f"s{i}" for i in range(5)),
            np.outer(u, v),
            rng.normal(size=5),
            TRANSITION_LABELS[0],
        )
        model = fit(frame, 3)
        assert model.n_components == 1
        assert model.requested_components == 3

    def test_constant_response_yields_empty_model(self, rng):
        frame = build_frame(
            tuple(f"s{i}" for i in range(5)),
            rng.normal(size=(5, 3)),
            np.full(5, 2.5),
            TRANSITION_LABELS[0],
        )
        model = fit(frame, 2)
        assert model.n_components == 0


class TestVarianceExplained:
    def test_rank_one_single_share(self, rng):
        u = rng.normal(size=6)
        v = rng.normal(size=4) + 1.5
        frame = build_frame(
            tuple(f"s{i}" for i in range(6)),
            np.outer(u, v),
            u + rng.normal(size=6) * 0.1,
            TRANSITION_LABELS[0],
        )
        model = fit(frame, 1)
        report = variance_explained(model)
        assert report.x_shares[0] == pytest.approx(1.0, abs=1e-9)

    def test_full_span_sums_to_one(self, rng):
        for _ in range(20):
            frame = random_frame(rng, n=4)
            a_max = min(frame.n_samples - 1, frame.n_predictors)
            model = fit(frame, a_max)
            if model.n_components < a_max or a_max < 3:
                continue
            report = variance_explained(model)
            assert report.cumulative_y[-1] == pytest.approx(1.0, abs=1e-6)

    def test_shares_in_unit_interval(self, rng):
        for _ in range(20):
            frame = random_frame(rng)
            model = fit(frame, min(frame.n_samples - 1, frame.n_predictors))
            report = variance_explained(model)
            for arr in (report.x_shares, report.y_shares,
                        report.cumulative_x, report.cumulative_y):
                assert (arr >= -1e-12).all() and (arr <= 1 + 1e-9).all()
            assert (np.diff(report.cumulative_x) >= -1e-12).all()
            assert (np.diff(report.cumulative_y) >= -1e-12).all()

    def test_adjusted_r2_of_every_factor(self, rng):
        # one entry per factor, each the closed form at that factor count
        for _ in range(20):
            frame = random_frame(rng, n=int(rng.integers(8, 20)), j=int(rng.integers(2, 7)))
            model = fit(frame, frame.n_predictors)
            assert model.n_components == frame.n_predictors
            report = variance_explained(model)
            assert len(report.adjusted_r2) == model.n_components
            n = frame.n_samples
            for a, (r2, adjusted) in enumerate(zip(report.cumulative_y, report.adjusted_r2), 1):
                expected = 1 - (1 - min(r2, 1.0)) * (n - 1) / (n - a - 1)
                assert adjusted == pytest.approx(expected, rel=1e-12)


class TestAdjustedRSquare:
    @pytest.mark.parametrize(
        "r2,n,a,expected",
        [
            (0.836, 4, 1, 0.754),
            (0.921, 4, 1, 0.8815),
            (0.950, 4, 1, 0.925),
            (0.924, 4, 2, 0.772),
            (0.982, 4, 2, 0.946),
        ],
    )
    def test_known_cells(self, r2, n, a, expected):
        assert adjusted_r_square(r2, n, a) == pytest.approx(expected, abs=5e-4)

    def test_degenerate_denominator(self):
        for r2 in (0.0, 0.3, 0.99, 1.0):
            assert adjusted_r_square(r2, 4, 3) == 0.0
            assert adjusted_r_square(r2, 3, 2) == 0.0

    def test_matches_closed_form(self, rng):
        for _ in range(1000):
            n = int(rng.integers(3, 50))
            a = int(rng.integers(1, n - 1))
            r2 = float(rng.uniform())
            expected = 1 - (1 - r2) * (n - 1) / (n - a - 1)
            assert adjusted_r_square(r2, n, a) == pytest.approx(expected, rel=1e-12)


class TestVip:
    def test_uniform_importance(self, rng):
        # five copies of the same predictor: every direction entry equal
        z = rng.normal(size=8)
        raw = np.column_stack([z * s for s in (1.0, 2.0, 0.5, 3.0, 1.5)])
        frame = build_frame(
            tuple(f"s{i}" for i in range(8)), raw,
            z + rng.normal(size=8) * 0.05, TRANSITION_LABELS[0],
        )
        model = fit(frame, 1)
        assert vip(model, 1) == pytest.approx(np.ones(5), abs=1e-9)

    def test_squares_sum_to_predictor_count(self, rng):
        for _ in range(20):
            frame = random_frame(rng)
            model = fit(frame, min(frame.n_samples - 1, frame.n_predictors))
            for a in range(1, model.n_components + 1):
                scores = vip(model, a)
                assert float(scores @ scores) == pytest.approx(
                    frame.n_predictors, abs=1e-6
                )

    def test_reference_anchor(self, table1_models):
        model = table1_models["pre_pandemic_to_pandemic"]
        scores = vip(model, 1)
        assert scores[2] == pytest.approx(2.013, abs=0.005)
        assert scores[2] == pytest.approx(
            np.sqrt(5) * abs(model.x_rotations[2, 0]), abs=1e-9
        )

    def test_reference_first_column_self_consistent(self, golden):
        col = np.array(golden["periods"]["pre_pandemic_to_pandemic"]["vip"])[:, 0]
        assert float(col @ col) == pytest.approx(5.0, abs=1e-3)

    def test_reference_vip_uses_unnormalized_weight_columns(
        self, table1_models, golden
    ):
        # The bundled reference importance tables embed raw (unnormalized)
        # rotated-weight columns: that convention reconstructs all 45 cells
        # to print precision, while the column-normalized definition used
        # by vip() cannot reach one cell (pre-pandemic, factor 3,
        # male_female_ratio) within 0.03. This pins the origin of the one
        # reference-table discrepancy the acceptance gate reports.
        worst_unnormalized = 0.0
        for label in TRANSITION_LABELS:
            model = table1_models[label]
            ref = np.array(golden["periods"][label]["vip"])
            ssy = model.y_loadings ** 2 * model.score_ss / model.y_total_ss
            R = model.x_rotations
            for a in range(1, 4):
                s = ssy[:a]
                unnorm = np.sqrt(5 * (R[:, :a] ** 2 @ s) / s.sum())
                worst_unnormalized = max(
                    worst_unnormalized, np.abs(unnorm - ref[:, a - 1]).max()
                )
        assert worst_unnormalized < 0.01

        model = table1_models["pre_pandemic_to_pandemic"]
        ref = np.array(golden["periods"]["pre_pandemic_to_pandemic"]["vip"])
        outlier_diff = abs(vip(model, 3)[4] - ref[4, 2])
        assert 0.03 < outlier_diff < 0.05

    def test_table_stacks_columns(self, table1_models):
        model = table1_models["pandemic_to_transition"]
        table = vip_table(model)
        assert table.shape == (5, 3)
        for a in range(1, 4):
            assert table[:, a - 1] == pytest.approx(vip(model, a))


class TestCoefficients:
    def test_full_rank_matches_pseudoinverse_oracle(self, rng):
        for _ in range(30):
            frame = random_frame(rng)
            a_max = min(frame.n_samples - 1, frame.n_predictors)
            model = fit(frame, a_max)
            if model.n_components < a_max:
                continue
            coef = coefficients(model, a_max)
            oracle = min_norm_lstsq(frame.x, frame.y)
            assert coef.values == pytest.approx(oracle, abs=1e-6)

    def test_intercept_is_response_mean(self, table1_models, table1_frames):
        for label in TRANSITION_LABELS:
            coef = coefficients(table1_models[label], 3)
            assert coef.intercept == pytest.approx(
                table1_frames[label].y.mean(), abs=1e-12
            )

    def test_zero_factors(self, table1_models):
        model = table1_models["pre_pandemic_to_pandemic"]
        zero = coefficients(model, 0)
        assert zero.values == pytest.approx(np.zeros(5))


class TestPredict:
    def test_training_interpolation_at_full_span(self, table1_models, table1_frames):
        for label in TRANSITION_LABELS:
            frame = table1_frames[label]
            model = table1_models[label]
            raw = frame.x * model.x_stds + model.x_means
            assert predict(model, raw, 3) == pytest.approx(frame.y, abs=1e-6)

    def test_mean_row_predicts_intercept(self, table1_models):
        model = table1_models["pandemic_to_transition"]
        got = predict(model, model.x_means.reshape(1, -1), 3)
        assert got[0] == pytest.approx(model.y_mean, abs=1e-12)


class TestSerialization:
    def test_round_trip_bit_for_bit(self, table1_models):
        model = table1_models["transition_to_normalization"]
        text = model_to_json(model)
        back = model_from_json(text)
        for name in plsr._MATRIX_FIELDS:
            assert np.array_equal(getattr(back, name), getattr(model, name))
        assert back.y_mean == model.y_mean
        assert back.x_total_ss == model.x_total_ss
        assert back.y_total_ss == model.y_total_ss
        assert back.n_samples == model.n_samples
        assert back.n_components == model.n_components
        assert back.predictor_names == model.predictor_names
        assert model_to_json(back) == text

    def test_predictions_survive_round_trip(self, table1_models, table1_frames):
        label = "pre_pandemic_to_pandemic"
        model = table1_models[label]
        back = model_from_json(model_to_json(model))
        frame = table1_frames[label]
        raw = frame.x * model.x_stds + model.x_means
        assert np.array_equal(predict(model, raw), predict(back, raw))

    def test_every_fit_passes_the_document_check(self, rng):
        for _ in range(200):
            frame = random_frame(rng)
            model = model_from_json(model_to_json(fit(frame, min(frame.n_samples - 1,
                                                                  frame.n_predictors))))
            check_model(model)

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            model_from_json(json.dumps({"format": "something-else"}))

    def test_rejects_version_1_document(self, table1_models):
        doc = json.loads(model_to_json(table1_models["pre_pandemic_to_pandemic"]))
        for version in (1, None, 3):
            doc["version"] = version
            with pytest.raises(ValueError, match="re-run `analyze`"):
                model_from_json(json.dumps(doc))

    def test_size_does_not_grow_with_samples(self, rng):
        # the same 50 rows tiled 100 times: every stored number keeps its
        # magnitude, so only n_samples and a few last-digit roundings of the
        # sums (x_total_ss = n·J may print as "250" or "24999.999999999996")
        # can add bytes; a per-sample array would add tens of kilobytes
        raw = rng.normal(size=(50, 5))
        y = raw @ rng.normal(size=5) + rng.normal(size=50)
        texts = []
        for reps in (1, 100):
            n = 50 * reps
            frame = build_frame(tuple(f"s{i}" for i in range(n)), np.tile(raw, (reps, 1)),
                                np.tile(y, reps), TRANSITION_LABELS[0])
            texts.append(model_to_json(fit(frame, 3)))
        assert json.loads(texts[1])["n_samples"] == 5000
        assert len(texts[1]) <= len(texts[0]) + 64

    def test_decimal_strings_have_enough_digits(self, table1_models):
        doc = json.loads(model_to_json(table1_models["pre_pandemic_to_pandemic"]))
        for value in doc["x_rotations"]["data"]:
            assert float(value) == float(f"{float(value):.17g}")


def matrix_to_doc_oracle(arr):
    """The per-element encoder that ``plsr.matrix_to_doc`` replaced."""
    return {
        "shape": list(arr.shape),
        "data": [f"{v:.17g}" for v in np.asarray(arr, dtype=float).ravel()],
    }


def matrix_from_doc_oracle(obj):
    """The per-element decoder that ``plsr.matrix_from_doc`` replaced."""
    data = np.array([float(s) for s in obj["data"]], dtype=float)
    return data.reshape(tuple(obj["shape"]))


class TestDecimalStringsAgainstOracle:
    def _arrays(self, rng):
        yield np.array(SPECIAL_VALUES)
        yield np.array(SPECIAL_VALUES).reshape(2, 5)
        yield np.zeros((5, 0))
        yield np.zeros(0)
        for _ in range(200):
            shape = tuple(int(d) for d in rng.integers(1, 7, size=rng.integers(1, 3)))
            scale = 10.0 ** rng.integers(-300, 300, size=shape)
            arr = rng.normal(size=shape) * scale
            arr.ravel()[rng.random(arr.size) < 0.2] = rng.choice(SPECIAL_VALUES)
            yield arr
        # a strided view and an integer array go through the same path
        yield rng.normal(size=(6, 4))[::2, ::-1]
        yield np.arange(6).reshape(2, 3)

    def test_encoder_matches_oracle(self, rng):
        for arr in self._arrays(rng):
            assert plsr.matrix_to_doc(arr) == matrix_to_doc_oracle(arr)

    def test_decoder_matches_oracle_bit_for_bit(self, rng):
        for arr in self._arrays(rng):
            doc = matrix_to_doc_oracle(arr)
            got, want = plsr.matrix_from_doc(doc), matrix_from_doc_oracle(doc)
            assert got.shape == want.shape == arr.shape
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == np.asarray(arr, dtype=float).tobytes()

    def test_model_documents_unchanged(self, table1_models, monkeypatch):
        fast = {label: model_to_json(m) for label, m in table1_models.items()}
        monkeypatch.setattr(plsr, "matrix_to_doc", matrix_to_doc_oracle)
        for label, model in table1_models.items():
            assert fast[label] == model_to_json(model)


class TestSignFlipInvariance:
    def test_diagnostics_unchanged(self, rng):
        for _ in range(5):
            frame = random_frame(rng)
            model = fit(frame, min(frame.n_samples - 1, frame.n_predictors))
            if model.n_components == 0:
                continue
            k = int(rng.integers(model.n_components))
            flipped = _flip(model, k)
            raw = frame.x * model.x_stds + model.x_means
            for a in range(1, model.n_components + 1):
                c0, c1 = coefficients(model, a), coefficients(flipped, a)
                assert np.abs(c0.values - c1.values).max() < 1e-12
                assert np.abs(vip(model, a) - vip(flipped, a)).max() < 1e-12
                assert np.abs(
                    predict(model, raw, a) - predict(flipped, raw, a)
                ).max() < 1e-12
            v0, v1 = variance_explained(model), variance_explained(flipped)
            assert np.abs(v0.x_shares - v1.x_shares).max() < 1e-12
            assert np.abs(v0.y_shares - v1.y_shares).max() < 1e-12


def _flip(model, k):
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


def _extract(frame):
    """extract_factors' own (W, T, P, C, E) for the frame's full-span fit."""
    a_max = min(frame.n_samples - 1, frame.n_predictors)
    return extract_factors(frame.x, frame.y - frame.y.mean(), a_max)


class TestStructuralInvariants:
    def test_score_orthogonality_and_reconstruction(self, rng):
        for _ in range(20):
            frame = random_frame(rng)
            _, T, P, _, E = _extract(frame)
            gram = T.T @ T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-8
            assert np.abs(frame.x - T @ P.T - E).max() < 1e-8

    def test_scores_match_rotation_identity(self, rng):
        for _ in range(10):
            frame = random_frame(rng)
            model = fit(frame, min(frame.n_samples - 1, frame.n_predictors))
            _, T, _, _, _ = _extract(frame)
            assert np.abs(frame.x @ model.x_rotations - T).max() < 1e-9

    def test_deflation_monotone(self, rng):
        for _ in range(10):
            frame = random_frame(rng)
            _, T, P, _, _ = _extract(frame)
            norms = [
                np.linalg.norm(frame.x - T[:, :a] @ P[:, :a].T)
                for a in range(T.shape[1] + 1)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
