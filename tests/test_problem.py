import base64
import json
import os
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from relaxqp.bench import FamilySpec, generate, reference_solution
from relaxqp.errors import InfeasibleBoundsError, InputError
from relaxqp.problem import (
    BINARY_KEY,
    ConstraintKind,
    QpProblem,
    classify,
    load_problem,
    objective,
    osqp_residuals,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    terminated,
    write_text_atomic,
)

INF = np.inf


def tiny_problem():
    return QpProblem(
        P=np.eye(2),
        q=np.array([1.0, -1.0]),
        A=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        l=np.array([-1.0, -INF, 0.0]),
        u=np.array([1.0, 2.0, 0.0]),
        name="tiny",
    )


class TestClassify:
    def test_equality(self):
        assert classify(np.array([0.0]), np.array([0.0]))[0] == ConstraintKind.EQUALITY

    def test_loose(self):
        assert classify(np.array([-INF]), np.array([INF]))[0] == ConstraintKind.LOOSE

    def test_mixed(self):
        kinds = classify(np.array([-1.0, 2.0, -INF]), np.array([1.0, 2.0, 5.0]))
        assert list(kinds) == [
            ConstraintKind.INEQUALITY,
            ConstraintKind.EQUALITY,
            ConstraintKind.INEQUALITY,
        ]

    def test_infeasible_bounds(self):
        with pytest.raises(InfeasibleBoundsError):
            classify(np.array([1.0]), np.array([0.0]))

    def test_idempotent_and_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            l = rng.choice([-INF, -1.0, 0.0], size=6)
            step = rng.choice([0.0, 1.0, INF], size=6)
            u = np.array(
                [
                    (0.0 if s == 0.0 else INF) if np.isneginf(li) else li + s
                    for li, s in zip(l, step)
                ]
            )
            k1 = classify(l, u)
            k2 = classify(l, u)
            assert np.array_equal(k1, k2)


class TestProblemValidation:
    def test_non_psd_rejected(self):
        with pytest.raises(InputError):
            QpProblem(
                P=np.array([[-1.0]]), q=np.zeros(1), A=np.ones((1, 1)),
                l=np.zeros(1), u=np.ones(1),
            )

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            QpProblem(
                P=np.array([[1.0, 0.5], [0.0, 1.0]]), q=np.zeros(2), A=np.ones((1, 2)),
                l=np.zeros(1), u=np.ones(1),
            )

    def test_zero_row_excluding_origin_rejected(self):
        with pytest.raises(InputError):
            QpProblem(
                P=np.eye(2), q=np.zeros(2), A=np.zeros((1, 2)),
                l=np.array([1.0]), u=np.array([2.0]),
            )

    def test_zero_row_containing_origin_ok(self):
        prob = QpProblem(
            P=np.eye(2), q=np.zeros(2), A=np.zeros((1, 2)),
            l=np.array([-1.0]), u=np.array([2.0]),
        )
        assert prob.m == 1


class TestObjective:
    def test_identity_quadratic(self):
        prob = QpProblem(P=np.eye(2), q=np.zeros(2), A=np.eye(2),
                         l=-np.ones(2), u=np.ones(2))
        assert objective(prob, np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        prob = QpProblem(
            P=np.array([[2.0, 0.0], [0.0, 4.0]]), q=np.array([1.0, -1.0]),
            A=np.eye(2), l=-10 * np.ones(2), u=10 * np.ones(2),
        )
        assert objective(prob, np.array([1.0, 2.0])) == pytest.approx(8.0)

    def test_matches_reference_optimum(self):
        prob = generate(FamilySpec("random_qp", 10, 2))
        ref = reference_solution(prob)
        assert objective(prob, ref.x_star) == pytest.approx(ref.objective, abs=1e-6)

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(4)
        prob = generate(FamilySpec("random_qp", 8, 3))
        for _ in range(25):
            x1 = rng.standard_normal(prob.n)
            x2 = rng.standard_normal(prob.n)
            t = rng.uniform()
            lhs = objective(prob, t * x1 + (1 - t) * x2)
            rhs = t * objective(prob, x1) + (1 - t) * objective(prob, x2)
            assert lhs <= rhs + 1e-12


class TestResiduals:
    def test_zero_point(self):
        prob = QpProblem(P=np.eye(2), q=np.zeros(2), A=np.eye(2),
                         l=-np.ones(2), u=np.ones(2))
        res = osqp_residuals(prob, np.zeros(2), np.zeros(2), np.zeros(2))
        assert res.r_prim_inf == 0.0
        assert res.r_dual_inf == 0.0

    def test_reference_optimum_is_stationary(self):
        prob = generate(FamilySpec("random_qp", 10, 5))
        ref = reference_solution(prob)
        z = np.clip(prob.A @ ref.x_star, prob.l, prob.u)
        res = osqp_residuals(prob, ref.x_star, z, ref.lambda_star)
        assert res.r_prim_inf <= 1e-6
        assert res.r_dual_inf <= 1e-6

    def test_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(0)
        prob = generate(FamilySpec("random_qp", 8, 1))
        x = rng.standard_normal(prob.n)
        z = rng.standard_normal(prob.m)
        y = rng.standard_normal(prob.m)
        res = osqp_residuals(prob, x, z, y)
        rp = np.array([prob.A[i] @ x - z[i] for i in range(prob.m)])
        rd = np.array(
            [prob.P[i] @ x + prob.q[i] + prob.A[:, i] @ y for i in range(prob.n)]
        )
        assert_allclose(res.r_prim, rp, rtol=1e-14)
        assert_allclose(res.r_dual, rd, rtol=1e-14)
        assert res.r_prim_inf == np.abs(rp).max()
        assert res.r_dual_inf == np.abs(rd).max()

    def test_scales_match_formula_with_infinite_bounds(self):
        rng = np.random.default_rng(7)
        n, m = 6, 9
        B = rng.standard_normal((n, n))
        l = -rng.uniform(0.5, 2.0, size=m)
        u = rng.uniform(0.5, 2.0, size=m)
        l[:3] = -INF
        u[3:6] = INF
        l[6], u[6] = -INF, INF
        prob = QpProblem(P=B.T @ B, q=rng.standard_normal(n), A=rng.standard_normal((m, n)), l=l, u=u)
        x = rng.standard_normal(n)
        z = np.clip(rng.standard_normal(m), prob.l, prob.u)
        y = rng.standard_normal(m)
        res = osqp_residuals(prob, x, z, y)
        assert np.isfinite(res.prim_scale) and np.isfinite(res.dual_scale)
        assert res.prim_scale == max(np.abs(prob.A @ x).max(), np.abs(z).max())
        assert res.dual_scale == max(
            np.abs(prob.P @ x).max(), np.abs(prob.A.T @ y).max(), np.abs(prob.q).max()
        )


class TestTerminated:
    def test_zero_residuals_pass(self):
        prob = QpProblem(P=np.eye(2), q=np.zeros(2), A=np.eye(2),
                         l=-np.ones(2), u=np.ones(2))
        res = osqp_residuals(prob, np.zeros(2), np.zeros(2), np.zeros(2))
        assert res.r_prim_inf == 0.0 and res.r_dual_inf == 0.0
        assert terminated(res, 1e-9, 1e-9)

    def test_above_threshold_fails(self):
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=-np.ones(1), u=np.ones(1))
        x = np.array([0.5])
        z = np.array([0.5 - 2e-3])
        y = np.array([-0.5])
        res = osqp_residuals(prob, x, z, y)
        assert res.r_prim_inf == pytest.approx(2e-3)
        assert not terminated(res, 1e-3, 1e-3)

    def test_boundary_is_inclusive(self):
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=-np.ones(1), u=np.ones(1))
        # residuals exactly at eps_abs with zero scale terms
        res = osqp_residuals(prob, np.zeros(1), np.zeros(1), np.zeros(1))
        assert res.prim_scale == 0.0 and res.dual_scale == 0.0
        res = replace(res, r_prim_inf=1e-3, r_dual_inf=0.0)
        assert terminated(res, 1e-3, 1e-3)


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        prob = tiny_problem()
        path = tmp_path / "prob.json"
        save_problem(prob, path)
        loaded = load_problem(path)
        assert np.array_equal(loaded.P, prob.P)
        assert np.array_equal(loaded.q, prob.q)
        assert np.array_equal(loaded.A, prob.A)
        assert np.array_equal(loaded.l, prob.l)
        assert np.array_equal(loaded.u, prob.u)
        assert loaded.name == prob.name
        # a second save produces identical bytes
        path2 = tmp_path / "prob2.json"
        save_problem(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_sentinel_encodes_infinity(self, tmp_path):
        # The hand-written list form marks infinite bounds with the +-1e30
        # sentinel; the binary form that save_problem writes carries +-inf.
        doc = {"n": 2, "m": 3, "P": [1.0, 0.0, 0.0, 1.0], "q": [1.0, -1.0],
               "A": [1.0, 0.0, 0.0, 1.0, 1.0, 1.0], "l": [-1.0, -1e30, -2e30],
               "u": [1.0, 2.0, 1e30]}
        listed = problem_from_dict(doc)
        assert listed.l.tolist() == [-1.0, -INF, -INF]
        assert listed.u.tolist() == [1.0, 2.0, INF]
        path = tmp_path / "prob.json"
        save_problem(listed, path)
        written = json.loads(path.read_text())
        assert all(set(written[k]) == {BINARY_KEY} for k in ("P", "q", "A", "l", "u"))
        loaded = load_problem(path)
        assert loaded.l.tobytes() == listed.l.tobytes()
        assert loaded.u.tobytes() == listed.u.tobytes()

    def test_malformed_document(self):
        with pytest.raises(InputError):
            problem_from_dict({"n": 1})

    def test_dict_roundtrip(self):
        prob = tiny_problem()
        again = problem_from_dict(problem_to_dict(prob))
        assert np.array_equal(again.u, prob.u)


def old_writer_dict(prob: QpProblem) -> dict:
    """A problem document in the dense list form, as hand-written files and
    earlier versions of save_problem spell it."""
    def bounds(v):
        out = v.copy()
        out[np.isposinf(out)] = 1e30
        out[np.isneginf(out)] = -1e30
        return out.tolist()

    return {"name": prob.name, "n": prob.n, "m": prob.m, "P": prob.P.ravel().tolist(),
            "q": prob.q.tolist(), "A": prob.A.ravel().tolist(), "l": bounds(prob.l),
            "u": bounds(prob.u), "seed": prob.seed}


SPECIAL_BOUNDS = [-INF, INF, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e30, -1e30,
                  float(np.nextafter(1e30, 0)), float(np.nextafter(1e30, INF)),
                  float(np.nextafter(-1e30, 0)), float(np.nextafter(-1e30, -INF))]
bound_values = st.one_of(st.sampled_from(SPECIAL_BOUNDS), st.floats(allow_nan=False))


@st.composite
def problems(draw):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    M = draw(arrays(np.float64, (n, n), elements=st.floats(-10, 10)))
    d = draw(arrays(np.float64, n, elements=st.floats(0, 10)))
    q = draw(arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False)))
    A = draw(arrays(np.float64, (m, n), elements=st.floats(-1e300, 1e300)))
    a = draw(arrays(np.float64, m, elements=bound_values))
    b = draw(arrays(np.float64, m, elements=bound_values))
    l, u = np.minimum(a, b), np.maximum(a, b)
    zero_rows = np.all(A == 0.0, axis=1)
    l[zero_rows], u[zero_rows] = -INF, INF
    return QpProblem(P=M @ M.T + np.diag(d), q=q, A=A, l=l, u=u,
                     name=draw(st.text(max_size=5)), seed=draw(st.integers(0, 2**31)))


def same_bits(a: QpProblem, b: QpProblem) -> bool:
    return all(getattr(a, k).shape == getattr(b, k).shape
               and getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in "PqAlu")


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


class TestFileProperties:
    @PROPERTY_SETTINGS
    @given(problems())
    def test_save_load_bit_exact_and_stable_bytes(self, prob):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_problem(prob, first)
            loaded = load_problem(first)
            save_problem(loaded, second)
            assert same_bits(loaded, prob)
            assert (loaded.name, loaded.seed) == (prob.name, prob.seed)
            assert first.read_bytes() == second.read_bytes()

    @PROPERTY_SETTINGS
    @given(problems())
    def test_list_form_loads_to_same_arrays(self, prob):
        loaded = problem_from_dict(json.loads(json.dumps(old_writer_dict(prob))))
        def sentinel(v):
            return np.where(v >= 1e30, INF, np.where(v <= -1e30, -INF, v))

        assert same_bits(loaded, replace(prob, l=sentinel(prob.l), u=sentinel(prob.u)))


def binary(raw: bytes) -> dict:
    return {BINARY_KEY: base64.b64encode(raw).decode("ascii")}


# Payloads for the field "P" of a 2x2 problem, which must inflate to 32 bytes.
MALFORMED_P = {
    "bad_base64": {BINARY_KEY: "not base64!"},
    "not_zlib": binary(b"plain bytes, no zlib header"),
    "too_short": binary(zlib.compress(np.eye(2).tobytes()[:-8])),
    "too_long": binary(zlib.compress(np.eye(3).tobytes())),
    "inflation_bomb": binary(zlib.compress(bytes(10_000_000), 9)),
    "truncated_stream": binary(zlib.compress(np.eye(2).tobytes())[:-3]),
    "trailing_bytes": binary(zlib.compress(np.eye(2).tobytes()) + b"extra"),
    "wrong_key": {"f4_raw": ""},
    "not_text": {BINARY_KEY: 12},
}


class TestMalformedBinary:
    @pytest.mark.parametrize("case", sorted(MALFORMED_P))
    def test_input_error_names_field(self, case):
        doc = problem_to_dict(QpProblem(P=np.eye(2), q=np.zeros(2), A=np.ones((1, 2)),
                                        l=-np.ones(1), u=np.ones(1)))
        doc["P"] = MALFORMED_P[case]
        with pytest.raises(InputError, match="'P'"):
            problem_from_dict(json.loads(json.dumps(doc)))


class TestAtomicWrite:
    def test_failure_mid_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "{" + "0" * 100_000 + "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "prob.json"
        save_problem(tiny_problem(), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_problem(replace(tiny_problem(), name="other"), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
