import base64
import json
import os
import re
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy import sparse

from relaxqp import linalg
from relaxqp import problem as problem_mod
from relaxqp.bench import FamilySpec, generate, reference_solution
from relaxqp.cli import main
from relaxqp.engine import rho_pattern
from relaxqp.errors import InfeasibleBoundsError, InputError
from relaxqp.problem import (
    CSR_SIDECAR_KEY,
    SIDECAR_KEY,
    QpProblem,
    classify,
    load_problem,
    objective,
    osqp_residuals,
    problem_from_dict,
    save_problem,
    terminated,
    write_atomic,
)

from oracles import psd_probe_dense

INF = np.inf
# The key of the in-document binary array object of files written before q,
# l and u had sidecars.
OLD_BINARY_KEY = "f8le_zlib_b64"


def tiny_problem():
    return QpProblem(
        P=np.eye(2),
        q=np.array([1.0, -1.0]),
        A=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        l=np.array([-1.0, -INF, 0.0]),
        u=np.array([1.0, 2.0, 0.0]),
        name="tiny",
    )


def saved_doc(prob: QpProblem, directory) -> dict:
    """The document save_problem writes for ``prob`` as ``directory``/p.json."""
    path = Path(directory) / "p.json"
    save_problem(prob, path)
    return json.loads(path.read_text())


def saved_files(directory) -> dict:
    return {f.name: f.read_bytes() for f in Path(directory).iterdir()}


def old_binary_object(a) -> dict:
    """The binary array object files written before q, l and u had sidecars
    hold: the base64 of the zlib-compressed little-endian float64 bytes."""
    raw = zlib.compress(np.asarray(a, dtype="<f8").tobytes(), 1)
    return {OLD_BINARY_KEY: base64.b64encode(raw).decode("ascii")}


class TestClassify:
    def test_equality(self):
        assert classify(np.array([0.0]), np.array([0.0])).tolist() == [True]

    def test_loose(self):
        # a (-inf, inf) row takes the inequality penalty
        equality = classify(np.array([-INF]), np.array([INF]))
        assert equality.tolist() == [False]
        assert rho_pattern(equality, 0.1).tolist() == [0.1]

    def test_mixed(self):
        equality = classify(np.array([-1.0, 2.0, -INF, INF]), np.array([1.0, 2.0, 5.0, INF]))
        assert equality.dtype == bool and equality.tolist() == [False, True, False, False]

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


class TestIdentity:
    @pytest.mark.parametrize("family,size", [("random_qp", 10), ("mpc", 100)])
    def test_problems_compare_by_identity(self, family, size):
        # Two problems of the same data are two objects: they compare
        # unequal without raising, and each can go in a set.
        first, second = (generate(FamilySpec(family, size, seed=1)) for _ in range(2))
        assert first == first and first != second
        assert len({first, second, first}) == 2


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


BIG = 1.5e308  # finite, but two of them sum to inf

# name: (P, q, A, l, u, error message or None); P is 2x2, A has 2 columns.
VALIDATION_CASES = {
    "negative_zero_row_excluding_origin": (
        np.eye(2), np.zeros(2), [[-0.0, -0.0], [1.0, 0.0]], [1.0, -1.0], [2.0, 1.0],
        "all-zero constraint row 0"),
    "negative_zero_row_containing_origin": (
        np.eye(2), np.zeros(2), [[1.0, 0.0], [-0.0, 0.0]], [-1.0, -1.0], [1.0, 1.0], None),
    "nan_in_A": (np.eye(2), np.zeros(2), [[np.nan, 0.0]], [0.0], [1.0], "must be finite"),
    "nan_row_excluding_origin": (
        np.eye(2), np.zeros(2), [[np.nan, 0.0]], [1.0], [2.0], "must be finite"),
    "nan_in_P": (np.diag([np.nan, 1.0]), np.zeros(2), [[1.0, 0.0]], [0.0], [1.0],
                 "must be finite"),
    "nan_in_q": (np.eye(2), [0.0, np.nan], [[1.0, 0.0]], [0.0], [1.0], "must be finite"),
    "inf_in_A": (np.eye(2), np.zeros(2), [[np.inf, 1.0]], [0.0], [1.0], "must be finite"),
    "minus_inf_in_P": (np.diag([1.0, -np.inf]), np.zeros(2), [[1.0, 0.0]], [0.0], [1.0],
                       "must be finite"),
    "inf_in_q": (np.eye(2), [-np.inf, 0.0], [[1.0, 0.0]], [0.0], [1.0], "must be finite"),
    "opposite_infs": (np.eye(2), [np.inf, -np.inf], [[1.0, 0.0]], [0.0], [1.0],
                      "must be finite"),
    "sum_overflows": (np.eye(2), [BIG, BIG], [[BIG, BIG]], [0.0], [1.0], None),
    "sums_overflow_both_ways": (
        np.eye(2), np.zeros(2), [[BIG, BIG], [-BIG, -BIG]], [-1.0, -1.0], [1.0, 1.0], None),
    "overflow_beside_inf": (
        np.eye(2), np.zeros(2), [[BIG, BIG], [-np.inf, 0.0]], [-1.0, -1.0], [1.0, 1.0],
        "must be finite"),
}


class TestValidationDecisions:
    """Zero rows and non-finite entries are told apart exactly on both
    backends: -0.0 is zero, NaN is not, and a sum that overflows on finite
    entries rejects nothing."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    def test_decision(self, backend, case):
        P, q, A, l, u, message = VALIDATION_CASES[case]
        args = dict(P=np.array(P), q=np.array(q), A=np.array(A), l=np.array(l), u=np.array(u))
        with forced_backend(backend), np.errstate(all="raise"):
            if message is None:
                assert QpProblem(**args).kkt_backend == backend
            else:
                with pytest.raises(InputError, match=message):
                    QpProblem(**args)


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


@pytest.fixture(scope="module")
def mpc_n100():
    return generate(FamilySpec("mpc", 100, seed=1))


class TestThroughOperators:
    """objective and row_norms read P and A through the problem's operators,
    the CSR matrices on the sparse backend, and agree with the dense fields."""

    @pytest.mark.parametrize("family,size", [("mpc", 100), ("lasso", 50)])
    def test_objective_bit_identical_with_diagonal_P(self, mpc_n100, family, size):
        prob = mpc_n100 if family == "mpc" else generate(FamilySpec(family, size, seed=1))
        assert prob.kkt_backend == "sparse"
        assert np.array_equal(prob.P, np.diag(np.diag(prob.P)))
        x = np.random.default_rng(size).standard_normal(prob.n)
        assert objective(prob, x) == float(0.5 * x @ (prob.P @ x) + prob.q @ x)

    def test_objective_with_off_diagonal_P(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.1)
        P = B.T @ B + np.eye(40)
        q = rng.standard_normal(40)
        with forced_backend("sparse"):
            prob = QpProblem(P=P, q=q, A=np.eye(40), l=-np.ones(40), u=np.ones(40))
        assert np.count_nonzero(P - np.diag(np.diag(P))) > 40
        for _ in range(20):
            x = rng.standard_normal(40)
            want = 0.5 * x @ (P @ x) + q @ x
            assert abs(objective(prob, x) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("make", [
        lambda mpc: mpc,
        lambda mpc: generate(FamilySpec("control", 10, seed=1)),
        lambda mpc: sparse_problem_with_signed_zeros(),
        lambda mpc: QpProblem(P=np.eye(2), q=np.zeros(2), A=np.array([[-0.0, 0.0], [-3.0, 2.0]]),
                              l=-np.ones(2), u=np.ones(2)),
    ], ids=["mpc_n100", "control_n10", "sparse_signed_zeros", "dense_signed_zeros"])
    def test_row_norms_bit_identical(self, mpc_n100, make):
        prob = make(mpc_n100)
        assert prob.row_norms.tobytes() == np.max(np.abs(prob.A), axis=1).tobytes()


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

    @pytest.mark.parametrize("eps", [(0.0, 1e-3), (1e-3, -1.0), (np.nan, 1e-3), (1e-3, np.nan)])
    def test_invalid_tolerance_rejected(self, eps):
        prob = QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                         l=-np.ones(1), u=np.ones(1))
        res = osqp_residuals(prob, np.zeros(1), np.zeros(1), np.zeros(1))
        with pytest.raises(InputError, match="tolerances"):
            terminated(res, *eps)


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        prob = tiny_problem()
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        save_problem(prob, first / "prob.json")
        loaded = load_problem(first / "prob.json")
        assert np.array_equal(loaded.P, prob.P)
        assert np.array_equal(loaded.q, prob.q)
        assert np.array_equal(loaded.A, prob.A)
        assert np.array_equal(loaded.l, prob.l)
        assert np.array_equal(loaded.u, prob.u)
        assert loaded.name == prob.name
        # a second save produces identical bytes under identical names
        save_problem(loaded, second / "prob.json")
        assert saved_files(second) == saved_files(first)

    def test_sentinel_encodes_infinity(self, tmp_path):
        # The hand-written list form marks infinite bounds with the +-1e30
        # sentinel; the sidecars that save_problem writes carry +-inf.
        doc = {"n": 2, "m": 3, "P": [1.0, 0.0, 0.0, 1.0], "q": [1.0, -1.0],
               "A": [1.0, 0.0, 0.0, 1.0, 1.0, 1.0], "l": [-1.0, -1e30, -2e30],
               "u": [1.0, 2.0, 1e30]}
        listed = problem_from_dict(doc, tmp_path)
        assert listed.l.tolist() == [-1.0, -INF, -INF]
        assert listed.u.tolist() == [1.0, 2.0, INF]
        path = tmp_path / "prob.json"
        save_problem(listed, path)
        written = json.loads(path.read_text())
        assert all(set(written[k]) == {SIDECAR_KEY} for k in "PqAlu")
        loaded = load_problem(path)
        assert loaded.l.tobytes() == listed.l.tobytes()
        assert loaded.u.tobytes() == listed.u.tobytes()

    def test_malformed_document(self, tmp_path):
        with pytest.raises(InputError):
            problem_from_dict({"n": 1}, tmp_path)

    @pytest.mark.parametrize("value", [2.9, True, "2"], ids=["float", "bool", "text"])
    @pytest.mark.parametrize("key", ["n", "m", "seed"])
    def test_integer_fields(self, tmp_path, key, value):
        doc = {"n": 2, "m": 1, "P": [1.0, 0.0, 0.0, 1.0], "q": [0.0, 0.0], "A": [1.0, 1.0],
               "l": [-1.0], "u": [1.0], "seed": 3}
        assert problem_from_dict(doc, tmp_path).seed == 3
        with pytest.raises(InputError, match=f"field '{key}' must be an integer"):
            problem_from_dict({**doc, key: value}, tmp_path)

    def test_dict_roundtrip(self, tmp_path):
        prob = tiny_problem()
        again = problem_from_dict(saved_doc(prob, tmp_path), tmp_path)
        assert same_bits(again, prob)

    def test_dense_backend_writes_sidecars(self, tmp_path):
        prob = generate(FamilySpec("control", 10, seed=1))
        written = saved_doc(prob, tmp_path)
        for key in "PqAlu":
            name = written[key][SIDECAR_KEY]
            raw = (tmp_path / name).read_bytes()
            assert name == f"p.json.{key}.{zlib.crc32(raw):08x}.f8"
            assert raw == getattr(prob, key).astype("<f8").tobytes()
        assert sorted(saved_files(tmp_path)) == sorted(
            ["p.json"] + [written[key][SIDECAR_KEY] for key in "PqAlu"])

    def test_hidden_file_name_drops_leading_dots(self, tmp_path):
        save_problem(tiny_problem(), tmp_path / ".p.json")
        written = json.loads((tmp_path / ".p.json").read_text())
        assert written["A"][SIDECAR_KEY].startswith("p.json.A.")
        assert same_bits(load_problem(tmp_path / ".p.json"), tiny_problem())

    def test_no_constraint_rows(self, tmp_path):
        prob = QpProblem(P=np.eye(3), q=-np.ones(3), A=np.zeros((0, 3)), l=np.zeros(0),
                         u=np.zeros(0))
        name = saved_doc(prob, tmp_path)["A"][SIDECAR_KEY]
        assert name == "p.json.A.00000000.f8" and (tmp_path / name).read_bytes() == b""
        loaded = load_problem(tmp_path / "p.json")
        assert loaded.A.shape == (0, 3) and same_bits(loaded, prob)
        (tmp_path / name).write_bytes(bytes(8))
        with pytest.raises(InputError, match="'A'.*holds 8 bytes, expected 0"):
            load_problem(tmp_path / "p.json")

    def test_rewrite_keeps_the_old_documents_sidecars(self, tmp_path):
        path = tmp_path / "p.json"
        first, second = tiny_problem(), replace(tiny_problem(), A=2 * tiny_problem().A)
        save_problem(first, path)
        (tmp_path / "old.json").write_bytes(path.read_bytes())  # what a reader opened
        save_problem(second, path)
        assert same_bits(load_problem(tmp_path / "old.json"), first)
        assert same_bits(load_problem(path), second)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_resave_keeps_equal_sidecars_and_replaces_others(self, tmp_path, backend):
        with forced_backend(backend):
            prob = tiny_problem()
        doc = saved_doc(prob, tmp_path)
        names = [doc[key].get(SIDECAR_KEY) or doc[key][CSR_SIDECAR_KEY] for key in "PqAlu"]
        want = saved_files(tmp_path)
        for name in names:  # an mtime no rewrite can leave
            os.utime(tmp_path / name, ns=(10**9, 10**9))
        before = {name: os.stat(tmp_path / name) for name in names}
        assert saved_doc(prob, tmp_path) == doc
        for name in names:
            after = os.stat(tmp_path / name)
            assert (after.st_ino, after.st_mtime_ns) == (before[name].st_ino, 10**9), name
        # Under the same names: other bytes of the same size, and a truncation.
        (tmp_path / names[0]).write_bytes(bytes(len(want[names[0]])))
        (tmp_path / names[2]).write_bytes(want[names[2]][:-1])
        assert saved_doc(prob, tmp_path) == doc
        assert saved_files(tmp_path) == want
        for name in names[:3:2]:
            assert os.stat(tmp_path / name).st_ino != before[name].st_ino
        assert same_bits(load_problem(tmp_path / "p.json"), prob)


def old_writer_dict(prob: QpProblem) -> dict:
    """A problem document in the dense list form, as hand-written files spell
    it."""
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
    # -0.0 at a symmetric choice of P's zeros keeps P symmetric and PSD.
    P = M @ M.T + np.diag(d)
    signs = draw(arrays(np.bool_, (n, n)))
    P[(P == 0.0) & (signs | signs.T)] = -0.0
    return QpProblem(P=P, q=q, A=A, l=l, u=u,
                     name=draw(st.text(max_size=5)), seed=draw(st.integers(0, 2**31)))


def same_bits(a: QpProblem, b: QpProblem) -> bool:
    return all(getattr(a, k).shape == getattr(b, k).shape
               and getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in "PqAlu")


def same_nonzero_bits(a: QpProblem, b: QpProblem) -> bool:
    """P and A of a and b hold equal values, with the same bits at every
    nonzero entry (a zero may be -0.0 on one side, +0.0 on the other), and
    q, l and u the same bits."""
    def agree(x, y):
        nonzero = x != 0.0
        return (x.shape == y.shape and np.array_equal(x, y)
                and x[nonzero].tobytes() == y[nonzero].tobytes())

    return (all(agree(getattr(a, k), getattr(b, k)) for k in "PA")
            and all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in "qlu"))


def without_signed_zeros(a: np.ndarray) -> np.ndarray:
    """a with +0.0 wherever it holds -0.0."""
    return np.where(a == 0.0, 0.0, a)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


class TestFileProperties:
    @PROPERTY_SETTINGS
    @given(problems())
    def test_save_load_bit_exact_and_stable_bytes(self, prob):
        assert prob.kkt_backend == "dense"
        with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
            save_problem(prob, Path(first) / "p.json")
            loaded = load_problem(Path(first) / "p.json")
            save_problem(loaded, Path(second) / "p.json")
            assert same_bits(loaded, prob)
            assert (loaded.name, loaded.seed) == (prob.name, prob.seed)
            assert len(saved_files(first)) == 6
            assert saved_files(first) == saved_files(second)

    @PROPERTY_SETTINGS
    @given(problems())
    def test_list_form_loads_to_same_arrays(self, prob):
        loaded = problem_from_dict(json.loads(json.dumps(old_writer_dict(prob))), ".")
        def sentinel(v):
            return np.where(v >= 1e30, INF, np.where(v <= -1e30, -INF, v))

        assert same_bits(loaded, replace(prob, l=sentinel(prob.l), u=sentinel(prob.u)))


def _delete(f: Path) -> str:
    f.unlink()
    return f.name


def _rewrite(f: Path, raw: bytes) -> str:
    f.write_bytes(raw)
    return f.name


def _replace_by_directory(f: Path) -> str:
    f.unlink()
    f.mkdir()
    return f.name


def _copy_as(f: Path, name: str) -> str:
    (f.parent / name).parent.mkdir(exist_ok=True)
    (f.parent / name).write_bytes(f.read_bytes())
    return name


# Each case alters the sidecar file f that field "A" names, or that name, and
# returns the name the document then gives; a case that only renames names a
# file holding the right bytes.  The sidecar holds 3x2 float64s, 48 bytes.
MALFORMED_SIDECAR = {
    "missing": (_delete, "cannot read"),
    "one_byte_short": (lambda f: _rewrite(f, f.read_bytes()[:-1]), "holds 47 bytes, expected 48"),
    "one_byte_long": (lambda f: _rewrite(f, f.read_bytes() + b"\0"), "holds 49 bytes, expected 48"),
    "flipped_byte": (lambda f: _rewrite(f, bytes([f.read_bytes()[0] ^ 1]) + f.read_bytes()[1:]),
                     "fails its crc32 check"),
    "directory": (_replace_by_directory, "cannot read"),
    "parent_path": (lambda f: f"../{f.parent.name}/{f.name}", "not a bare"),
    "subdirectory": (lambda f: _copy_as(f, f"sub/{f.name}"), "not a bare"),
    "leading_dot": (lambda f: _copy_as(f, f".{f.name}"), "not a bare"),
    "field_letter_of_P": (lambda f: _copy_as(f, f.name.replace(".A.", ".P.")), "not a bare"),
    "not_a_string": (lambda f: 12, "not a bare"),
}


class TestMalformedSidecar:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SIDECAR))
    def test_input_error_names_field_and_file(self, tmp_path, case):
        alter, fault = MALFORMED_SIDECAR[case]
        doc = saved_doc(tiny_problem(), tmp_path)
        name = alter(tmp_path / doc["A"][SIDECAR_KEY])
        doc["A"] = {SIDECAR_KEY: name}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(InputError, match=f"'A'.*{fault}") as info:
            load_problem(tmp_path / "p.json")
        assert str(name) in str(info.value)


class TestAtomicWrite:
    def test_failure_mid_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "{" + "0" * 100_000 + "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_bytes(self, tmp_path):
        a = np.arange(6.0).reshape(2, 3)
        write_atomic(tmp_path / "a.f8", a)
        assert (tmp_path / "a.f8").read_bytes() == a.tobytes()
        assert [f.name for f in tmp_path.iterdir()] == ["a.f8"]

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "prob.json"
        save_problem(tiny_problem(), path)
        before = saved_files(tmp_path)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_problem(replace(tiny_problem(), name="other"), path)
        assert saved_files(tmp_path) == before


# ---------------------------------------------------------------------------
# Sparse validation and the CSR file form.


@contextmanager
def forced_backend(backend):
    """Every QpProblem built inside picks ``backend`` (the rule is read once
    per problem, at construction)."""
    with mock.patch.object(problem_mod, "pick_backend", lambda n, m, nnz: backend):
        yield


def csr_input(a: np.ndarray, extra: np.ndarray) -> sparse.csr_array:
    """A CSR matrix of the dense ``a`` storing every entry whose bit pattern
    is nonzero (-0.0 included) plus explicit zeros where ``extra`` is set."""
    stored = (a.view(np.uint64) != 0) | extra
    rows, cols = np.nonzero(stored)
    return sparse.csr_array((a[stored], (rows, cols)), shape=a.shape)


def construct(backend, P, q, A, l, u):
    """(exception type or None, problem or None) of building on ``backend``."""
    with forced_backend(backend):
        try:
            return None, QpProblem(P=P, q=q, A=A, l=l, u=u)
        except InputError as exc:
            return type(exc), None


def assert_csr_equal(M, expected):
    assert M.format == "csr" and M.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        got, want = getattr(M, part), getattr(expected, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part


def assert_operators_match(prob: QpProblem):
    """The operators of the problem's backend, as csr_array or the fields."""
    A, AT, P = prob.operators
    if prob.kkt_backend == "dense":
        assert A is prob.A and P is prob.P and np.array_equal(AT, prob.A.T)
        return
    assert_csr_equal(A, sparse.csr_array(prob.A))
    assert_csr_equal(AT, sparse.csr_array(prob.A).T.tocsr())
    assert_csr_equal(P, sparse.csr_array(prob.P))


SPARSE_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10, 10))


@st.composite
def raw_problems(draw):
    """Problem data that may be rejected: P symmetric PSD, symmetric
    indefinite or asymmetric, occasionally non-finite; zero rows of A whose
    bounds may exclude 0; a mask of explicit zeros for the CSR input."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    mask = draw(arrays(bool, (n, n)))
    M = np.where(mask, draw(arrays(np.float64, (n, n), elements=SPARSE_ENTRIES)), 0.0)
    shape = draw(st.sampled_from(["psd", "symmetric", "asymmetric"]))
    if shape == "psd":
        P = M @ M.T + np.diag(draw(arrays(np.float64, n, elements=st.floats(0, 1))))
    elif shape == "symmetric":
        P = M + M.T
    else:
        P = M
    P = np.where(draw(arrays(bool, (n, n))), P, -0.0)  # signed zeros off the pattern
    A = draw(arrays(np.float64, (m, n), elements=SPARSE_ENTRIES))
    if draw(st.integers(0, 9)) == 0 and A.size:
        A.flat[draw(st.integers(0, A.size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    a = draw(arrays(np.float64, m, elements=st.sampled_from([-INF, -1.0, -0.0, 0.5, INF])))
    b = draw(arrays(np.float64, m, elements=st.sampled_from([-INF, -0.5, 0.0, 1.0, INF])))
    l, u = np.minimum(a, b), np.maximum(a, b)
    q = draw(arrays(np.float64, n, elements=SPARSE_ENTRIES))
    extra_P = draw(arrays(bool, (n, n)))
    extra_A = draw(arrays(bool, (m, n)))
    return P, q, A, l, u, extra_P, extra_A


def psd_margin(P: np.ndarray) -> float:
    """Distance of the smallest eigenvalue of P + 1e-9*I from zero."""
    if not P.size:
        return INF
    return abs(np.linalg.eigvalsh(P)[0] + 1e-9)


class TestSparseValidation:
    """On the sparse backend, dense and CSR construction of the same data
    agree, and agree with the dense backend."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw_problems())
    def test_dense_and_csr_construction_agree(self, data):
        P, q, A, l, u, extra_P, extra_A = data
        err_d, from_dense = construct("sparse", P, q, A, l, u)
        err_c, from_csr = construct("sparse", csr_input(P, extra_P), q, csr_input(A, extra_A), l, u)
        assert err_d is err_c
        err_b, on_dense = construct("dense", P, q, A, l, u)
        # Cholesky and SuperLU may round differently right at the PSD boundary.
        at_boundary = (np.all(np.isfinite(P)) and np.allclose(P, P.T, rtol=1e-10, atol=1e-10)
                       and psd_margin(P) < 1e-12)
        if not at_boundary:
            assert err_b is err_d
        if err_d is not None:
            return
        assert from_dense.kkt_backend == from_csr.kkt_backend == "sparse"
        # The sparse backend keeps the nonzeros only, so both inputs give the
        # same bits; the dense backend keeps the dense input's -0.0.
        assert same_bits(from_csr, from_dense)
        assert not np.any(np.signbit(from_dense.P) & (from_dense.P == 0.0))
        assert not np.any(np.signbit(from_dense.A) & (from_dense.A == 0.0))
        built = [prob for prob in (from_dense, from_csr, on_dense) if prob is not None]
        for prob in built:
            assert same_nonzero_bits(prob, from_dense)
            assert np.array_equal(prob.equality, from_dense.equality)
            assert_operators_match(prob)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_dense_fields_on_access(self, backend):
        # P and A are not held: they are read from the operators.  On the
        # dense backend that is the operator itself, bit for bit the dense
        # input; on the sparse backend each access builds a new C-contiguous
        # float64 array of the nonzeros, with +0.0 where the input held -0.0.
        P = np.array([[2.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        A = np.array([[1.0, -0.0, 0.0], [-0.0, 0.0, 2.0]])
        with forced_backend(backend):
            prob = QpProblem(P=P, q=np.zeros(3), A=A, l=-np.ones(2), u=np.ones(2))
        for key, want, operator in (("P", P, prob.operators[2]), ("A", A, prob.operators[0])):
            got = getattr(prob, key)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert key not in prob.__dict__
            if backend == "dense":
                assert got is operator and got is getattr(prob, key)
                assert got.tobytes() == want.tobytes()
            else:
                assert got is not getattr(prob, key)
                assert got.tobytes() == without_signed_zeros(want).tobytes()
        assert (prob.n, prob.m) == (3, 2)
        with pytest.raises(AttributeError, match="no attribute 'Q'"):
            prob.Q

    def test_csr_input_on_the_dense_backend(self):
        P = np.array([[2.0, -0.0], [-0.0, 1.0]])
        A = np.array([[1.0, -0.0], [0.0, 0.0]])
        args = dict(q=np.zeros(2), l=np.array([-1.0, -1.0]), u=np.ones(2))
        prob = QpProblem(P=csr_input(P, np.ones((2, 2), bool)),
                         A=csr_input(A, np.eye(2, dtype=bool)), **args)
        assert prob.kkt_backend == "dense"
        # A zero value of CSR input is not an entry: it reads +0.0.
        assert prob.P.tobytes() == without_signed_zeros(P).tobytes()
        assert prob.A.tobytes() == without_signed_zeros(A).tobytes()
        assert_operators_match(prob)

    def test_duplicate_entries_are_summed(self):
        A = sparse.coo_array(([1.0, 2.0, 4.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
        with forced_backend("sparse"):
            prob = QpProblem(P=sparse.csr_array(np.eye(2)), q=np.zeros(2), A=A, l=-np.ones(2),
                             u=np.ones(2))
        assert np.array_equal(prob.A, [[0.0, 3.0], [4.0, 0.0]])
        assert_operators_match(prob)


def rotated(eigenvalues, seed=0) -> np.ndarray:
    """A dense symmetric matrix with the given eigenvalues."""
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    P = (Q * eigenvalues) @ Q.T
    return (P + P.T) / 2


def off_diagonal(upper, lower) -> np.ndarray:
    return np.array([[1.0, upper, 0.0], [lower, 1.0, 0.0], [0.0, 0.0, 2.0]])


PSD_GRID = {
    "eigenvalue_-1e-8": (rotated([-1e-8, 1.0, 2.0, 3.0]), False),
    "eigenvalue_-1e-10": (rotated([-1e-10, 1.0, 2.0, 3.0]), True),
    "indefinite": (rotated([-1.0, 1.0, 2.0, 3.0]), False),
    "indefinite_sparse": (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), False),
    "all_zero": (np.zeros((3, 3)), True),
    "negative_diagonal": (np.diag([1.0, -1e-6, 1.0]), False),
    # |x - y| <= 1e-10 + 1e-10*|y|: 1.5e-10 with y = 0.5 + 1e-10, 1e-10 with y = 0
    "asymmetry_inside": (off_diagonal(0.5, 0.5 + 1.4e-10), True),
    "asymmetry_outside": (off_diagonal(0.5, 0.5 + 1.6e-10), False),
    "lone_asymmetry_inside": (off_diagonal(0.9e-10, 0.0), True),
    "lone_asymmetry_outside": (off_diagonal(1.1e-10, 0.0), False),
}


class TestPsdProbe:
    @pytest.mark.parametrize("case", sorted(PSD_GRID))
    def test_both_probes_decide_alike(self, case):
        P, accepted = PSD_GRID[case]
        n = P.shape[0]
        args = dict(q=np.zeros(n), A=np.eye(n), l=-np.ones(n), u=np.ones(n))
        for backend, P_in in (("dense", P), ("sparse", P),
                              ("sparse", csr_input(P, np.zeros(P.shape, bool)))):
            err, prob = construct(backend, P_in, args["q"], args["A"], args["l"], args["u"])
            assert (err is None) == accepted, (backend, type(P_in))
            if not accepted:
                assert err is InputError

    def test_probe_is_not_a_traced_factorization(self, monkeypatch):
        # The probe factors through linalg.positive_splu, so a solve's
        # factorization count (one ldlt_factor call each) stays exact.
        calls = []
        monkeypatch.setattr(linalg, "ldlt_factor", lambda M: calls.append(M))
        with forced_backend("sparse"):
            QpProblem(P=rotated([1e-3, 1.0, 2.0]), q=np.zeros(3), A=np.eye(3),
                      l=-np.ones(3), u=np.ones(3))
        assert calls == []


@st.composite
def probe_inputs(draw):
    """(P, rows per block): P symmetric PSD, slightly asymmetric around the
    1e-10 tolerance, indefinite, or with its smallest eigenvalue within a
    few 1e-9 of zero, where the shift decides."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["psd", "asymmetric", "indefinite", "borderline"]))
    eigenvalues = draw(arrays(np.float64, n, elements=st.floats(0, 10)))
    if kind == "indefinite":
        eigenvalues[0] = -draw(st.floats(1e-6, 10))
    elif kind == "borderline":
        eigenvalues[0] = draw(st.floats(-3e-9, 1e-9))
    P = rotated(eigenvalues, seed=draw(st.integers(0, 2**32 - 1)))
    if kind == "asymmetric" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        P[i, j] += draw(st.floats(-3e-10, 3e-10)) * (1 + abs(P[j, i]))
    return P, draw(st.integers(1, n * n))


class TestPsdProbeBlocks:
    @settings(max_examples=300, deadline=None)
    @given(probe_inputs())
    def test_decides_as_the_whole_matrix_probe(self, case):
        P, block = case
        with mock.patch.object(problem_mod, "PROBE_BLOCK", block):
            assert problem_mod._psd_probe(P) == psd_probe_dense(P)


def sparse_problem_with_signed_zeros() -> QpProblem:
    P = np.array([[2.0, -0.0, 0.0], [-0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    A = np.array([[1.0, -0.0, 0.0], [-0.0, -0.0, 3.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 2.0]])
    with forced_backend("sparse"):
        return QpProblem(P=P, q=np.array([1.0, -0.0, 2.0]), A=A,
                         l=np.array([-1.0, -INF, -0.0, 0.0]), u=np.array([1.0, 2.0, 0.0, INF]),
                         name="signed_zeros", seed=3)


def csr_sidecar_parts(directory, doc: dict, key: str):
    """(indptr, indices, data) of the CSR sidecar file field ``key`` names."""
    raw = (Path(directory) / doc[key][CSR_SIDECAR_KEY]).read_bytes()
    nnz = doc[key]["nnz"]
    rows = (len(raw) - 12 * nnz) // 4  # row pointers: one more than the matrix's rows
    return (np.frombuffer(raw[: 4 * rows], "<i4"),
            np.frombuffer(raw[4 * rows : 4 * (rows + nnz)], "<i4"),
            np.frombuffer(raw[4 * (rows + nnz) :], "<f8"))


class TestCsrFileForm:
    @pytest.mark.parametrize("make", [
        lambda: generate(FamilySpec("lasso", 20, seed=1)), sparse_problem_with_signed_zeros,
    ], ids=["lasso_n20", "signed_zeros"])
    def test_roundtrip_bit_exact(self, tmp_path, make):
        prob = make()
        assert prob.kkt_backend == "sparse"
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        written = saved_doc(prob, first)
        for key in "PA":
            assert set(written[key]) == {CSR_SIDECAR_KEY, "nnz"}
            name = written[key][CSR_SIDECAR_KEY]
            raw = (first / name).read_bytes()
            assert name == f"p.json.{key}.{zlib.crc32(raw):08x}.csr"
        assert all(set(written[key]) == {SIDECAR_KEY} for key in "qlu")
        with forced_backend("sparse"):
            loaded = load_problem(first / "p.json")
        assert same_bits(loaded, prob) and (loaded.name, loaded.seed) == (prob.name, prob.seed)
        assert np.array_equal(loaded.equality, prob.equality)
        assert_operators_match(loaded)
        save_problem(loaded, second / "p.json")
        assert saved_files(first) == saved_files(second)

    def test_zero_values_are_not_stored(self, tmp_path):
        prob = sparse_problem_with_signed_zeros()
        doc = saved_doc(prob, tmp_path)
        indptr, indices, data = csr_sidecar_parts(tmp_path, doc, "A")
        assert indptr.tolist() == [0, 1, 2, 2, 4] and indices.tolist() == [0, 2, 0, 2]
        assert data.tobytes() == np.array([1.0, 3.0, -1.0, 2.0]).tobytes()
        assert doc["A"]["nnz"] == 4
        loaded = problem_from_dict(doc, tmp_path)  # small, so it loads on the dense backend
        assert loaded.kkt_backend == "dense" and same_bits(loaded, prob)

    def test_sidecar_with_zero_values_loads_without_them(self, tmp_path):
        # Files written while a CSR sidecar kept every entry whose bit
        # pattern is not zero hold -0.0 entries; a hand-made one may hold
        # +0.0.  Either loads as the problem of the dense input and is saved
        # without them.
        prob = sparse_problem_with_signed_zeros()
        old, new, fresh = (tmp_path / name for name in ("old", "new", "fresh"))
        for directory in (old, new, fresh):
            directory.mkdir()
        doc = saved_doc(prob, old)
        doc["P"] = csr_sidecar(old, "P", [0, 2, 5, 8], [0, 1, 0, 1, 2, 0, 1, 2],
                               [2.0, -0.0, -0.0, 1.0, 0.5, 0.0, 0.5, 1.0])
        doc["A"] = csr_sidecar(old, "A", [0, 2, 5, 5, 8], [0, 1, 0, 1, 2, 0, 1, 2],
                               [1.0, -0.0, -0.0, -0.0, 3.0, -1.0, 0.0, 2.0])
        (old / "p.json").write_text(json.dumps(doc))
        with forced_backend("sparse"):
            loaded = load_problem(old / "p.json")
        assert same_bits(loaded, prob) and np.array_equal(loaded.equality, prob.equality)
        for got, want in zip(loaded.operators, prob.operators):
            assert_csr_equal(got, want)
        save_problem(loaded, new / "p.json")
        saved = json.loads((new / "p.json").read_text())
        assert (saved["P"]["nnz"], saved["A"]["nnz"]) == (5, 4)
        indptr, indices, data = csr_sidecar_parts(new, saved, "A")
        assert indptr.tolist() == [0, 1, 2, 2, 4] and indices.tolist() == [0, 2, 0, 2]
        assert data.tobytes() == np.array([1.0, 3.0, -1.0, 2.0]).tobytes()
        save_problem(prob, fresh / "p.json")
        assert saved_files(new) == saved_files(fresh)

    def test_list_form_loads_alike(self, tmp_path):
        # A hand-written sparse-backend problem: P and A as dense lists.
        prob = generate(FamilySpec("lasso", 20, seed=1))
        loaded = problem_from_dict(json.loads(json.dumps(old_writer_dict(prob))), tmp_path)
        assert loaded.kkt_backend == "sparse"
        assert same_bits(loaded, prob)
        assert_operators_match(loaded)


@st.composite
def sparse_problems(draw):
    """Valid problems built on the sparse backend: sparse P and A with -0.0
    entries, zero rows of A, infinite bounds, and n or m possibly 0."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 5))
    M = draw(arrays(np.float64, (n, n), elements=SPARSE_ENTRIES))
    P = M @ M.T + np.diag(draw(arrays(np.float64, n, elements=st.floats(0.5, 2))))
    signs = draw(arrays(np.bool_, (n, n)))
    P[(P == 0.0) & (signs | signs.T)] = -0.0
    A = draw(arrays(np.float64, (m, n), elements=SPARSE_ENTRIES))
    a = draw(arrays(np.float64, m, elements=bound_values))
    b = draw(arrays(np.float64, m, elements=bound_values))
    l, u = np.minimum(a, b), np.maximum(a, b)
    zero_rows = np.all(A == 0.0, axis=1)
    l[zero_rows], u[zero_rows] = -INF, INF
    with forced_backend("sparse"):
        return QpProblem(P=P, q=draw(arrays(np.float64, n, elements=SPARSE_ENTRIES)), A=A, l=l,
                         u=u, name=draw(st.text(max_size=5)), seed=draw(st.integers(0, 2**31)))


class TestCsrFileProperties:
    @PROPERTY_SETTINGS
    @given(sparse_problems())
    def test_save_load_bit_exact_and_stable_bytes(self, prob):
        assert prob.kkt_backend == "sparse"
        with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
            save_problem(prob, Path(first) / "p.json")
            doc = json.loads((Path(first) / "p.json").read_text())
            assert all(set(doc[k]) == {CSR_SIDECAR_KEY, "nnz"} for k in "PA")
            with forced_backend("sparse"):
                loaded = load_problem(Path(first) / "p.json")
            save_problem(loaded, Path(second) / "p.json")
            assert same_bits(loaded, prob)
            assert (loaded.name, loaded.seed) == (prob.name, prob.seed)
            assert np.array_equal(loaded.equality, prob.equality)
            assert_operators_match(loaded)
            assert all(np.all(M.data != 0.0) for M in loaded.operators)
            assert len(saved_files(first)) == 6
            assert saved_files(first) == saved_files(second)


def csr_3x2_problem() -> QpProblem:
    with forced_backend("sparse"):
        return QpProblem(P=np.eye(2), q=np.zeros(2), A=np.array([[1.0, 0], [0, 2], [1, 1]]),
                         l=-np.ones(3), u=np.ones(3))


def csr_sidecar(directory, key: str, indptr, indices, data) -> dict:
    """The document entry of field ``key`` for a CSR sidecar file with these
    parts, written to ``directory`` under the name its crc32 gives."""
    raw = b"".join(np.asarray(part, dtype).tobytes()
                   for part, dtype in ((indptr, "<i4"), (indices, "<i4"), (data, "<f8")))
    name = f"p.json.{key}.{zlib.crc32(raw):08x}.csr"
    (Path(directory) / name).write_bytes(raw)
    return {CSR_SIDECAR_KEY: name, "nnz": len(data)}


def _csr_file(f: Path, indptr=None, indices=None, data=None) -> str:
    """A CSR sidecar beside f with f's parts, some replaced, under the name
    its crc32 gives; the name."""
    raw = f.read_bytes()
    parts = [np.frombuffer(raw[:16], "<i4"), np.frombuffer(raw[16:32], "<i4"),
             np.frombuffer(raw[32:], "<f8")]
    for i, part in enumerate((indptr, indices, data)):
        if part is not None:
            parts[i] = part
    return csr_sidecar(f.parent, "A", *parts)[CSR_SIDECAR_KEY]


def _file_case(alter):
    # A case that alters the file and keeps the document's entry.
    def case(f: Path, entry: dict) -> dict:
        alter(f)
        return entry
    return case


def _name_case(name_of):
    # A case that names the file name_of(f) gives.
    return lambda f, entry: {**entry, CSR_SIDECAR_KEY: name_of(f)}


# Each case alters the CSR sidecar file f of field "A" of csr_3x2_problem
# (indptr [0, 1, 2, 4], indices [0, 1, 0, 1], data [1, 2, 1, 1]: 16 + 16 +
# 32 bytes) or the document's entry for it, and returns the entry.
MALFORMED_CSR_SIDECAR = {
    "missing": (_file_case(_delete), "'A'.*cannot read"),
    "flipped_byte": (_file_case(lambda f: _rewrite(f, f.read_bytes()[:-1] + b"\1")),
                     "'A'.*fails its crc32 check"),
    "one_byte_short": (_file_case(lambda f: _rewrite(f, f.read_bytes()[:-1])),
                       "'A'.*holds 63 bytes, expected 64"),
    "nnz_one_more": (lambda f, entry: {**entry, "nnz": 5}, "'A'.*holds 64 bytes, expected 76"),
    "subdirectory": (_name_case(lambda f: _copy_as(f, f"sub/{f.name}")), "'A'.*not a bare"),
    "parent_path": (_name_case(lambda f: f"../{f.parent.name}/{f.name}"), "'A'.*not a bare"),
    "leading_dot": (_name_case(lambda f: _copy_as(f, f".{f.name}")), "'A'.*not a bare"),
    "dense_suffix": (_name_case(lambda f: _copy_as(f, f.name[:-3] + "f8")), "'A'.*not a bare"),
    "column_out_of_range": (_name_case(lambda f: _csr_file(f, indices=[0, 2, 0, 1])),
                            "'A.indices' in sidecar file .* column index outside"),
    "negative_column": (_name_case(lambda f: _csr_file(f, indices=[0, -1, 0, 1])),
                        "'A.indices' in sidecar file .* column index outside"),
    "unsorted_indices": (_name_case(lambda f: _csr_file(f, indices=[0, 1, 1, 0])),
                         "'A.indices' in sidecar file .* sorted and unique"),
    "duplicate_indices": (_name_case(lambda f: _csr_file(f, indices=[0, 1, 1, 1])),
                          "'A.indices' in sidecar file .* sorted and unique"),
    "indptr_decreasing": (_name_case(lambda f: _csr_file(f, indptr=[0, 2, 1, 4])),
                          "'A.indptr' in sidecar file .* never decrease"),
    "indptr_not_from_zero": (_name_case(lambda f: _csr_file(f, indptr=[1, 1, 2, 4])),
                             "'A.indptr' in sidecar file .* start at 0"),
    "indptr_short_of_nnz": (_name_case(lambda f: _csr_file(f, indptr=[0, 1, 2, 3])),
                            "'A.indptr' in sidecar file .* counts 3 entries, not 4"),
}


def expect_cli_error(path, capsys, fault: str = ""):
    """relaxqp solve --problem path ends in one error line, matching the
    regular expression ``fault``, and exit 1."""
    assert main(["solve", "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("relaxqp: error:") and err.count("\n") == 1
    assert re.search(fault, err)


class TestMalformedCsrSidecar:
    def test_base_file(self, tmp_path):
        doc = saved_doc(csr_3x2_problem(), tmp_path)
        assert doc["A"]["nnz"] == 4 and (tmp_path / doc["A"][CSR_SIDECAR_KEY]).stat().st_size == 64
        assert [p.tolist() for p in csr_sidecar_parts(tmp_path, doc, "A")] == [
            [0, 1, 2, 4], [0, 1, 0, 1], [1.0, 2.0, 1.0, 1.0]]

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSR_SIDECAR))
    def test_input_error_names_field_and_file(self, tmp_path, capsys, case):
        alter, fault = MALFORMED_CSR_SIDECAR[case]
        doc = saved_doc(csr_3x2_problem(), tmp_path)
        doc["A"] = alter(tmp_path / doc["A"][CSR_SIDECAR_KEY], doc["A"])
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(InputError, match=fault) as info:
            load_problem(tmp_path / "p.json")
        assert doc["A"][CSR_SIDECAR_KEY] in str(info.value)
        expect_cli_error(tmp_path / "p.json", capsys)

    @pytest.mark.parametrize("nnz", [7, -1, 4.0, True, "4", None],
                             ids=["above_size", "negative", "float", "bool", "text", "missing"])
    def test_entry_count_checked_before_the_file(self, tmp_path, capsys, nnz):
        doc = saved_doc(csr_3x2_problem(), tmp_path)
        doc["A"] = {CSR_SIDECAR_KEY: doc["A"][CSR_SIDECAR_KEY]}
        if nnz is not None:
            doc["A"]["nnz"] = nnz
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(InputError, match="'A.nnz' must be an entry count from 0 to 6") as info:
            load_problem(tmp_path / "p.json")
        assert doc["A"][CSR_SIDECAR_KEY] in str(info.value)
        expect_cli_error(tmp_path / "p.json", capsys)

    def test_indptr_steps_that_wrap_in_int32(self, tmp_path, capsys):
        # The int32 differences of [0, 2**31 - 1, -2**31, -1, 4] wrap around
        # to 2**31 - 1, 1, 2**31 - 1, 5: all >= 0, though the pointers fall.
        with forced_backend("sparse"):
            prob = QpProblem(P=np.eye(2), q=np.zeros(2),
                             A=np.array([[1.0, 0], [0, 2], [1, 1], [0, 0]]),
                             l=-np.ones(4), u=np.ones(4))
        doc = saved_doc(prob, tmp_path)
        _, indices, data = csr_sidecar_parts(tmp_path, doc, "A")
        doc["A"] = csr_sidecar(tmp_path, "A", np.array([0, 2**31 - 1, -2**31, -1, 4]), indices,
                               data)
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(InputError, match="'A.indptr'.* never decrease"):
            load_problem(tmp_path / "p.json")
        expect_cli_error(tmp_path / "p.json", capsys)

    def test_dimensions_too_large_to_hold(self, tmp_path, monkeypatch):
        # A few hundred kilobytes of CSR sidecar can describe a matrix whose
        # dense field cannot be allocated; the allocation is faked to fail.
        # The sparse backend keeps P as CSR, so the problem loads, and the
        # dense field is refused when it is read.
        n = 100_000
        real_zeros = np.zeros

        def zeros(shape, *args, **kwargs):
            if np.prod(shape) > 10**9:
                raise MemoryError
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        doc = {"n": n, "m": 0, "q": [0.0] * n, "l": [], "u": [], "A": [],
               "P": csr_sidecar(tmp_path, "P", np.zeros(n + 1), [], [])}
        prob = problem_from_dict(json.loads(json.dumps(doc)), tmp_path)
        assert prob.kkt_backend == "sparse" and prob.n == n
        with pytest.raises(InputError, match="does not fit in memory"):
            prob.P

    def test_negative_dimension(self, tmp_path):
        with pytest.raises(InputError, match="must not be negative"):
            problem_from_dict({**saved_doc(csr_3x2_problem(), tmp_path), "m": -1}, tmp_path)


def old_csr_object(a: np.ndarray) -> dict:
    """The in-document CSR object files written before the sidecar forms
    hold: int32 parts framed like the binary form, float64 values in it."""
    a = sparse.csr_array(a)
    def i4(part):
        raw = zlib.compress(part.astype("<i4").tobytes())
        return {"i4le_zlib_b64": base64.b64encode(raw).decode("ascii")}

    return {"csr": {"indptr": i4(a.indptr), "indices": i4(a.indices),
                    "data": old_binary_object(a.data)}}


# The objects for P and A that files written before the sidecar forms hold:
# the binary array object (dense problems) and the in-document CSR object
# (sparse ones), and a malformed CSR object.
OLD_FORMS = {
    "binary": old_binary_object,
    "csr_object": old_csr_object,
    "csr_not_an_object": lambda a: {"csr": [1, 2]},
}


class TestOldFormsRejected:
    @pytest.mark.parametrize("key", ["P", "A"])
    @pytest.mark.parametrize("form", sorted(OLD_FORMS))
    def test_input_error_asks_to_regenerate(self, tmp_path, capsys, form, key):
        prob = csr_3x2_problem()
        doc = saved_doc(prob, tmp_path)
        doc[key] = OLD_FORMS[form](getattr(prob, key))
        (tmp_path / "p.json").write_text(json.dumps(doc))
        fault = f"field '{key}' is not a sidecar object .* must be regenerated"
        with pytest.raises(InputError, match=fault):
            load_problem(tmp_path / "p.json")
        expect_cli_error(tmp_path / "p.json", capsys, fault)


def _other_letter(f: Path, key: str) -> dict:
    other = "u" if key != "u" else "l"
    return {SIDECAR_KEY: _copy_as(f, f.name.replace(f".{key}.", f".{other}."))}


# Each case alters the sidecar file f that the vector field ``key`` names, or
# the document's entry for it, and returns the entry; with it the error names
# the field and the regular expression's fault.  q holds 2 float64s and l and
# u 3 each in tiny_problem.
VECTOR_SIDECAR_FAULTS = {
    "missing": (lambda f, key: {SIDECAR_KEY: _delete(f)}, "cannot read"),
    "one_byte_short": (lambda f, key: {SIDECAR_KEY: _rewrite(f, f.read_bytes()[:-1])},
                       r"holds (15|23) bytes, expected (16|24)"),
    "flipped_byte": (lambda f, key: {SIDECAR_KEY: _rewrite(f, bytes([f.read_bytes()[0] ^ 1])
                                                           + f.read_bytes()[1:])},
                     "fails its crc32 check"),
    "other_field_letter": (_other_letter, "not a bare"),
    "csr_object": (lambda f, key: {CSR_SIDECAR_KEY: f.name, "nnz": 1},
                   "the CSR form is for P and A only"),
    "parent_form": (lambda f, key: old_binary_object(np.frombuffer(f.read_bytes(), "<f8")),
                    r"is not a sidecar object \('f8le_file'\) .* must be regenerated"),
}


def binary(raw: bytes) -> dict:
    return {OLD_BINARY_KEY: base64.b64encode(raw).decode("ascii")}


# Malformed binary array objects (sized for tiny_problem's q), as files
# written before q, l and u had sidecars could hold them.  The reader refuses
# each undecoded, as it does a well-formed one (the parent_form case below).
MALFORMED_BINARY = {
    "bad_base64": {OLD_BINARY_KEY: "not base64!"},
    "not_zlib": binary(b"plain bytes, no zlib header"),
    "too_short": binary(zlib.compress(np.ones(1).tobytes())),
    "too_long": binary(zlib.compress(np.ones(3).tobytes())),
    "inflation_bomb": binary(zlib.compress(bytes(10_000_000), 9)),
    "truncated_stream": binary(zlib.compress(np.ones(2).tobytes())[:-3]),
    "trailing_bytes": binary(zlib.compress(np.ones(2).tobytes()) + b"extra"),
    "wrong_key": {"f4_raw": ""},
    "not_text": {OLD_BINARY_KEY: 12},
}


class TestMalformedBinary:
    @pytest.mark.parametrize("case", sorted(MALFORMED_BINARY))
    def test_input_error_names_field(self, tmp_path, capsys, case):
        path = tmp_path / "p.json"
        doc = saved_doc(tiny_problem(), tmp_path)
        fault = r"is not a sidecar object \('f8le_file'\) .* must be regenerated"
        for key in "qlu":
            path.write_text(json.dumps({**doc, key: MALFORMED_BINARY[case]}))
            with pytest.raises(InputError, match=f"field '{key}' {fault}"):
                load_problem(path)
            expect_cli_error(path, capsys, f"problem file {re.escape(str(path))}: .*field '{key}' {fault}")


class TestVectorSidecars:
    """q, l and u are float64 sidecars; every fault in one ends relaxqp solve
    in one error line naming the field and the problem file."""

    @pytest.mark.parametrize("key", ["q", "l", "u"])
    @pytest.mark.parametrize("case", sorted(VECTOR_SIDECAR_FAULTS))
    def test_cli_error_names_field_and_file(self, tmp_path, capsys, case, key):
        alter, fault = VECTOR_SIDECAR_FAULTS[case]
        path = tmp_path / "p.json"
        doc = saved_doc(tiny_problem(), tmp_path)
        doc[key] = alter(tmp_path / doc[key][SIDECAR_KEY], key)
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=f"field '{key}'.*{fault}"):
            load_problem(path)
        expect_cli_error(path, capsys, f"problem file {re.escape(str(path))}: .*field '{key}'.*{fault}")

    def test_parent_form_document(self, tmp_path, capsys):
        # A whole document as the parent's save_problem wrote it: P and A as
        # dense sidecars, q, l and u as binary objects.  The first of them is
        # the one the error names.
        prob = tiny_problem()
        doc = saved_doc(prob, tmp_path)
        for key in "qlu":
            (tmp_path / doc[key][SIDECAR_KEY]).unlink()
            doc[key] = old_binary_object(getattr(prob, key))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        expect_cli_error(path, capsys, f"problem file {re.escape(str(path))}: .*field 'q' is not a "
                         r"sidecar object \('f8le_file'\) .* must be regenerated")

    def test_sidecars_carry_bounds_and_special_values_bit_exactly(self, tmp_path):
        # The +-1e30 sentinel applies to hand-written lists only: a sidecar
        # keeps +-1e30 as they are, beside +-inf, -0.0 and subnormals.
        l = np.array([-INF, -1e30, -0.0, -5e-324, np.nextafter(-1e30, 0)])
        u = np.array([INF, 1e30, 0.0, 5e-324, 2.2250738585072014e-308])
        prob = QpProblem(P=np.eye(2), q=np.array([-0.0, 5e-324]), A=np.ones((5, 2)), l=l, u=u)
        loaded = problem_from_dict(saved_doc(prob, tmp_path), tmp_path)
        assert same_bits(loaded, prob)
        assert loaded.l[1] == -1e30 and loaded.u[1] == 1e30
