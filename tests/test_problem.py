import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relaxqp.bench import FamilySpec, generate, reference_solution
from relaxqp.errors import InfeasibleBoundsError, InputError
from relaxqp.problem import (
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
        prob = tiny_problem()
        path = tmp_path / "prob.json"
        save_problem(prob, path)
        doc = json.loads(path.read_text())
        assert doc["l"][1] == -1e30
        assert np.isneginf(load_problem(path).l[1])

    def test_malformed_document(self):
        with pytest.raises(InputError):
            problem_from_dict({"n": 1})

    def test_dict_roundtrip(self):
        prob = tiny_problem()
        again = problem_from_dict(problem_to_dict(prob))
        assert np.array_equal(again.u, prob.u)
