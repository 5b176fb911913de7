import numpy as np
import pytest
from numpy.testing import assert_allclose

from relaxqp.bench import FamilySpec, generate
from relaxqp.engine import RHO_MAX, RHO_MIN, rho_pattern
from relaxqp.errors import InputError, SingularKktError
from relaxqp.linalg import assemble_kkt, ldlt_factor, ldlt_solve


def random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    B = rng.standard_normal((d, d))
    return B @ B.T + 0.1 * np.eye(d)


class TestAssembleKkt:
    def test_identity_case(self):
        H = assemble_kkt(np.zeros((1, 1)), np.array([[1.0]]), 1.0, np.array([1.0]))
        assert_allclose(H, [[2.0]])

    def test_direct_formula(self):
        P = np.array([[2.0]])
        A = np.array([[1.0], [1.0]])
        H = assemble_kkt(P, A, 1e-6, np.array([0.1, 0.1]))
        assert_allclose(H, [[2.0 + 1e-6 + 0.2]], rtol=1e-15)

    def test_matches_scripted_assembly(self):
        rng = np.random.default_rng(0)
        n, m = 3, 2
        B = rng.standard_normal((n, n))
        P = B @ B.T
        A = rng.standard_normal((m, n))
        sigma = 1e-6
        r = rng.uniform(0.5, 2.0, size=m)
        H = assemble_kkt(P, A, sigma, r)
        # brute-force assembly, entry by entry
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                expected[i, j] = P[i, j] + (sigma if i == j else 0.0)
                for k in range(m):
                    expected[i, j] += r[k] * A[k, i] * A[k, j]
        assert_allclose(H, expected, rtol=1e-14, atol=1e-14)
        assert np.array_equal(H, H.T)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            assemble_kkt(np.zeros((2, 2)), np.zeros((1, 3)), 1.0, np.array([1.0]))
        with pytest.raises(InputError):
            assemble_kkt(np.zeros((2, 2)), np.zeros((1, 2)), 1.0, np.array([1.0, 1.0]))


class TestLdltFactor:
    def test_identity(self):
        F = ldlt_factor(np.eye(4))
        assert_allclose(F.lower, np.eye(4))
        assert F.dim == 4

    def test_hand_2x2(self):
        F = ldlt_factor(np.array([[4.0, 1.0], [1.0, 3.0]]))
        assert_allclose(F.lower, [[2.0, 0.0], [0.5, np.sqrt(2.75)]], rtol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        M = random_spd(rng, 12)
        F = ldlt_factor(M)
        assert np.array_equal(F.lower, np.tril(F.lower))
        err = np.linalg.norm(F.lower @ F.lower.T - M) / np.linalg.norm(M)
        assert err <= 1e-14

    def test_blocked_path_matches_reconstruction(self):
        # a dimension well above LAPACK's panel width exercises its blocked path
        rng = np.random.default_rng(11)
        M = random_spd(rng, 300)
        F = ldlt_factor(M)
        err = np.linalg.norm(F.lower @ F.lower.T - M) / np.linalg.norm(M)
        assert err <= 1e-13

    def test_singular_matrix_raises_with_index(self):
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        M[1, 1] = 1.0
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(M)
        assert exc.value.index == 2
        assert exc.value.pivot == 0.0
        assert "pivot" in str(exc.value)

    def test_indefinite_matrix_raises_with_index(self):
        # Schur complement of the leading entry is 1 - 2*2 = -3 at column 1.
        M = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(M)
        assert exc.value.index == 1
        assert exc.value.pivot == pytest.approx(-3.0)
        assert "matrix index 1" in str(exc.value)

    def test_dimension_errors(self):
        with pytest.raises(InputError):
            ldlt_factor(np.eye(3)[:2])
        with pytest.raises(InputError):
            ldlt_factor(np.ones(3))
        with pytest.raises(InputError):
            ldlt_factor(np.array([[1.0, 0.0], [0.0, np.inf]]))

    def test_determinism(self):
        rng = np.random.default_rng(5)
        M = random_spd(rng, 21)
        F1 = ldlt_factor(M)
        F2 = ldlt_factor(M)
        assert np.array_equal(F1.lower, F2.lower)
        b = rng.standard_normal(21)
        assert np.array_equal(ldlt_solve(F1, b), ldlt_solve(F2, b))


class TestLdltSolve:
    def test_identity_returns_rhs(self):
        F = ldlt_factor(np.eye(5))
        b = np.arange(5.0)
        assert_allclose(ldlt_solve(F, b), b)

    def test_hand_2x2(self):
        F = ldlt_factor(np.array([[4.0, 1.0], [1.0, 3.0]]))
        v = ldlt_solve(F, np.array([1.0, 2.0]))
        assert_allclose(v, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-14)

    def test_residual_against_dense_solve(self):
        rng = np.random.default_rng(3)
        M = random_spd(rng, 20)
        b = rng.standard_normal(20)
        v = ldlt_solve(ldlt_factor(M), b)
        assert_allclose(v, np.linalg.solve(M, b), rtol=1e-9, atol=1e-12)
        res = np.max(np.abs(M @ v - b))
        assert res <= 1e-9 * (1.0 + np.max(np.abs(b)))

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_solve_roundtrip(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(2, 60))
        M = random_spd(rng, d)
        b = rng.standard_normal(d)
        v = ldlt_solve(ldlt_factor(M), b)
        assert np.max(np.abs(M @ v - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_dimension_mismatch(self):
        F = ldlt_factor(np.eye(3))
        with pytest.raises(InputError):
            ldlt_solve(F, np.ones(4))


# One desk-scale instance per family; mpc exists only at n = 1600, where the
# dense (n + m)-dimensional reference solve alone takes seconds.
DESK_SIZES = {"random_qp": 50, "portfolio": 10, "lasso": 10, "svm": 10, "control": 10}


@pytest.mark.parametrize("family", sorted(DESK_SIZES))
def test_reduced_solve_matches_full_quasi_definite_system(family):
    """x_tilde from the reduced Cholesky solve equals the x-block of a dense
    solve of [[P + sigma*I, A'], [A, -diag(1/r)]] [xt; nu] = [sigma*x - q;
    z - y/r] across the whole penalty range, equality rows at 1e3*rho."""
    prob = generate(FamilySpec(family, DESK_SIZES[family], seed=1))
    n, m = prob.n, prob.m
    sigma = 1e-6
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    z = np.clip(rng.standard_normal(m), prob.l, prob.u)
    y = rng.standard_normal(m)
    for rho in (RHO_MIN, 1e-2, 10.0, 1e3, RHO_MAX):
        r = rho_pattern(prob.kinds, rho)
        F = ldlt_factor(assemble_kkt(prob.P, prob.A, sigma, r))
        x_tilde = ldlt_solve(F, sigma * x - prob.q + prob.A.T @ (r * z - y))

        K = np.zeros((n + m, n + m))
        K[:n, :n] = prob.P + sigma * np.eye(n)
        K[:n, n:] = prob.A.T
        K[n:, :n] = prob.A
        K[n:, n:] = np.diag(-1.0 / r)
        full = np.linalg.solve(K, np.concatenate((sigma * x - prob.q, z - y / r)))
        err = np.linalg.norm(x_tilde - full[:n]) / np.linalg.norm(full[:n])
        assert err <= 1e-8, (family, rho, err)
