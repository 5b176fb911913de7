import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

import relaxqp
from relaxqp import problem as problem_mod
from relaxqp.bench import FamilySpec, generate
from relaxqp.engine import RHO_MAX, RHO_MIN, SolverConfig, rho_pattern, solve
from relaxqp.errors import InputError, SingularKktError
from relaxqp.linalg import KktTerms, assemble_kkt, ldlt_factor, ldlt_solve, pick_backend
from relaxqp.problem import QpProblem


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

    def test_reconstruction_above_the_threaded_size(self):
        # OpenBLAS runs potrf on its thread pool from n = 128 up.
        rng = np.random.default_rng(150)
        M = random_spd(rng, 150)
        F = ldlt_factor(M)
        assert np.array_equal(F.lower, np.tril(F.lower))
        err = np.linalg.norm(F.lower @ F.lower.T - M) / np.linalg.norm(M)
        assert err <= 1e-13

    def test_negative_schur_complement_at_a_blocked_column(self):
        # M = L diag(d) L' with unit lower L: Cholesky runs through the first
        # 200 columns, whose pivots are d, and meets d[200] = -2.5, past the
        # first blocks of LAPACK's blocked factorization.
        n, k = 256, 200
        rng = np.random.default_rng(k)
        L = np.tril(0.1 * rng.standard_normal((n, n)), -1) + np.eye(n)
        d = rng.uniform(1.0, 2.0, n)
        d[k] = -2.5
        M = (L * d) @ L.T
        M = (M + M.T) / 2
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M)
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(M)
        assert exc.value.index == exc.value.step == k
        assert exc.value.pivot == pytest.approx(-2.5, rel=1e-12)
        assert f"matrix index {k}" in str(exc.value)

    def test_factor_when_only_numpy_rejects_the_matrix(self, monkeypatch):
        # The two LAPACK builds round differently at the border of
        # definiteness (on rank-deficient B B', numpy's alone failed on ~2%
        # in a trial); where numpy's fails and dpotrf succeeds, dpotrf's
        # factor is returned in the same layout.
        rng = np.random.default_rng(8)
        M = random_spd(rng, 40)

        def reject(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", reject)
        F = ldlt_factor(M)
        assert F.lower.flags.c_contiguous
        assert np.array_equal(F.lower, np.tril(F.lower))
        assert np.linalg.norm(F.lower @ F.lower.T - M) / np.linalg.norm(M) <= 1e-14
        b = rng.standard_normal(40)
        assert_allclose(ldlt_solve(F, b), np.linalg.solve(M, b), rtol=1e-9)

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

    def test_solve_does_not_copy_the_factor(self):
        # A factor LAPACK cannot read in place would be copied (n^2 * 8
        # bytes) on every iteration's solve.
        n = 400
        rng = np.random.default_rng(400)
        F = ldlt_factor(random_spd(rng, n))
        b = rng.standard_normal(n)
        ldlt_solve(F, b)
        tracemalloc.start()
        try:
            v = ldlt_solve(F, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, peak
        assert np.max(np.abs(F.lower @ (F.lower.T @ v) - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_dimension_mismatch(self):
        F = ldlt_factor(np.eye(3))
        with pytest.raises(InputError):
            ldlt_solve(F, np.ones(4))


# One desk-scale instance per family; mpc exists only at n = 1600, where the
# dense (n + m)-dimensional reference solve alone takes seconds.
DESK_SIZES = {"random_qp": 50, "portfolio": 10, "lasso": 10, "svm": 10, "control": 10}


@pytest.mark.parametrize("family", sorted(DESK_SIZES))
def test_reduced_solve_matches_full_quasi_definite_system(family):
    """x_tilde from the reduced solve, on both backends, equals the x-block
    of a dense solve of [[P + sigma*I, A'], [A, -diag(1/r)]] [xt; nu] =
    [sigma*x - q; z - y/r] across the whole penalty range, equality rows at
    1e3*rho."""
    prob = generate(FamilySpec(family, DESK_SIZES[family], seed=1))
    n, m = prob.n, prob.m
    sigma = 1e-6
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    z = np.clip(rng.standard_normal(m), prob.l, prob.u)
    y = rng.standard_normal(m)
    backends = {"dense": (prob.P, prob.A), "sparse": (sparse.csr_array(prob.P), sparse.csr_array(prob.A))}
    for rho in (RHO_MIN, 1e-2, 10.0, 1e3, RHO_MAX):
        r = rho_pattern(prob.equality, rho)
        K = np.zeros((n + m, n + m))
        K[:n, :n] = prob.P + sigma * np.eye(n)
        K[:n, n:] = prob.A.T
        K[n:, :n] = prob.A
        K[n:, n:] = np.diag(-1.0 / r)
        full = np.linalg.solve(K, np.concatenate((sigma * x - prob.q, z - y / r)))
        for backend, (P, A) in backends.items():
            F = ldlt_factor(assemble_kkt(P, A, sigma, r))
            assert (F.lu is not None) == (backend == "sparse")
            x_tilde = ldlt_solve(F, sigma * x - prob.q + A.T @ (r * z - y))
            err = np.linalg.norm(x_tilde - full[:n]) / np.linalg.norm(full[:n])
            assert err <= 1e-8, (family, backend, rho, err)


@pytest.mark.parametrize("family", sorted(DESK_SIZES))
def test_sparse_and_dense_backends_agree(family):
    """Both backends assemble the same H and return the same x_tilde to 1e-8
    relative, over the whole penalty range with equality rows."""
    prob = generate(FamilySpec(family, DESK_SIZES[family], seed=2))
    Ps, As = sparse.csr_array(prob.P), sparse.csr_array(prob.A)
    b = np.random.default_rng(3).standard_normal(prob.n)
    for rho in (RHO_MIN, 1e-4, 1e-2, 1.0, 1e2, 1e4, RHO_MAX):
        r = rho_pattern(prob.equality, rho)
        H_dense = assemble_kkt(prob.P, prob.A, 1e-6, r)
        H_sparse = assemble_kkt(Ps, As, 1e-6, r)
        assert H_sparse.format == "csc"
        assert_allclose(H_sparse.toarray(), H_dense, rtol=1e-14, atol=1e-14 * np.abs(H_dense).max())
        v_dense = ldlt_solve(ldlt_factor(H_dense), b)
        v_sparse = ldlt_solve(ldlt_factor(H_sparse), b)
        err = np.linalg.norm(v_sparse - v_dense) / np.linalg.norm(v_dense)
        assert err <= 1e-8, (family, rho, err)


class TestSparseFactor:
    def test_solve_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        M = random_spd(rng, 30)
        M[np.abs(M) < 1.0] = 0.0  # a sparse pattern; the diagonal stays dominant
        M += 30.0 * np.eye(30)
        b = rng.standard_normal(30)
        F = ldlt_factor(sparse.csc_array(M))
        assert F.lu is not None and F.lower is None and F.dim == 30
        assert_allclose(ldlt_solve(F, b), np.linalg.solve(M, b), rtol=1e-12, atol=1e-14)

    def test_indefinite_matrix_raises_with_index(self):
        # Same matrix as the dense test: eliminating index 0 first leaves the
        # pivot 1 - 2*2 = -3 at index 1, whatever the ordering.
        M = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(sparse.csc_array(M))
        assert exc.value.pivot == pytest.approx(-3.0)
        assert exc.value.index == 1
        assert "matrix index 1" in str(exc.value)

    def test_negative_leading_pivot_names_its_index(self):
        M = np.diag([4.0, 3.0, -2.0, 1.0])
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(sparse.csr_array(M))
        assert exc.value.index == 2
        assert exc.value.pivot == -2.0

    def test_zero_diagonal_pivot_raises(self):
        # SuperLU can only factor this by an off-diagonal pivot.
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(sparse.csc_array(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert exc.value.pivot == 0.0

    def test_singular_matrix_raises_with_index(self):
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        M[1, 1] = 1.0
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(sparse.csc_array(M))
        assert exc.value.index == 2
        assert exc.value.pivot == 0.0

    def test_non_finite_entries_rejected(self):
        # assemble_kkt does not scan P and A; each of their entries reaches
        # the assembled matrix, which ldlt_factor checks
        for bad in (np.nan, np.inf, -np.inf):
            for where in ("P", "A"):
                P, A = np.eye(2), np.array([[1.0, 2.0], [0.0, 3.0]])
                (P if where == "P" else A)[0, 1] = bad
                for to in (np.asarray, sparse.csr_array):
                    H = assemble_kkt(to(P), to(A), 1.0, np.ones(2))
                    with pytest.raises(InputError, match="non-finite"):
                        ldlt_factor(H)


class TestPickBackend:
    @pytest.mark.parametrize("family,size", [("mpc", 100), ("lasso", 50), ("lasso", 20)])
    def test_sparse(self, family, size):
        assert generate(FamilySpec(family, size, seed=1)).kkt_backend == "sparse"

    @pytest.mark.parametrize(
        "family,size", [("control", 200), ("random_qp", 500), ("svm", 149), ("portfolio", 149)]
    )
    def test_dense_families(self, family, size):
        assert generate(FamilySpec(family, size, seed=1)).kkt_backend == "dense"

    @pytest.mark.parametrize("family", sorted(DESK_SIZES))
    def test_small_sizes_stay_dense(self, family):
        # below the size floor the per-call overhead of scipy.sparse dominates
        for size in (10,) if family == "lasso" else (10, 20, 30):
            assert generate(FamilySpec(family, size, seed=1)).kkt_backend == "dense"

    def test_thresholds(self):
        assert pick_backend(100, 500, 100) == "sparse"  # 60000 entries, 0.2% nonzero
        assert pick_backend(100, 499, 100) == "dense"  # below the size floor
        assert pick_backend(100, 500, 3600) == "sparse"
        assert pick_backend(100, 500, 3601) == "dense"  # above 6% nonzero


def _dense(H):
    return H.toarray() if sparse.issparse(H) else H


def assert_refill_matches_product(P, A, equality, levels, sigma=1e-6):
    """The refilled H of the two-level penalty ``levels`` (equality rows,
    the rest) equals the product over all rows to 1e-13 relative, in the
    backend's form: an ndarray, or a canonical CSC matrix."""
    terms = KktTerms(P, A, equality)
    r = np.where(equality, *levels)
    H = assemble_kkt(P, A, sigma, r, terms)
    assert "_parts" in terms.__dict__  # the refill ran
    exact = _dense(assemble_kkt(P, A, sigma, r))
    if sparse.issparse(A):
        assert H.format == "csc" and H.has_canonical_format
    else:
        assert isinstance(H, np.ndarray) and H.flags.c_contiguous
    err = np.abs(_dense(H) - exact).max() / np.abs(exact).max()
    assert err <= 1e-13, (levels, err)


BACKENDS = {"dense": np.asarray, "sparse": sparse.csr_array}


class TestKktTerms:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("family,size", sorted(DESK_SIZES.items()))
    def test_refill_matches_the_product_on_every_family(self, family, size, backend):
        prob = generate(FamilySpec(family, size, seed=1))
        to = BACKENDS[backend]
        equality = prob.equality
        for rho in (RHO_MIN, 1e-2, 1.0, 1e2, RHO_MAX):
            r = rho_pattern(equality, rho)
            levels = (r[equality][:1].sum(), r[~equality][:1].sum())
            assert_refill_matches_product(to(prob.P), to(prob.A), equality, levels)

    # Rows of a 4-variable A and whether each is an equality row.
    EDGE_CASES = {
        "no_rows": (np.zeros((0, 4)), []),
        "all_singleton": (np.array([[2.0, 0, 0, 0], [0, -3.0, 0, 0], [0.5, 0, 0, 0],
                                    [0, 0, 0, 1.0]]), [False, True, True, False]),
        "zero_row": (np.array([[1.0, 2.0, 0, 0], [0, 0, 0, 0], [0, 1.0, 1.0, 1.0]]),
                     [False, False, True]),
        "loose_rows": (np.array([[1.0, 2.0, 0, 0], [0, 3.0, 0, -1.0], [0, 0, 4.0, 0]]),
                       [False, False, False]),
        "equality_only": (np.array([[1.0, 2.0, 0, 0], [0, 3.0, 0, -1.0], [0, 0, 4.0, 0]]),
                          [True, True, True]),
        "singletons_of_both_kinds": (
            np.array([[1.0, 2.0, 3.0, 0], [0, 0, 5.0, 0], [0, 0, -2.0, 0], [0, 1.0, 0, 1.0],
                      [0, 0, 0, 7.0]]), [True, True, False, False, False]),
        # A gram whose pattern holds those of P, I and the other gram.
        "one_gram_holds_all": (
            np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 2.0, 0.5], [0, 3.0, 0, 1.0]]),
            [True, True, False]),
    }

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_refill_matches_the_product_on_edge_cases(self, case, backend):
        A, equality = self.EDGE_CASES[case]
        to = BACKENDS[backend]
        P = np.diag([1.0, 0.0, 2.0, 0.0])
        P[0, 2] = P[2, 0] = 0.5
        for levels in ((0.1, 100.0), (7.0, 7.0), (RHO_MAX, RHO_MIN)):
            assert_refill_matches_product(to(P), to(A), np.array(equality, dtype=bool), levels)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_other_penalty_vectors_take_the_product_bit_for_bit(self, backend):
        prob = generate(FamilySpec("svm", 10, seed=1))
        P, A = BACKENDS[backend](prob.P), BACKENDS[backend](prob.A)
        terms = KktTerms(P, A, prob.equality)
        r = rho_pattern(prob.equality, 0.1) * np.random.default_rng(2).uniform(0.9, 1.1, prob.m)
        H, exact = assemble_kkt(P, A, 1e-6, r, terms), assemble_kkt(P, A, 1e-6, r)
        if sparse.issparse(H):
            assert all(np.array_equal(getattr(H, f), getattr(exact, f))
                       for f in ("data", "indices", "indptr"))
        else:
            assert np.array_equal(H, exact)
        assert "_parts" not in terms.__dict__  # the terms were never built

    def test_levels(self):
        terms = KktTerms(np.eye(2), np.eye(3, 2), np.array([False, True, False]))
        assert terms.levels(np.array([0.1, 100.0, 0.1])) == (100.0, 0.1)
        assert terms.levels(np.array([0.1, 100.0, 0.2])) is None
        assert KktTerms(np.eye(2), np.zeros((0, 2)), np.zeros(0, bool)).levels(np.zeros(0)) == (0, 0)

    def test_terms_of_other_matrices_rejected(self):
        terms = KktTerms(np.eye(2), np.eye(2), np.zeros(2, bool))
        with pytest.raises(InputError, match="other matrices"):
            assemble_kkt(np.eye(2), np.eye(2), 1.0, np.ones(2), terms)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_refills_share_no_data(self, backend):
        prob = generate(FamilySpec("lasso", 10, seed=1))
        P, A = BACKENDS[backend](prob.P), BACKENDS[backend](prob.A)
        terms = KktTerms(P, A, prob.equality)
        mats = [assemble_kkt(P, A, 1e-6, rho_pattern(prob.equality, rho), terms) for rho in (0.1, 1.0, 0.1)]
        data = [_dense(H) if backend == "dense" else H.data for H in mats]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(data) for b in data[i + 1:])
        assert np.array_equal(_dense(mats[0]), _dense(mats[2]))


def row_scaled_qp(seed: int):
    """A strictly convex QP (P = MM'/n + 0.1 I) whose constraint rows have
    two nonzeros each, every row and its two bounds multiplied by a seeded
    factor in [1e4, 1e9]: the same QP as with unscaled rows, and its reduced
    matrix is positive definite in exact arithmetic."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 15)), int(rng.integers(1, 20))
    M = rng.standard_normal((n, n))
    P = M @ M.T / n + 0.1 * np.eye(n)
    q = rng.standard_normal(n)
    A = np.zeros((m, n))
    for i in range(m):
        cols = rng.choice(n, size=2, replace=False)
        A[i, cols] = rng.standard_normal(2)
    l, u = -rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
    f = 10.0 ** rng.uniform(4, 9, m)
    return P, q, f[:, None] * A, f * l, f * u


class TestIllConditionedKkt:
    """A factor that fails on a matrix whose diagonal spans more than 1/eps
    is named ill-conditioned, with the ratio, on both backends."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_row_scaled_qp_is_named_ill_conditioned(self, monkeypatch, backend):
        monkeypatch.setattr(problem_mod, "pick_backend", lambda n, m, nnz: backend)
        cfg = SolverConfig()
        P, q, A, l, u = row_scaled_qp(75)
        H = assemble_kkt(P, A, cfg.sigma, rho_pattern(np.zeros(A.shape[0], dtype=bool), cfg.rho0))
        ratio = H.diagonal().max() / H.diagonal().min()
        assert ratio > 1.0 / np.finfo(np.float64).eps
        with pytest.raises(SingularKktError) as exc:
            solve(QpProblem(P, q, A, l, u), cfg)
        # The solve's H is refilled from the KKT terms: equal to the product
        # up to roundoff.
        assert exc.value.diag_ratio == pytest.approx(ratio, rel=1e-12)
        assert str(exc.value).startswith(
            f"ill-conditioned KKT system (diagonal entries span a ratio of {ratio:.3e}): pivot"
        )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_narrower_diagonal_stays_singular(self, monkeypatch, backend):
        # Its factor fails too, but its diagonal spans only ~6.5e8.
        monkeypatch.setattr(problem_mod, "pick_backend", lambda n, m, nnz: backend)
        with pytest.raises(SingularKktError) as exc:
            solve(QpProblem(*row_scaled_qp(250)), SolverConfig())
        assert exc.value.diag_ratio is None
        assert str(exc.value).startswith("singular KKT system: pivot")

    @pytest.mark.parametrize("to_backend", [np.asarray, sparse.csc_array], ids=["dense", "sparse"])
    def test_indefinite_matrix_with_a_wide_diagonal_is_not_ill_conditioned(self, to_backend):
        # A negative diagonal entry means indefinite, however wide the span.
        M = np.diag([1e20, 1.0, -1.0])
        with pytest.raises(SingularKktError) as exc:
            ldlt_factor(to_backend(M))
        assert exc.value.diag_ratio is None and exc.value.index == 2


# Runs in a fresh interpreter and prints a JSON object: the sparse modules
# that scipy.linalg.lapack and scipy.special (the package's eager scipy
# imports) load on their own, those loaded after each step, and a digest of
# the x and y bytes of a lasso_n50 solve (sparse backend).  With the
# argument "sparse_first" it imports scipy.sparse before anything else.
SPARSE_STACK_SCRIPT = r"""
import hashlib, json, sys, tempfile

if sys.argv[1:] == ["sparse_first"]:
    import scipy.sparse
import scipy.linalg.lapack, scipy.special

def loaded():
    return sorted(m for m in ("scipy.sparse", "scipy.sparse.linalg") if m in sys.modules)

out = {"scipy": loaded()}
from relaxqp import (FamilySpec, SolverConfig, generate, init_checkpoint, load_problem,
                     policy_from_checkpoint, reference_solution, run_drift_experiment,
                     save_problem, solve, DriftSchedule)
out["import"] = loaded()
prob = generate(FamilySpec("portfolio", 20, 1))
cfg = SolverConfig()
report = solve(prob, cfg, policy=policy_from_checkpoint(init_checkpoint("vector")))
assert prob.kkt_backend == "dense" and report.policy_queries > 0
ref = reference_solution(prob)
run_drift_experiment(prob, DriftSchedule.inverse_square(2000), 2000, cfg, ref.objective)
with tempfile.TemporaryDirectory() as d:
    save_problem(prob, d + "/p.json")
    load_problem(d + "/p.json")
out["dense"] = loaded()
lasso = generate(FamilySpec("lasso", 50, 1))
report = solve(lasso, cfg)
assert lasso.kkt_backend == "sparse"
out["sparse"] = loaded()
out["digest"] = hashlib.sha256(report.x.tobytes() + report.y.tobytes()).hexdigest()
print(json.dumps(out))
"""


def run_sparse_stack_script(*args) -> dict:
    src = os.path.dirname(os.path.dirname(relaxqp.__file__))
    done = subprocess.run([sys.executable, "-c", SPARSE_STACK_SCRIPT, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_dense_problems_never_load_the_sparse_stack():
    # Past what scipy's own modules load (nothing, with scipy 1.17), no
    # sparse module is imported until a problem takes the sparse backend,
    # and a sparse solve is the same bit for bit whenever scipy.sparse was
    # imported.
    lazy = run_sparse_stack_script()
    assert lazy["import"] == lazy["dense"] == lazy["scipy"]
    assert lazy["sparse"] == ["scipy.sparse", "scipy.sparse.linalg"]
    assert lazy["digest"] == run_sparse_stack_script("sparse_first")["digest"]
