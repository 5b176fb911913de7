"""Reduced KKT system of the ADMM x-step and its factorization, dense or sparse.

The x-step solves the quasi-definite KKT system

    [[P + sigma*I, A'], [A, -diag(1/r)]] [xt; nu] = [sigma*x - q; z - y/r].

Its second row gives nu = r*(A xt - z) + y; eliminating nu leaves OSQP's
reduced form (Stellato et al., Math. Prog. Comp. 2020)

    (P + sigma*I + A' diag(r) A) xt = sigma*x - q + A'(r*z - y),   zt = A xt,

whose matrix H is symmetric positive definite for sigma > 0 and r > 0.

Two backends factor H; each problem uses one, picked once by
:func:`pick_backend` from its size and nonzero count
(:attr:`relaxqp.problem.QpProblem.kkt_backend`):

* dense: H is an ndarray, factored by ``np.linalg.cholesky`` and solved by
  scipy's dpotrs;
* sparse: P and A are CSR matrices, H is assembled as a CSC matrix and
  factored by SuperLU (``scipy.sparse.linalg.splu``) with a fill-reducing
  column ordering applied symmetrically and no pivoting, i.e. an LDL'-like
  factor of the permuted H, whose pivots are checked to be positive.

:func:`assemble_kkt`, :func:`ldlt_factor` and :func:`ldlt_solve` dispatch on
the type of their input.  These names and ``LdltFactor`` predate the reduced
form; they are kept for API stability and for tools that wrap these bindings.

Which BLAS runs what.  The numpy and scipy wheels each bundle their own
OpenBLAS, and each keeps its own thread pool, whose workers spin for a while
after a call.  Every dense product of a solve (H's ``B.T @ B``, a syrk, and
the matrix-vector products) runs on numpy's, and so does the Cholesky factor.
The per-iteration dpotrs, one right-hand side, is scipy's but runs on the
calling thread alone.  scipy's dpotrf runs only after numpy has rejected a
matrix, to name the failing column.  When the factor ran on scipy's pool
right after the syrk on numpy's, the two pools' threads shared the CPUs and
OpenBLAS's threaded potrf (n >= 128) stalled at its barriers: on a 2-vCPU
VM an n = 150 syrk followed by dpotrf took 11-16 ms against 0.9 ms for the
two apart (n = 1000: 110-133 ms against 71 ms), and paper_grid's n = 1000
factor took 95-132 ms against ~13 ms alone.  So no scipy LAPACK/BLAS
routine that OpenBLAS threads (``cho_factor``, dpotrf, dsyrk, dgemm, ...)
belongs in the solve path; use numpy's equivalent.

Known limit: when null(P) and null(A) share a nonzero vector (the QP is then
dual infeasible), the reduced matrix at the largest penalties has condition
number of order r*||A||^2 / sigma.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import SuperLU, splu

from .errors import InputError, SingularKktError

SPARSE_MIN_SIZE = 60_000
SPARSE_MAX_DENSITY = 0.06


def pick_backend(n: int, m: int, nnz: int) -> str:
    """``"sparse"`` or ``"dense"`` for a problem with n variables, m
    constraints and nnz nonzeros in P and A together.

    The sparse backend is picked when the data has at least SPARSE_MIN_SIZE
    entries (m*n + n*n) and at most SPARSE_MAX_DENSITY of them are nonzero.
    Both constants come from a scan of solve times, sparse over dense, on
    29 instances of all six families at the default config (iteration
    counts, penalty updates and statuses were equal on every instance; the
    table is in the README):

    * from 65k entries up at 2.3-4.0% nonzero (mpc_n100, lasso n = 180 to
      1788) the sparse backend won every time, at 0.18-0.59 of the dense
      time;
    * up to 54k entries it lost by 1.1-1.9x on portfolio (n = 11 to 164,
      2.9-15% nonzero) and won only on lasso_n10 (29k entries, 0.8): a
      scipy.sparse product costs ~5 us of call overhead where the dense
      product of a small matrix takes ~2 us;
    * at 7.6-9.3% nonzero (svm) the ratio ranged over 0.4-1.8 with no
      trend in size;
    * at 52-100% nonzero (control, random_qp) it lost by 2-9x.
    """
    size = m * n + n * n
    return "sparse" if size >= SPARSE_MIN_SIZE and nnz <= SPARSE_MAX_DENSITY * size else "dense"


@dataclass(frozen=True)
class LdltFactor:
    """Factor of a symmetric positive definite matrix of size ``dim``.

    Dense backend: ``lower`` is the C-ordered Cholesky factor, ``matrix ==
    lower @ lower.T``, and ``lu`` is None.  Sparse backend: ``lu`` is the
    SuperLU factor and ``lower`` is None.
    """

    dim: int
    lower: np.ndarray | None = None
    lu: SuperLU | None = None


def assemble_kkt(P, A, sigma: float, r_values: np.ndarray):
    """Build the reduced KKT matrix P + sigma*I + A' diag(r) A: an ndarray
    for dense P and A, a CSC matrix for sparse ones.

    Parameters
    ----------
    P : (n, n) symmetric positive semidefinite cost matrix.
    A : (m, n) constraint matrix.
    sigma : positive regularization added to the diagonal.
    r_values : (m,) positive per-constraint penalty entries.

    P and A are not scanned for non-finite entries: every entry of P reaches
    H through ``+ P`` and every entry of A its diagonal, which
    :func:`ldlt_factor` checks.
    """
    is_sparse = sparse.issparse(A)
    if not is_sparse:
        P, A = np.asarray(P, dtype=np.float64), np.asarray(A, dtype=np.float64)
        if P.ndim != 2 or A.ndim != 2:
            raise InputError(f"P and A must be 2-d matrices, got ndim={P.ndim} and {A.ndim}")
    r = np.asarray(r_values, dtype=np.float64)
    n = P.shape[0]
    m = A.shape[0]
    if P.shape[1] != n:
        raise InputError(f"P must be square, got {P.shape}")
    if A.shape[1] != n:
        raise InputError(f"A has {A.shape[1]} columns, expected {n}")
    if r.shape != (m,):
        raise InputError(f"penalty vector has shape {r.shape}, expected ({m},)")
    if sigma <= 0:
        raise InputError("sigma must be positive")
    if (r <= 0).any():
        raise InputError("penalty entries must be positive")

    if is_sparse:
        B = sparse.diags_array(np.sqrt(r)) @ A
        H = B.T @ B + P + sparse.diags_array(np.full(n, float(sigma)))
        return H.tocsc()
    B = np.sqrt(r)[:, None] * A
    H = B.T @ B  # numpy runs this transpose product as one syrk call
    H += P
    H.ravel()[:: n + 1] += sigma  # H is C-contiguous: ravel() is a view
    return H


def ldlt_factor(M) -> LdltFactor:
    """Factor a symmetric positive definite matrix: Cholesky (lower triangle
    read) for an ndarray, SuperLU for a sparse matrix.

    Raises :class:`SingularKktError` at the first elimination step whose
    pivot is not positive, i.e. when M is singular or indefinite; ``index``
    is the row and column of M that step eliminates.
    """
    if sparse.issparse(M):
        return _sparse_factor(M)
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise InputError(f"M must be a 2-d matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise InputError("M contains non-finite entries")
    d = M.shape[0]
    if M.shape[1] != d:
        raise InputError(f"matrix must be square, got {M.shape}")
    try:
        return LdltFactor(dim=d, lower=np.linalg.cholesky(M))
    except np.linalg.LinAlgError:
        # numpy's error does not say where the factorization stopped; scipy's
        # dpotrf names the column.  The two builds round differently, so at
        # the border of definiteness dpotrf may succeed where numpy failed;
        # its factor is then as valid as numpy's would have been.
        L, info = dpotrf(M, lower=1, clean=1)
    if info > 0:
        index = info - 1
        raise SingularKktError(step=index, index=index, pivot=float(L[index, index]))
    return LdltFactor(dim=d, lower=np.ascontiguousarray(L))


def _sparse_factor(M) -> LdltFactor:
    d = M.shape[0]
    if M.shape[1] != d:
        raise InputError(f"matrix must be square, got {M.shape}")
    if not np.isfinite(M.data).all():
        raise InputError("M contains non-finite entries")
    M = sparse.csc_array(M)
    try:
        return LdltFactor(dim=d, lu=positive_splu(M))
    except RuntimeError:
        # SuperLU met a step with no nonzero pivot candidate; the dense
        # factorization names the failing column.
        return ldlt_factor(M.toarray())


def positive_splu(M) -> SuperLU:
    """SuperLU factor of the square CSC matrix M, with the COLAMD ordering
    applied symmetrically and no pivoting, whose pivots are all positive.

    Raises :class:`SingularKktError` at the first step whose pivot is not
    positive, and RuntimeError (from SuperLU) when a step has no nonzero
    pivot candidate at all.
    """
    d = M.shape[0]
    lu = splu(M, permc_spec="COLAMD", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    # A step that took an off-diagonal pivot met a zero diagonal pivot.
    order = np.argsort(lu.perm_c)
    pivots = lu.U.diagonal()
    bad = np.nonzero((lu.perm_r[order] != np.arange(d)) | ~(pivots > 0.0))[0]
    if bad.size:
        step = int(bad[0])
        pivot = float(pivots[step]) if lu.perm_r[order[step]] == step else 0.0
        raise SingularKktError(step=step, index=int(order[step]), pivot=pivot)
    return lu


def ldlt_solve(F: LdltFactor, b: np.ndarray) -> np.ndarray:
    """Solve M v = b for the factored M."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (F.dim,):
        raise InputError(f"right-hand side has shape {b.shape}, expected ({F.dim},)")
    if F.dim == 0:
        return np.zeros(0)
    if F.lu is not None:
        return F.lu.solve(b)
    # F.lower is C-ordered, so F.lower.T is the upper factor in the Fortran
    # order LAPACK reads: no copy of the factor per solve.
    return dpotrs(F.lower.T, b, lower=0)[0]
