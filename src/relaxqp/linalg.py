"""Dense reduced KKT system of the ADMM x-step and its Cholesky factorization.

The x-step solves the quasi-definite KKT system

    [[P + sigma*I, A'], [A, -diag(1/r)]] [xt; nu] = [sigma*x - q; z - y/r].

Its second row gives nu = r*(A xt - z) + y; eliminating nu leaves OSQP's
reduced form (Stellato et al., Math. Prog. Comp. 2020)

    (P + sigma*I + A' diag(r) A) xt = sigma*x - q + A'(r*z - y),   zt = A xt,

whose matrix is symmetric positive definite for sigma > 0 and r > 0 and is
factored by one LAPACK Cholesky call (dpotrf).  The names ``assemble_kkt``,
``ldlt_factor``, ``ldlt_solve`` and ``LdltFactor`` predate the reduced form;
they now denote this n x n matrix and its Cholesky factor, and are kept for
API stability and for tools that wrap these bindings.

Known limit: when null(P) and null(A) share a nonzero vector (the QP is then
dual infeasible), the reduced matrix at the largest penalties has condition
number of order r*||A||^2 / sigma.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InputError, SingularKktError


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InputError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class LdltFactor:
    """Cholesky factor of a symmetric positive definite matrix:
    ``matrix == lower @ lower.T`` with ``lower`` lower triangular.

    The source matrix is kept to allow one step of iterative refinement
    inside :func:`ldlt_solve`.
    """

    lower: np.ndarray
    dim: int
    source: np.ndarray = field(repr=False)


def assemble_kkt(P: np.ndarray, A: np.ndarray, sigma: float, r_values: np.ndarray) -> np.ndarray:
    """Build the reduced KKT matrix P + sigma*I + A' diag(r) A.

    Parameters
    ----------
    P : (n, n) symmetric positive semidefinite cost matrix.
    A : (m, n) constraint matrix.
    sigma : positive regularization added to the diagonal.
    r_values : (m,) positive per-constraint penalty entries.
    """
    P = _as_matrix(P, "P")
    A = _as_matrix(A, "A")
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
    if np.any(r <= 0):
        raise InputError("penalty entries must be positive")

    B = np.sqrt(r)[:, None] * A
    H = B.T @ B  # numpy runs this transpose product as one syrk call
    H += P
    H.flat[:: n + 1] += sigma
    return H


def ldlt_factor(M: np.ndarray) -> LdltFactor:
    """Cholesky-factor a symmetric positive definite matrix (lower triangle read).

    Raises :class:`SingularKktError` at the first column whose pivot is not
    positive, i.e. when M is singular or indefinite.
    """
    M = _as_matrix(M, "M")
    d = M.shape[0]
    if M.shape[1] != d:
        raise InputError(f"matrix must be square, got {M.shape}")
    L, info = dpotrf(M, lower=1, clean=1)
    if info > 0:
        index = info - 1
        raise SingularKktError(step=index, index=index, pivot=float(L[index, index]))
    return LdltFactor(lower=L, dim=d, source=M)


def ldlt_solve(F: LdltFactor, b: np.ndarray) -> np.ndarray:
    """Solve M v = b for the factored M, with at most one step of iterative
    refinement (skipped when the raw solve is already at roundoff level)."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (F.dim,):
        raise InputError(f"right-hand side has shape {b.shape}, expected ({F.dim},)")
    if F.dim == 0:
        return np.zeros(0)
    v = dpotrs(F.lower, b, lower=1)[0]
    r = b - F.source @ v
    scale = 1.0 + float(np.max(np.abs(b)))
    if float(np.max(np.abs(r))) > 1e-13 * scale:
        v = v + dpotrs(F.lower, r, lower=1)[0]
    return v
