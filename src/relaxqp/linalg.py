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

Two ways to form H.  :func:`assemble_kkt` takes the problem's
:class:`KktTerms` (:attr:`relaxqp.problem.QpProblem.kkt_terms`).  When the
penalty vector takes one value on the equality rows and one on the rest,
the two levels of :func:`relaxqp.engine.rho_pattern` and so the form of
every penalty a solve factors, H is refilled from the terms:

    H = P + sigma*I + sum over levels l of rho_l * (G_l + diag(d_l)).

A row of A with one nonzero a at column j adds r*a^2 to H[j, j] alone, so
d_l holds those rows' squares by column, and G_l = A_l'A_l is the Gram
matrix of level l's rows with two or more nonzeros.  The terms are built by
the first refill of a problem, inside :func:`assemble_kkt`; later refills,
after a penalty update or in a later solve of the same problem object, only
combine their arrays: no sparse product or syrk.  On the sparse backend the
terms lie on one canonical CSC pattern, the union of those of P, I and the
G_l, so a refill is a sum of data arrays.  Any other penalty vector, such as
the per-row drift of :func:`relaxqp.verify.run_drift_experiment`, has no
levels to reuse: H is then the product P + sigma*I + B'B with B =
sqrt(r)*A over all rows, as when no terms are given.  The refilled H equals
that product up to roundoff in its last bits, not bit for bit: the
singleton rows and the levels are summed apart.

scipy.sparse and scipy.sparse.linalg (SuperLU) are imported inside the code
that builds or factors a sparse matrix, never when the module is imported,
so a process that solves only dense-backend problems does not load them.
:func:`is_sparse` is the one test for a sparse input: no sparse matrix can
exist before scipy.sparse is loaded, so it asks that module only once it is.

:func:`assemble_kkt`, :func:`ldlt_factor` and :func:`ldlt_solve` dispatch on
the type of their input.  These names and ``LdltFactor`` predate the reduced
form; they are kept for tools that wrap these bindings by name.

Which BLAS runs what.  The numpy and scipy wheels each bundle their own
OpenBLAS, and each keeps its own thread pool, whose workers spin for a while
after a call.  Every dense product of a solve (H's syrks and the
matrix-vector products) runs on numpy's, and so does the Cholesky factor.
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

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InputError, SingularKktError

if TYPE_CHECKING:
    from scipy.sparse.linalg import SuperLU

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


def is_sparse(a) -> bool:
    """Whether ``a`` is a scipy.sparse matrix or array.  It never imports
    scipy.sparse: no sparse matrix exists before that module is loaded."""
    if isinstance(a, np.ndarray):
        return False
    module = sys.modules.get("scipy.sparse")
    return module is not None and module.issparse(a)


@dataclass(frozen=True)
class LdltFactor:
    """Factor of a symmetric positive definite matrix of size ``dim``.

    Dense backend: ``lower`` is the C-ordered Cholesky factor, ``matrix ==
    lower @ lower.T``, and ``lu`` is None.  Sparse backend: ``lu`` is the
    SuperLU factor and ``lower`` is None.
    """

    dim: int
    lower: np.ndarray | None = None
    lu: "SuperLU | None" = None


class KktTerms:
    """The terms of the reduced KKT matrix of P and A that do not depend on
    the penalty, for penalty vectors with one value on the ``equality`` rows
    (a boolean mask) and one on the rest (see the module docstring).

    Building one takes O(m); the terms are computed by the first
    :meth:`refill` and kept for the life of the object.
    """

    def __init__(self, P, A, equality: np.ndarray):
        self.P, self.A = P, A
        self.equality = np.asarray(equality, dtype=bool)
        # The first row of each group (None for a group without rows), and
        # for every row the first row of its group.
        self._first = [int(rows[0]) if rows.size else None for rows in
                       (np.flatnonzero(self.equality), np.flatnonzero(~self.equality))]
        self._leader = np.where(self.equality, *(i or 0 for i in self._first))

    def levels(self, r: np.ndarray) -> tuple[float, float] | None:
        """(value on the equality rows, value on the rest) when ``r`` takes
        one value on each group, else None.  A group without rows reads 0."""
        lead = self._leader
        # The scalar test first: a penalty that drifts per row almost always
        # fails it.
        if r.size and r[-1] != r[lead[-1]] or not (r == r[lead]).all():
            return None
        c_eq, c_rest = (0.0 if i is None else float(r[i]) for i in self._first)
        return c_eq, c_rest

    @cached_property
    def _parts(self):
        # (grams, p_at, p_values, diag_at, diags, pattern): refill sums
        # rho_l * gram over the [(level, gram)] and adds P's p_values at
        # p_at and the diagonal terms at diag_at of the flat result.  Dense
        # backend: n x n grams, p_at all of H and pattern None; sparse: the
        # data arrays of the CSC pattern (indices, indptr).
        P, A = self.P, self.A
        n = A.shape[1]
        sparse_A = is_sparse(A)
        if sparse_A:
            from scipy.sparse import csr_array, diags_array

            counts = np.diff(A.indptr)
            single = np.flatnonzero(counts == 1)
            cols, vals = A.indices[A.indptr[single]], A.data[A.indptr[single]]
        else:
            nonzero = A != 0.0
            counts = nonzero.sum(axis=1, dtype=np.int32)
            single = np.flatnonzero(counts == 1)
            cols = nonzero[single].argmax(axis=1) if single.size else single
            vals = A[single, cols]
        single_eq = self.equality[single]
        diags = tuple(np.bincount(cols[mask], weights=vals[mask] ** 2, minlength=n)
                      for mask in (single_eq, ~single_eq))
        grams = []
        for level, rows in enumerate((self.equality, ~self.equality)):
            rows = np.flatnonzero(rows & (counts > 1))
            if rows.size:
                # A run of consecutive rows is a view, not a copy.
                A_l = A[rows[0] : rows[-1] + 1] if rows[-1] - rows[0] < rows.size else A[rows]
                # csr_array(A_l') @ A_l has unsorted indices; tocsc() sorts
                # them by transposing.  Dense: one syrk.
                G = (csr_array(A_l.T) @ A_l).tocsc() if sparse_A else A_l.T @ A_l
                grams.append((level, G))
        if not sparse_A:
            return grams, slice(None), P.reshape(-1), np.arange(n) * (n + 1), diags, None
        # The pattern is the union of those of P, I and the grams, as sorted
        # keys column * n + row.  The largest part (a gram, as a rule) often
        # holds all the others; its index arrays are then the pattern's.
        P = P.tocsc()
        P.sum_duplicates()
        parts = [P, diags_array(np.ones(n), format="csc"), *(G for _, G in grams)]
        keys = [_csc_keys(C) for C in parts]
        largest = max(range(len(parts)), key=lambda k: keys[k].size)
        union = keys[largest]
        missing = np.concatenate([k[~_holds(union, k)] for k in keys if k is not union])
        if missing.size:
            union = np.concatenate((union, np.unique(missing)))
            union.sort(kind="stable")  # two sorted runs, merged
            pattern = union % n, np.searchsorted(union, np.arange(n + 1) * n)
            pattern = tuple(a.astype(parts[largest].indices.dtype) for a in pattern)
        else:
            pattern = parts[largest].indices, parts[largest].indptr
        # Where each part's entries lie in the pattern; all of it for a part
        # that is the whole pattern.
        at = [slice(None) if k is union else np.searchsorted(union, k) for k in keys]
        for i, (level, G) in enumerate(grams):
            data = G.data
            if not isinstance(at[2 + i], slice):
                data = np.zeros(union.size)
                data[at[2 + i]] = G.data
            grams[i] = level, data
        return grams, at[0], P.data, at[1], diags, pattern

    def refill(self, sigma: float, levels: tuple[float, float]):
        """P + sigma*I + sum of rho_l * (G_l + diag(d_l)) for the ``levels``
        (rho_eq, rho_rest), in a new array: an ndarray on the dense backend,
        a CSC matrix on the sparse one."""
        grams, p_at, p_values, diag_at, diags, pattern = self._parts
        n = self.A.shape[1]
        if grams:
            # The first product is the new array: a zeroed one would cost a
            # page fault per page on the dense backend.
            level, gram = grams[0]
            data = levels[level] * gram
            for level, gram in grams[1:]:
                data += levels[level] * gram
        else:
            data = np.zeros((n, n) if pattern is None else pattern[0].size)
        flat = data.reshape(-1)
        flat[p_at] += p_values
        flat[diag_at] += sigma + levels[0] * diags[0] + levels[1] * diags[1]
        if pattern is None:
            return data
        from scipy.sparse import csc_array

        return csc_array((data, *pattern), shape=(n, n))


def _csc_keys(C) -> np.ndarray:
    # column * n + row of each entry of the CSC matrix C, in storage order.
    n = C.shape[0]
    return np.repeat(np.arange(C.shape[1], dtype=np.int64) * n, np.diff(C.indptr)) + C.indices


def _holds(union: np.ndarray, keys: np.ndarray) -> np.ndarray:
    # Which of keys are in the sorted array union.
    if not union.size:
        return np.zeros(keys.size, dtype=bool)
    return union[np.searchsorted(union, keys).clip(max=union.size - 1)] == keys


def assemble_kkt(P, A, sigma: float, r_values: np.ndarray, terms: KktTerms | None = None):
    """Build the reduced KKT matrix P + sigma*I + A' diag(r) A: an ndarray
    for dense P and A, a CSC matrix for sparse ones.

    Parameters
    ----------
    P : (n, n) symmetric positive semidefinite cost matrix.
    A : (m, n) constraint matrix.
    sigma : positive regularization added to the diagonal.
    r_values : (m,) positive per-constraint penalty entries.
    terms : the :class:`KktTerms` of P and A.  When given and r_values has
        their two levels, H is refilled from them; otherwise it is the
        product over all rows.

    P and A are not scanned for non-finite entries: every entry of P reaches
    H through ``+ P`` and every entry of A its diagonal, which
    :func:`ldlt_factor` checks.
    """
    sparse_A = is_sparse(A)
    if not sparse_A:
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

    if terms is not None:
        if terms.P is not P or terms.A is not A:
            raise InputError("KKT terms belong to other matrices than P and A")
        levels = terms.levels(r)
        if levels is not None:
            return terms.refill(sigma, levels)
    if sparse_A:
        from scipy.sparse import diags_array

        B = diags_array(np.sqrt(r)) @ A
        H = B.T @ B + P + diags_array(np.full(n, float(sigma)))
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
    pivot is not positive, i.e. when M is singular, indefinite or too
    ill-conditioned to factor (see :func:`_kkt_error`); ``index`` is the row
    and column of M that step eliminates.
    """
    if is_sparse(M):
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
        raise _kkt_error(M, step=index, index=index, pivot=float(L[index, index]))
    return LdltFactor(dim=d, lower=np.ascontiguousarray(L))


def _sparse_factor(M) -> LdltFactor:
    d = M.shape[0]
    if M.shape[1] != d:
        raise InputError(f"matrix must be square, got {M.shape}")
    if not np.isfinite(M.data).all():
        raise InputError("M contains non-finite entries")
    from scipy.sparse import csc_array

    M = csc_array(M)
    try:
        return LdltFactor(dim=d, lu=positive_splu(M))
    except RuntimeError:
        # SuperLU met a step with no nonzero pivot candidate; the dense
        # factorization names the failing column.
        return ldlt_factor(M.toarray())


def positive_splu(M) -> "SuperLU":
    """SuperLU factor of the square CSC matrix M, with the COLAMD ordering
    applied symmetrically and no pivoting, whose pivots are all positive.

    Raises :class:`SingularKktError` at the first step whose pivot is not
    positive, and RuntimeError (from SuperLU) when a step has no nonzero
    pivot candidate at all.
    """
    from scipy.sparse.linalg import splu

    d = M.shape[0]
    lu = splu(M, permc_spec="COLAMD", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    # A step that took an off-diagonal pivot met a zero diagonal pivot.
    order = np.argsort(lu.perm_c)
    pivots = lu.U.diagonal()
    bad = np.nonzero((lu.perm_r[order] != np.arange(d)) | ~(pivots > 0.0))[0]
    if bad.size:
        step = int(bad[0])
        pivot = float(pivots[step]) if lu.perm_r[order[step]] == step else 0.0
        raise _kkt_error(M, step=step, index=int(order[step]), pivot=pivot)
    return lu


def _kkt_error(M, step: int, index: int, pivot: float) -> SingularKktError:
    """The error of a factor of M that failed at ``step``.  It names M
    ill-conditioned, with the ratio, when M's diagonal entries are positive
    and the largest exceeds the smallest by more than 1/eps: cond(M) of a
    positive definite M is at least that ratio, so M cannot be told from a
    singular matrix in floating point.  Built on the failure path only."""
    d = M.diagonal()
    lo = float(d.min())
    ratio = float(d.max()) / lo if lo > 0.0 else 0.0
    ill = ratio > 1.0 / np.finfo(np.float64).eps
    return SingularKktError(step=step, index=index, pivot=pivot, diag_ratio=ratio if ill else None)


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
