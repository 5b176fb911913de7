"""Problem data model: box-constrained QPs, residuals and termination.

A problem is  minimize 0.5 x'Px + q'x  subject to  l <= Ax <= u,  with
entries of l, u allowed to be -inf/+inf.

:class:`QpProblem` takes P and A as ndarrays or scipy.sparse matrices.  It
picks the problem's linear-algebra backend once, with
:func:`relaxqp.linalg.pick_backend`, from the nonzero count of its input, and
keeps P and A in one form, its :attr:`QpProblem.operators`, which
:func:`save_problem` writes.  A zero value, +0.0 or -0.0, is not an entry of
a sparse matrix: sparse input becomes a CSR copy of its nonzero entries
(indices sorted, duplicates summed first).  On the dense backend the
operators are dense arrays; on the sparse backend, CSR matrices of the
nonzero entries.  ``prob.P`` and ``prob.A`` are read from the operators: on
the dense backend the arrays themselves, so dense input keeps its bits, -0.0
included; on the sparse backend a new dense float64 array on every access,
never kept, +0.0 wherever no entry is stored.  A matrix too large to
allocate densely is an InputError at that access, not at construction.  No
code of the package reads them; P and A are validated in the storage of the
operators, the storage every product with A, A' and P goes through.
scipy.sparse is imported only by the code that builds a sparse matrix (sparse
input, the CSR operators, a CSR sidecar) or probes one, so a dense-backend
problem never loads it; :func:`relaxqp.linalg.is_sparse` tells the two forms
apart.

A problem file is one JSON document ``{name, n, m, P, q, A, l, u, seed}``,
written only by :func:`save_problem`.  Each of the five arrays is a sidecar
file beside the document, named ``<file>.<field>.<crc32>.<suffix>``:
``<file>`` is the document's file name without leading dots, ``<field>``
the field's letter and ``<crc32>`` the crc32 of the file's bytes in 8
lowercase hex digits.  q, l and u, and P and A on the dense backend, are
``{"f8le_file": "<file>.<field>.<crc32>.f8"}``, and the file holds the raw
little-endian float64 array in row-major order.  On the sparse backend P and
A are ``{"csr_file": "<file>.<P|A>.<crc32>.csr", "nnz": k}`` and the file
holds the CSR form, one part after another: the rows + 1 row pointers and
the k column indices as little-endian int32, then the k values as
little-endian float64, each nonzero.  So every value, +-inf and subnormals
included, and in a dense sidecar -0.0 too, round-trips bit-exactly; a zero
value that a CSR sidecar holds, as files written before zero values were
dropped may, is dropped on load.  The name is the content's address, so
rewriting a path with the same problem names the same sidecars, and a
rewrite with other content writes new sidecars and leaves the old ones in
place for a reader of the old document.  The sidecars are written, each
through a temporary file and one ``os.replace``, before the document; a
sidecar whose name already holds its bytes (the size compared first, then
the content in bounded chunks) is not written again, and one that holds
other bytes is replaced.
:func:`load_problem` reads a sidecar only under a bare file name of that
pattern whose letter is the field's and whose suffix is the field's form,
only when its size is exactly the one n, m and nnz give, and accepts its
bytes only when their crc32 is the name's.  CSR parts must pass the checks
of the CSR form: row pointers start at 0 and never decrease, and column
indices are in range and sorted and unique within each row.  A CSR object
for q, l or u is an InputError.  Besides the sidecar objects, any of the
five fields may be hand-written as a dense row-major list of numbers, the
form :func:`array_field` reads, where bounds at or beyond the +-1e30
sentinel common to QP solver interfaces mean +-inf.  Any other object, such
as the in-document forms of files written before every field had a sidecar
form, is an InputError naming the field: such a file must be regenerated.
n, m and seed must be JSON integers.  Every JSON input file of the package
is read by :func:`read_json_object`.

:func:`osqp_residuals` is the one place that forms A x, P x and A'y for an
iterate: it returns the residuals together with OSQP's stopping scales, which
the stopping rule and the solver's penalty update read instead of forming the
products again.  Its six infinity norms are taken in one reduction, and |q|
once per problem (:attr:`QpProblem.q_norm`).
"""

import json
import math
import os
import re
import uuid
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleBoundsError, InputError, SingularKktError
from .linalg import KktTerms, is_sparse, pick_backend, positive_splu

INFINITY_SENTINEL = 1e30
SIDECAR_KEY = "f8le_file"
CSR_SIDECAR_KEY = "csr_file"
# A bare file name without a leading dot: group 1 is the field, group 2 the
# crc32 of the file's bytes, group 3 the suffix of its form.
SIDECAR_NAME = re.compile(r"[^./\\\0][^/\\\0]*\.([PAqlu])\.([0-9a-f]{8})\.(f8|csr)")
SYMMETRY_TOL = 1e-10  # rtol and atol of the symmetry test
PSD_SHIFT = 1e-9
PROBE_BLOCK = 1 << 18  # entries of P per block of the symmetry test
SIDECAR_CHUNK = 1 << 20  # bytes per read when a sidecar is compared


def classify(l: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The equality mask of the bounds: True on the rows with l == u finite."""
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if l.shape != u.shape:
        raise InputError(f"bound shapes differ: {l.shape} vs {u.shape}")
    bad = np.nonzero(l > u)[0]
    if bad.size:
        raise InfeasibleBoundsError(
            f"lower bound exceeds upper bound at rows {bad.tolist()[:10]}"
        )
    return (l == u) & np.isfinite(l)


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Immutable QP instance; two problems are equal only when they are the
    same object.

    P and A may be given as ndarrays or scipy.sparse matrices.  Read as
    fields, they are dense float64 ndarrays from ``operators``: the operators
    themselves on the dense backend, a new array on every access on the
    sparse backend.

    Attributes
    ----------
    P : (n, n) symmetric PSD cost matrix.
    q : (n,) linear cost.
    A : (m, n) constraint matrix.
    l, u : (m,) lower/upper bounds, possibly infinite.
    name : human-readable identifier.
    seed : generator seed the instance was built from (0 for hand-made data).
    equality : (m,) bool mask of the rows with l == u finite (:func:`classify`).
    kkt_backend : ``"dense"`` or ``"sparse"``, the linear-algebra backend of
        every solve of this problem (see :func:`relaxqp.linalg.pick_backend`).
    operators : (A, A', P) in the storage of ``kkt_backend``, the one form
        the problem keeps of P and A: CSR matrices of the nonzero entries on
        the sparse backend, dense arrays on the dense one.
    """

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray
    name: str = ""
    seed: int = 0

    def __post_init__(self):
        P = _matrix_input(self.P)
        A = _matrix_input(self.A)
        q = np.ascontiguousarray(np.asarray(self.q, dtype=np.float64))
        l = np.asarray(self.l, dtype=np.float64).copy()
        u = np.asarray(self.u, dtype=np.float64).copy()
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InputError(f"P must be square, got shape {P.shape}")
        n = P.shape[0]
        if q.shape != (n,):
            raise InputError(f"q has shape {q.shape}, expected ({n},)")
        if A.ndim != 2 or A.shape[1] != n:
            raise InputError(f"A has shape {A.shape}, expected (m, {n})")
        m = A.shape[0]
        if l.shape != (m,) or u.shape != (m,):
            raise InputError("bound vectors must have one entry per constraint row")
        backend = pick_backend(n, m, _count_nonzero(P) + _count_nonzero(A))
        if backend == "sparse":
            P, A = _csr(P), _csr(A)
            operators = A, A.T.tocsr(), P
            values = P.data, q, A.data
            zero_row = np.diff(A.indptr) == 0
            psd_probe = _psd_probe_csr
        else:
            P, A = _dense(P), _dense(A)
            operators = A, A.T, P
            values = P, q, A
            zero_row = ~A.any(axis=1)  # -0.0 counts as zero, NaN does not
            psd_probe = _psd_probe
        with np.errstate(over="ignore", invalid="ignore"):
            # A finite sum means every entry is finite, and takes no
            # temporary as large as A; a sum that overflows is settled by the
            # exact test.
            finite = math.isfinite(sum(v.sum() for v in values))
        if not (finite or all(np.isfinite(v).all() for v in values)):
            raise InputError("P, q, A must be finite")
        if np.any(np.isnan(l)) or np.any(np.isnan(u)):
            raise InputError("bounds must not contain NaN")
        equality = classify(l, u)  # also rejects l > u
        # A zero row can only carry bounds that admit Ax = 0.
        for i in np.nonzero(zero_row)[0]:
            if l[i] > 0.0 or u[i] < 0.0:
                raise InputError(f"all-zero constraint row {i} excludes 0 and is infeasible")
        if n and not psd_probe(operators[2]):
            raise InputError("P is not positive semidefinite (factorization probe failed)")
        object.__delattr__(self, "P")  # read from the operators (_DenseOnAccess)
        object.__delattr__(self, "A")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "equality", equality)
        object.__setattr__(self, "kkt_backend", backend)
        object.__setattr__(self, "operators", operators)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.l.shape[0]

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Infinity norm of each row of A (a per-row policy feature)."""
        A = self.operators[0]
        if not A.shape[1]:
            return np.zeros(self.m)
        if is_sparse(A):
            return abs(A).max(axis=1).toarray().reshape(self.m)  # 1-D or a column, by scipy version
        return np.abs(A).max(axis=1)

    @cached_property
    def kkt_terms(self) -> KktTerms:
        """The penalty-free terms of the reduced KKT matrix of every solve
        of this problem, computed by its first KKT assembly (see
        :mod:`relaxqp.linalg`)."""
        A, _, P = self.operators
        return KktTerms(P, A, self.equality)

    @cached_property
    def q_norm(self) -> float:
        """Infinity norm of q (a term of every dual stopping scale)."""
        return _inf_norm(self.q)


class _DenseOnAccess:
    """The field of operator ``index`` (2 for P, 0 for A): the operator
    itself on the dense backend, a new dense array of its entries on every
    read on the sparse backend.  A descriptor, not ``__getattr__``, which
    would send every attribute read on the solver's hot path through it."""

    def __init__(self, index: int):
        self.index = index

    def __get__(self, prob, owner=None):
        if prob is None:
            return self
        return _dense(prob.operators[self.index])


# Set after the dataclass is made, so that they are not taken as defaults.
QpProblem.P = _DenseOnAccess(2)
QpProblem.A = _DenseOnAccess(0)


def _matrix_input(a):
    # A sparse matrix becomes a CSR copy of its nonzero entries, NaN
    # included, with sorted, unique indices (duplicates summed first) of the
    # index type csr_array(dense) picks; anything else a contiguous float64
    # ndarray.
    if is_sparse(a):
        from scipy.sparse import csr_array

        a = csr_array(a, dtype=np.float64, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if max(*a.shape, a.nnz) <= np.iinfo(np.int32).max:
            a.indptr, a.indices = a.indptr.astype(np.int32), a.indices.astype(np.int32)
        return a
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def _count_nonzero(a) -> int:
    return int(np.count_nonzero(a.data if is_sparse(a) else a))


def _csr(a):
    # The CSR matrix of the nonzero entries of a, NaN included: a itself when
    # it is sparse (see _matrix_input), otherwise csr_array(a) by a scan of
    # its rows, 3-5 times faster than csr_array's route through COO.
    if is_sparse(a):
        return a
    from scipy.sparse import csr_array

    nonzero = a != 0.0
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
    flat = np.flatnonzero(nonzero)
    indices = (flat % a.shape[1]).astype(np.int32)
    return csr_array((a.ravel()[flat], indices, indptr), shape=a.shape)


def _dense(a) -> np.ndarray:
    if not is_sparse(a):
        return a
    try:
        return a.toarray()
    except MemoryError as exc:
        raise InputError(f"a {a.shape[0]}x{a.shape[1]} matrix does not fit in memory") from exc


def _psd_probe(P: np.ndarray) -> bool:
    # Cheap check: P + 1e-9*I must admit a Cholesky factorization.  The shift
    # tolerates benign rounding in otherwise-PSD inputs.  The symmetry test
    # is np.allclose(P, P.T, rtol, atol) taken over blocks of rows, and the
    # shift goes onto the diagonal of one copy, so that no temporary is as
    # large as P but that copy.
    n = P.shape[0]
    # P is finite here, so a block that equals its mirror exactly passes
    # np.allclose: the exact test, far cheaper, goes first.
    rows = max(1, PROBE_BLOCK // max(n, 1))
    for i in range(0, n, rows):
        block, mirror = P[i : i + rows], P[:, i : i + rows].T
        if not (np.array_equal(block, mirror)
                or np.allclose(block, mirror, rtol=SYMMETRY_TOL, atol=SYMMETRY_TOL)):
            return False
    shifted = P.copy()
    shifted.flat[:: n + 1] += PSD_SHIFT
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _psd_probe_csr(P) -> bool:
    # _psd_probe on the nonzeros of P: the same symmetry test, and P + 1e-9*I
    # must admit the positive-pivot SuperLU factor of the sparse backend.
    if not _symmetric_csr(P):
        return False
    from scipy.sparse import csc_array, diags_array

    shifted = P + diags_array(np.full(P.shape[0], PSD_SHIFT))
    try:
        positive_splu(csc_array(shifted))
    except (RuntimeError, SingularKktError):
        return False
    return True


def _symmetric_csr(P) -> bool:
    # np.allclose(P, P', rtol, atol), i.e. |x - y| <= atol + rtol*|y| with
    # x = P[i, j] and y = P[j, i], tested at every stored (i, j).  Where
    # P[j, i] is not stored the test there, |0 - x| <= atol + rtol*|x|,
    # follows from the one at (i, j), |x| <= atol.  P is a CSR matrix with
    # sorted, unique indices, so its (row, column) keys ascend.
    if P.nnz == 0:
        return True
    n = P.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(P.indptr))
    cols = P.indices.astype(np.int64)
    keys = rows * n + cols
    mirror = cols * n + rows
    pos = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    x = P.data
    y = np.where(keys[pos] == mirror, x[pos], 0.0)
    return bool(np.all(np.abs(x - y) <= SYMMETRY_TOL + SYMMETRY_TOL * np.abs(y)))


@dataclass(slots=True)
class Residuals:
    """OSQP-form stopping residuals at a given (x, z, y) triple, with the
    scales the relative tolerance multiplies: prim_scale = max(|Ax|, |z|) and
    dual_scale = max(|Px|, |A'y|, |q|), all infinity norms.  One is built
    per iteration, and a slotted record costs a third of a frozen one to
    build; nothing writes to one after it is built."""

    r_prim: np.ndarray
    r_dual: np.ndarray
    r_prim_inf: float
    r_dual_inf: float
    prim_scale: float
    dual_scale: float


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def objective(prob: QpProblem, x: np.ndarray) -> float:
    """0.5 x'Px + q'x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (prob.n,):
        raise InputError(f"x has shape {x.shape}, expected ({prob.n},)")
    return float(0.5 * x @ (prob.operators[2] @ x) + prob.q @ x)


def osqp_residuals(prob: QpProblem, x: np.ndarray, z: np.ndarray, y: np.ndarray) -> Residuals:
    """Primal residual Ax - z, dual residual Px + q + A'y and their scales."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, n = prob.m, prob.n
    if x.shape != (n,) or z.shape != (m,) or y.shape != (m,):
        raise InputError("residual inputs have inconsistent dimensions")
    A, AT, P = prob.operators
    Ax, Px, ATy = A.dot(x), P.dot(x), AT.dot(y)
    r_prim = Ax - z
    r_dual = Px + prob.q + ATy
    vectors = r_prim, r_dual, Ax, z, Px, ATy
    if m and n:
        # One max per segment of one concatenation: the max is exact, so these
        # are the per-vector norms.  reduceat gives an empty segment the entry
        # at its offset, not 0, hence the per-vector path when n or m is 0.
        offsets = (0, m, m + n, 2 * m + n, 3 * m + n, 3 * m + 2 * n)
        norms = np.maximum.reduceat(np.abs(np.concatenate(vectors)), offsets).tolist()
    else:
        norms = [_inf_norm(v) for v in vectors]
    r_prim_inf, r_dual_inf, Ax_inf, z_inf, Px_inf, ATy_inf = norms
    return Residuals(
        r_prim, r_dual, r_prim_inf, r_dual_inf,
        prim_scale=max(Ax_inf, z_inf),
        dual_scale=max(Px_inf, ATy_inf, prob.q_norm),
    )


def normal_cone_gap(prob: QpProblem, z: np.ndarray, w: np.ndarray) -> float:
    """max_i |z_i - clip(z_i + w_i, l_i, u_i)|: 0 exactly when w_i lies in the
    normal cone of [l_i, u_i] at z_i.  For z in the box a row reads
    min(|w_i|, distance of z_i to the bound the sign of w_i names), the upper
    one for w_i > 0 and the lower one for w_i < 0, so a multiplier of the
    wrong sign at a bound is seen."""
    # ndarray methods, not the np.clip/np.max wrappers: verify.Trajectory
    # takes it once per iteration.
    return float(np.abs(z - (z + w).clip(prob.l, prob.u)).max(initial=0.0))


def terminated(res: Residuals, eps_abs: float, eps_rel: float) -> bool:
    """OSQP stopping rule; boundary hits count as terminated (<=, not <)."""
    if not (eps_abs > 0 and eps_rel > 0):  # NaN fails the comparisons
        raise InputError("tolerances must be positive")
    return res.r_prim_inf <= eps_abs + eps_rel * res.prim_scale and res.r_dual_inf <= (
        eps_abs + eps_rel * res.dual_scale
    )


def _csr_matrix(indptr, indices, data, shape: tuple, key: str, path: str):
    """The CSR matrix of ``shape`` with the parts of field ``key``'s sidecar
    file ``path``, once they pass the checks of the CSR form; a failed check
    is an InputError naming the part and the file."""
    indptr_at, indices_at = (f"field '{key}.{part}' in sidecar file {path}"
                             for part in ("indptr", "indices"))
    steps = np.diff(indptr.astype(np.int64))  # int32 differences can wrap around
    if indptr[0] != 0 or np.any(steps < 0):
        raise InputError(f"{indptr_at} must start at 0 and never decrease")
    if indptr[-1] != indices.size:
        raise InputError(f"{indptr_at} counts {indptr[-1]} entries, not {indices.size}")
    cols = shape[1]
    if indices.size and (indices.min() < 0 or indices.max() >= cols):
        raise InputError(f"{indices_at} holds a column index outside [0, {cols})")
    # Within a row each index must exceed the one before it; the step into
    # the first entry of a row is free.
    row_start = np.zeros(indices.size, dtype=bool)
    row_start[indptr[:-1][steps > 0]] = True
    if np.any((np.diff(indices) <= 0) & ~row_start[1:]):
        raise InputError(f"{indices_at} must be sorted and unique within each row")
    from scipy.sparse import csr_array

    return csr_array((data, indices, indptr), shape=shape)


def array_field(doc: dict, key: str, shape: tuple, bounds: bool = False) -> np.ndarray:
    """``doc[key]``, a dense list of numbers, as a float array of ``shape``;
    in a list of ``bounds``, the +-1e30 sentinel means +-inf.  A field that
    is an object or does not hold the shape's entries is an InputError
    naming it."""
    value = doc[key]
    if isinstance(value, dict):
        raise InputError(f"field {key!r} is an object, not a list of numbers")
    flat = np.array(value, dtype=np.float64)
    if bounds:
        flat[flat >= INFINITY_SENTINEL] = np.inf
        flat[flat <= -INFINITY_SENTINEL] = -np.inf
    size = math.prod(shape)
    if flat.size != size:
        raise InputError(
            f"field {key!r} has {flat.size} entries, expected {'x'.join(map(str, shape))}"
        )
    return flat.reshape(shape)


def sidecar_field(doc: dict, key: str, shape: tuple, directory, bounds: bool = False):
    """``doc[key]`` as an array of ``shape`` from a dense sidecar object, as
    a CSR matrix from a CSR sidecar object when ``shape`` is a matrix's,
    otherwise as a dense list the way :func:`array_field` reads it with
    ``bounds``.  Sidecar files are read from ``directory``; any other object
    is an InputError."""
    value = doc[key]
    if not isinstance(value, dict):
        return array_field(doc, key, shape, bounds)
    matrix = len(shape) == 2
    if CSR_SIDECAR_KEY in value:
        if not matrix:
            raise InputError(f"field {key!r} is a {CSR_SIDECAR_KEY!r} object; "
                             "the CSR form is for P and A only")
        nnz, size = value.get("nnz"), math.prod(shape)
        if not (_is_integer(nnz) and 0 <= nnz <= size):
            raise InputError(f"field '{key}.nnz' must be an entry count from 0 to {size} "
                             f"for sidecar file {value[CSR_SIDECAR_KEY]!r}")
        path, (indptr, indices, data) = _read_sidecar(
            value[CSR_SIDECAR_KEY], key, "csr", directory,
            (("<i4", shape[0] + 1), ("<i4", nnz), ("<f8", nnz)),
        )
        return _csr_matrix(indptr, indices, data, shape, key, path)
    if SIDECAR_KEY in value:
        _, (flat,) = _read_sidecar(value[SIDECAR_KEY], key, "f8", directory,
                                   (("<f8", math.prod(shape)),))
        return flat.reshape(shape)
    forms = f"{CSR_SIDECAR_KEY!r} or {SIDECAR_KEY!r}" if matrix else repr(SIDECAR_KEY)
    raise InputError(
        f"field {key!r} is not a sidecar object ({forms}) or a list of numbers; "
        "a problem file written before the sidecar forms must be regenerated"
    )


def _is_integer(value) -> bool:
    # A JSON integer: json.loads reads one as an int, and true and false as
    # bools, which are ints too.
    return isinstance(value, int) and not isinstance(value, bool)


def _read_sidecar(name, key: str, suffix: str, directory, parts: tuple):
    # The path and the arrays of (dtype, count) ``parts`` that the sidecar
    # file ``name`` of field ``key`` holds one after another.
    match = SIDECAR_NAME.fullmatch(name) if isinstance(name, str) else None
    if match is None or match[1] != key or match[3] != suffix:
        raise InputError(
            f"field {key!r} names sidecar file {name!r}, not a bare '<file>.{key}.<crc32>.{suffix}'"
        )
    path = os.path.join(directory, name)
    nbytes = sum(np.dtype(dtype).itemsize * count for dtype, count in parts)
    try:
        with open(path, "rb") as fh:
            # Sized before anything is read, so the document's n, m and nnz
            # bound the memory a sidecar can take.
            size = os.fstat(fh.fileno()).st_size
            if size != nbytes:
                raise InputError(
                    f"field {key!r}: sidecar file {path} holds {size} bytes, expected {nbytes}"
                )
            arrays = [np.fromfile(fh, dtype=dtype, count=count) for dtype, count in parts]
    except OSError as exc:
        reason = exc.strerror or exc
        raise InputError(f"field {key!r}: cannot read sidecar file {path}: {reason}") from exc
    crc = 0
    for a in arrays:
        crc = zlib.crc32(a, crc)
    if sum(a.nbytes for a in arrays) != nbytes or f"{crc:08x}" != match[2]:
        raise InputError(f"field {key!r}: sidecar file {path} fails its crc32 check")
    return path, [a.astype(a.dtype.newbyteorder("="), copy=False) for a in arrays]


def problem_from_dict(doc: dict, directory) -> QpProblem:
    """The problem a document describes; sidecar files it names are read
    from ``directory``."""
    try:
        n, m, seed = doc["n"], doc["m"], doc.get("seed", 0)
        for key, value in (("n", n), ("m", m), ("seed", seed)):
            if not _is_integer(value):
                raise InputError(f"field {key!r} must be an integer, got {value!r}")
        if n < 0 or m < 0:
            raise InputError(f"n and m must not be negative, got n={n}, m={m}")
        fields = dict(
            P=sidecar_field(doc, "P", (n, n), directory),
            q=sidecar_field(doc, "q", (n,), directory),
            A=sidecar_field(doc, "A", (m, n), directory),
            l=sidecar_field(doc, "l", (m,), directory, bounds=True),
            u=sidecar_field(doc, "u", (m,), directory, bounds=True),
            name=str(doc.get("name", "")),
            seed=seed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    return QpProblem(**fields)


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file ``path``.  Bytes that are not JSON text,
    and JSON whose top level is not an object, are an InputError naming the
    file as ``what``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # ValueError covers undecodable bytes
        raise InputError(f"invalid {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        kind = type(doc).__name__
        raise InputError(f"invalid {what} {path}: top level is a {kind}, not an object")
    return doc


def check_keys(doc: dict, where: str, allowed, required=()) -> None:
    """InputError, its message led by ``where``, naming the keys of ``doc``
    outside ``allowed`` or, when there are none, the ``required`` keys that
    ``doc`` lacks."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise InputError(f"{where}: unknown fields {unknown}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise InputError(f"{where} lacks fields {missing}")


def write_atomic(path, data) -> None:
    """Write ``data``, a str, a bytes-like object such as a C-contiguous
    array, or a tuple of bytes-like objects written one after another, to
    ``path`` through a temporary file in the same directory and one
    ``os.replace``: a reader sees the old file (or none) or the whole new
    one, never a part, even while another process writes the same path."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x" if isinstance(data, str) else "xb") as fh:
            for part in data if isinstance(data, tuple) else (data,):
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_sidecar(path: str, key: str, suffix: str, parts) -> str:
    # The file holds the C-contiguous arrays ``parts`` one after another.
    # Its name drops the file name's leading dots, which the reader refuses.
    # A file of that name that already holds those bytes is left as it is.
    crc = 0
    for a in parts:
        crc = zlib.crc32(a, crc)
    name = f"{os.path.basename(path).lstrip('.')}.{key}.{crc:08x}.{suffix}"
    target = os.path.join(os.path.dirname(path), name)
    if not _file_holds(target, parts):
        write_atomic(target, parts)
    return name


def _file_holds(path: str, parts) -> bool:
    # Whether the file ``path`` holds the bytes of the C-contiguous arrays
    # ``parts`` one after another: its size first, then its content, read in
    # chunks of at most SIDECAR_CHUNK bytes.
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size != sum(a.nbytes for a in parts):
                return False
            for a in parts:
                view = memoryview(a).cast("B")
                for i in range(0, len(view), SIDECAR_CHUNK):
                    chunk = view[i : i + SIDECAR_CHUNK].tobytes()  # bytes compare by memcmp
                    if fh.read(len(chunk)) != chunk:
                        return False
    except OSError:
        return False
    return True


def _dense_sidecar(path: str, key: str, a: np.ndarray) -> dict:
    return {SIDECAR_KEY: _write_sidecar(path, key, "f8", (a.astype("<f8", copy=False),))}


def _csr_sidecar(path: str, key: str, a) -> dict:
    parts = (a.indptr.astype("<i4", copy=False), a.indices.astype("<i4", copy=False),
             a.data.astype("<f8", copy=False))
    return {CSR_SIDECAR_KEY: _write_sidecar(path, key, "csr", parts), "nnz": int(a.nnz)}


def save_problem(prob: QpProblem, path) -> None:
    """Write ``prob`` to the problem file ``path``: the five arrays first, as
    sidecar files, P and A as its :attr:`QpProblem.operators`, then the
    document (see the module docstring)."""
    path = os.fspath(path)
    A, _, P = prob.operators
    matrix_sidecar = _csr_sidecar if is_sparse(A) else _dense_sidecar
    doc = {
        "name": prob.name,
        "n": prob.n,
        "m": prob.m,
        "P": matrix_sidecar(path, "P", P),
        "q": _dense_sidecar(path, "q", prob.q),
        "A": matrix_sidecar(path, "A", A),
        "l": _dense_sidecar(path, "l", prob.l),
        "u": _dense_sidecar(path, "u", prob.u),
        "seed": prob.seed,
    }
    write_atomic(path, json.dumps(doc))


def load_problem(path) -> QpProblem:
    """The problem in the problem file ``path``; an InputError in its
    content names the file."""
    path = os.fspath(path)
    doc = read_json_object(path, "problem file")
    try:
        return problem_from_dict(doc, os.path.dirname(path))
    except InputError as exc:
        raise type(exc)(f"problem file {path}: {exc}") from exc
