"""Problem data model: box-constrained QPs, residuals and termination.

A problem is  minimize 0.5 x'Px + q'x  subject to  l <= Ax <= u,  with
entries of l, u allowed to be -inf/+inf.

A problem file is one JSON document ``{name, n, m, P, q, A, l, u, seed}``.
:func:`save_problem` writes each array field as ``{"f8le_zlib_b64": s}``: s is
the base64 of the zlib-compressed little-endian float64 bytes of the array in
row-major order, so every value, +-inf included, round-trips bit-exactly.
:func:`array_field` also reads the hand-written form, a dense row-major list
of numbers, where bounds at or beyond the +-1e30 sentinel common to QP solver
interfaces mean +-inf.

:func:`osqp_residuals` is the one place that forms A x, P x and A'y for an
iterate: it returns the residuals together with OSQP's stopping scales, which
the stopping rule and the solver's penalty update read instead of forming the
products again.  It forms them, like the solver's iteration, through
:attr:`QpProblem.operators`: CSR copies of A, A' and P on problems that
:func:`relaxqp.linalg.pick_backend` puts on the sparse backend, the dense
arrays themselves otherwise.
"""

import base64
import json
import math
import os
import uuid
import zlib
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import InfeasibleBoundsError, InputError
from .linalg import pick_backend

INFINITY_SENTINEL = 1e30
BINARY_KEY = "f8le_zlib_b64"


class ConstraintKind(IntEnum):
    EQUALITY = 0
    INEQUALITY = 1
    LOOSE = 2


def classify(l: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tag each constraint row as equality (l == u, finite), loose (both
    bounds infinite) or inequality (everything else)."""
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if l.shape != u.shape:
        raise InputError(f"bound shapes differ: {l.shape} vs {u.shape}")
    bad = np.nonzero(l > u)[0]
    if bad.size:
        raise InfeasibleBoundsError(
            f"lower bound exceeds upper bound at rows {bad.tolist()[:10]}"
        )
    kinds = np.full(l.shape, ConstraintKind.INEQUALITY, dtype=np.int8)
    kinds[(l == u) & np.isfinite(l)] = ConstraintKind.EQUALITY
    kinds[np.isneginf(l) & np.isposinf(u)] = ConstraintKind.LOOSE
    return kinds


@dataclass(frozen=True)
class QpProblem:
    """Immutable QP instance.

    Attributes
    ----------
    P : (n, n) symmetric PSD cost matrix.
    q : (n,) linear cost.
    A : (m, n) constraint matrix.
    l, u : (m,) lower/upper bounds, possibly infinite.
    name : human-readable identifier.
    seed : generator seed the instance was built from (0 for hand-made data).
    """

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray
    name: str = ""
    seed: int = 0

    def __post_init__(self):
        P = np.ascontiguousarray(np.asarray(self.P, dtype=np.float64))
        q = np.ascontiguousarray(np.asarray(self.q, dtype=np.float64))
        A = np.ascontiguousarray(np.asarray(self.A, dtype=np.float64))
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
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(q)) and np.all(np.isfinite(A))):
            raise InputError("P, q, A must be finite")
        if np.any(np.isnan(l)) or np.any(np.isnan(u)):
            raise InputError("bounds must not contain NaN")
        kinds = classify(l, u)  # also rejects l > u
        # A zero row can only carry bounds that admit Ax = 0.
        zero_rows = np.nonzero(np.all(A == 0.0, axis=1))[0]
        for i in zero_rows:
            if l[i] > 0.0 or u[i] < 0.0:
                raise InputError(f"all-zero constraint row {i} excludes 0 and is infeasible")
        if n and not _psd_probe(P):
            raise InputError("P is not positive semidefinite (factorization probe failed)")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "kinds", kinds)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Infinity norm of each row of A (a per-row policy feature)."""
        return np.max(np.abs(self.A), axis=1) if self.A.size else np.zeros(self.m)

    @cached_property
    def kkt_backend(self) -> str:
        """``"dense"`` or ``"sparse"``: the linear-algebra backend of every
        solve of this problem (see :func:`relaxqp.linalg.pick_backend`)."""
        nnz = np.count_nonzero(self.A) + np.count_nonzero(self.P)
        return pick_backend(self.n, self.m, int(nnz))

    @cached_property
    def operators(self) -> tuple:
        """(A, A', P) in the storage of :attr:`kkt_backend`: CSR matrices on
        the sparse backend (A' the transpose of the CSR copy of A), the dense
        arrays on the dense one."""
        if self.kkt_backend == "sparse":
            A = sparse.csr_array(self.A)
            return A, A.T.tocsr(), sparse.csr_array(self.P)
        return self.A, self.A.T, self.P


def _psd_probe(P: np.ndarray) -> bool:
    # Cheap check: P + 1e-9*I must admit a Cholesky factorization.  The shift
    # tolerates benign rounding in otherwise-PSD inputs.
    if not np.allclose(P, P.T, rtol=1e-10, atol=1e-10):
        return False
    shifted = P + 1e-9 * np.eye(P.shape[0])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class Residuals:
    """OSQP-form stopping residuals at a given (x, z, y) triple, with the
    scales the relative tolerance multiplies: prim_scale = max(|Ax|, |z|) and
    dual_scale = max(|Px|, |A'y|, |q|), all infinity norms."""

    r_prim: np.ndarray
    r_dual: np.ndarray
    r_prim_inf: float
    r_dual_inf: float
    prim_scale: float
    dual_scale: float


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def objective(prob: QpProblem, x: np.ndarray) -> float:
    """0.5 x'Px + q'x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (prob.n,):
        raise InputError(f"x has shape {x.shape}, expected ({prob.n},)")
    return float(0.5 * x @ (prob.P @ x) + prob.q @ x)


def osqp_residuals(prob: QpProblem, x: np.ndarray, z: np.ndarray, y: np.ndarray) -> Residuals:
    """Primal residual Ax - z, dual residual Px + q + A'y and their scales."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (prob.n,) or z.shape != (prob.m,) or y.shape != (prob.m,):
        raise InputError("residual inputs have inconsistent dimensions")
    A, AT, P = prob.operators
    Ax, Px, ATy = A @ x, P @ x, AT @ y
    r_prim = Ax - z
    r_dual = Px + prob.q + ATy
    return Residuals(
        r_prim, r_dual, _inf_norm(r_prim), _inf_norm(r_dual),
        prim_scale=max(_inf_norm(Ax), _inf_norm(z)),
        dual_scale=max(_inf_norm(Px), _inf_norm(ATy), _inf_norm(prob.q)),
    )


def terminated(res: Residuals, eps_abs: float, eps_rel: float) -> bool:
    """OSQP stopping rule; boundary hits count as terminated (<=, not <)."""
    if eps_abs <= 0 or eps_rel <= 0:
        raise InputError("tolerances must be positive")
    return res.r_prim_inf <= eps_abs + eps_rel * res.prim_scale and res.r_dual_inf <= (
        eps_abs + eps_rel * res.dual_scale
    )


def encode_array(a: np.ndarray) -> dict:
    """The binary array object of a problem file (see the module docstring)."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {BINARY_KEY: base64.b64encode(zlib.compress(raw, 1)).decode("ascii")}


def _decode_binary(obj: dict, key: str, size: int) -> np.ndarray:
    # Inflate at most one byte past the expected size, so a small payload
    # cannot expand without bound before its length is checked.
    nbytes = 8 * size
    try:
        data = base64.b64decode(obj[BINARY_KEY], validate=True)
        inflater = zlib.decompressobj()
        raw = inflater.decompress(data, nbytes + 1)
    except (KeyError, TypeError, ValueError, zlib.error) as exc:
        raise InputError(f"field {key!r} is not a valid binary array: {exc}") from exc
    if len(raw) > nbytes:
        raise InputError(f"field {key!r} decodes to more than the expected {nbytes} bytes")
    if not inflater.eof:
        raise InputError(f"field {key!r} holds a truncated zlib stream")
    if inflater.unused_data:
        raise InputError(f"field {key!r} has bytes after the end of its zlib stream")
    if len(raw) < nbytes:
        raise InputError(f"field {key!r} decodes to {len(raw)} bytes, expected {nbytes}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def array_field(doc: dict, key: str, shape: tuple, bounds: bool = False) -> np.ndarray:
    """``doc[key]`` as a float array of ``shape``, from a binary array object
    or a dense list; in a list of ``bounds``, the +-1e30 sentinel means +-inf.
    A field that does not decode to the shape is an InputError naming it."""
    value = doc[key]
    size = math.prod(shape)
    if isinstance(value, dict):
        flat = _decode_binary(value, key, size)
    else:
        flat = np.asarray(value, dtype=np.float64)
        if bounds:
            flat = flat.copy()
            flat[flat >= INFINITY_SENTINEL] = np.inf
            flat[flat <= -INFINITY_SENTINEL] = -np.inf
    if flat.size != size:
        raise InputError(
            f"field {key!r} has {flat.size} entries, expected {'x'.join(map(str, shape))}"
        )
    return flat.reshape(shape)


def problem_to_dict(prob: QpProblem) -> dict:
    return {
        "name": prob.name,
        "n": prob.n,
        "m": prob.m,
        **{key: encode_array(getattr(prob, key)) for key in ("P", "q", "A", "l", "u")},
        "seed": prob.seed,
    }


def problem_from_dict(doc: dict) -> QpProblem:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        fields = dict(
            P=array_field(doc, "P", (n, n)),
            q=array_field(doc, "q", (n,)),
            A=array_field(doc, "A", (m, n)),
            l=array_field(doc, "l", (m,), bounds=True),
            u=array_field(doc, "u", (m,), bounds=True),
            name=str(doc.get("name", "")),
            seed=int(doc.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    return QpProblem(**fields)


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and one ``os.replace``: a reader sees the old file (or none) or
    the whole new one, never a part, even while another process writes the
    same path."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_problem(prob: QpProblem, path) -> None:
    write_text_atomic(path, json.dumps(problem_to_dict(prob)))


def load_problem(path) -> QpProblem:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid problem file {path}: {exc}") from exc
    return problem_from_dict(doc)
