"""Problem data model: box-constrained QPs, residuals and termination.

A problem is  minimize 0.5 x'Px + q'x  subject to  l <= Ax <= u,  with
entries of l, u allowed to be -inf/+inf.  File storage encodes infinities
with the +-1e30 sentinel common to QP solver interfaces.

:func:`osqp_residuals` is the one place that forms A x, P x and A'y for an
iterate: it returns the residuals together with OSQP's stopping scales, which
the stopping rule and the solver's penalty update read instead of forming the
products again.
"""

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import InfeasibleBoundsError, InputError

INFINITY_SENTINEL = 1e30


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
    Ax, Px, ATy = prob.A @ x, prob.P @ x, prob.A.T @ y
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


def _encode_bounds(v: np.ndarray) -> list:
    out = v.copy()
    out[np.isposinf(out)] = INFINITY_SENTINEL
    out[np.isneginf(out)] = -INFINITY_SENTINEL
    return out.tolist()


def _decode_bounds(v) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64).copy()
    out[out >= INFINITY_SENTINEL] = np.inf
    out[out <= -INFINITY_SENTINEL] = -np.inf
    return out


def problem_to_dict(prob: QpProblem) -> dict:
    return {
        "name": prob.name,
        "n": prob.n,
        "m": prob.m,
        "P": prob.P.ravel().tolist(),
        "q": prob.q.tolist(),
        "A": prob.A.ravel().tolist(),
        "l": _encode_bounds(prob.l),
        "u": _encode_bounds(prob.u),
        "seed": prob.seed,
    }


def array_field(doc: dict, key: str, shape: tuple) -> np.ndarray:
    """``doc[key]`` as a float array of ``shape``; an entry count that does
    not fit the shape is an InputError naming the field."""
    flat = np.asarray(doc[key], dtype=np.float64)
    if flat.size != math.prod(shape):
        raise InputError(
            f"field {key!r} has {flat.size} entries, expected {'x'.join(map(str, shape))}"
        )
    return flat.reshape(shape)


def problem_from_dict(doc: dict) -> QpProblem:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        fields = dict(
            P=array_field(doc, "P", (n, n)),
            q=np.asarray(doc["q"], dtype=np.float64),
            A=array_field(doc, "A", (m, n)),
            l=_decode_bounds(doc["l"]),
            u=_decode_bounds(doc["u"]),
            name=str(doc.get("name", "")),
            seed=int(doc.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    return QpProblem(**fields)


def save_problem(prob: QpProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(prob), fh)


def load_problem(path) -> QpProblem:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid problem file {path}: {exc}") from exc
    return problem_from_dict(doc)
