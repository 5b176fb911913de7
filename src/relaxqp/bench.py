"""Deterministic benchmark-family generators and reference solutions.

Six families, all emitted in the one problem form (P, q, A, l, u):

  random_qp  sparse-Gram cost, dense constraints, symmetric unit-scale boxes
  portfolio  factor-model risk with budget equality and long-only bounds
  lasso      least-squares + l1 via the epigraph reformulation
  svm        hinge-loss classifier on two Gaussian clouds
  control    condensed finite-horizon regulator (decision = input sequence)
  mpc        sparse-form regulator with fixed plant data; only the initial
             state differs between instances

The lasso and mpc generators, whose larger instances take the sparse
backend, build P and A as CSR matrices from the index arithmetic of their
blocks and never allocate the dense matrices.

Instance randomness comes from a splittable stream keyed by
(family, size, seed, field-tag), so every field has its own substream and
adding fields never reshuffles existing ones.  The mpc family draws its
shared plant data from a fixed key independent of the instance seed.
"""

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .engine import SolverConfig, init_state, solve
from .errors import InputError, ReferenceFailureError, SolverError
from .linalg import ldlt_solve
from .problem import (
    QpProblem,
    _is_integer,
    array_field,
    check_keys,
    load_problem,
    normal_cone_gap,
    objective,
    osqp_residuals,
    read_json_object,
    save_problem,
    write_atomic,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

FAMILIES = ("random_qp", "portfolio", "lasso", "svm", "control", "mpc")

# Training/validation sizes and test-size grids of the published protocol.
TRAIN_SIZES = {"random_qp": 250, "portfolio": 20, "lasso": 20, "svm": 20, "control": 100}
TEST_GRIDS = {
    "random_qp": (500, 501, 503, 507, 515, 531, 562, 625, 750, 999),
    "control": (200, 201, 203, 205, 210, 219, 235, 262, 311, 399),
    "portfolio": (50, 51, 52, 54, 58, 63, 72, 87, 110, 149),
    "lasso": (50, 51, 52, 54, 58, 63, 72, 87, 110, 149),
    "svm": (50, 51, 52, 54, 58, 63, 72, 87, 110, 149),
}

# Small sizes for this package's own test and verification harness.
DESK_SIZES = {
    "random_qp": (5, 8, 10, 15, 20, 30, 50),
    "portfolio": (10, 15, 20, 30, 50),
    "lasso": (10, 15, 20, 30, 50),
    "svm": (10, 15, 20, 30, 50),
    "control": (5, 10, 15, 20, 30, 50),
    "mpc": (100,),
}

MPC_HORIZON = 10
MPC_STATE_DIM = 100
MPC_INPUT_DIM = 50


def documented_grid(family: str) -> tuple:
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r} (choose from {FAMILIES})")
    sizes = set(DESK_SIZES[family])
    sizes.update(TEST_GRIDS.get(family, ()))
    if family in TRAIN_SIZES:
        sizes.add(TRAIN_SIZES[family])
    return tuple(sorted(sizes))


@dataclass(frozen=True)
class FamilySpec:
    family: str
    size: int
    seed: int
    split: str = "test"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if self.size not in documented_grid(self.family):
            raise InputError(
                f"size {self.size} not in the documented grid for {self.family!r}: "
                f"{documented_grid(self.family)}"
            )
        if self.split not in ("train", "val", "test"):
            raise InputError(f"unknown split {self.split!r}")

    @property
    def name(self) -> str:
        return f"{self.family}_n{self.size}_s{self.seed}"


def _rng(family: str, size: int, seed: int, tag: str) -> np.random.Generator:
    key = f"relaxqp|{family}|{size}|{seed}|{tag}".encode()
    digest = hashlib.sha256(key).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words.tolist())))


def _stable_matrix(rng: np.random.Generator, dim: int, radius: float = 0.98) -> np.ndarray:
    A = rng.uniform(-1.0, 1.0, size=(dim, dim))
    s = np.linalg.svd(A, compute_uv=False)
    return A * (radius / s[0])


def _gen_random_qp(size: int, seed: int) -> QpProblem:
    n = size
    m = math.ceil(n / 2)
    g = lambda tag: _rng("random_qp", size, seed, tag)
    M = g("P").standard_normal((n, n))
    M *= g("Pmask").uniform(size=(n, n)) < 0.15
    P = M.T @ M + 1e-2 * np.eye(n)
    q = g("q").standard_normal(n)
    A = g("A").standard_normal((m, n))
    l = -g("l").uniform(size=m)
    u = g("u").uniform(size=m)
    return QpProblem(P, q, A, l, u, name=f"random_qp_n{size}_s{seed}", seed=seed)


def _gen_portfolio(size: int, seed: int) -> QpProblem:
    n = size
    k = math.ceil(size / 10)
    g = lambda tag: _rng("portfolio", size, seed, tag)
    d_diag = g("D").uniform(0.0, 1.0, size=n) * np.sqrt(k)
    F = g("F").standard_normal((n, k))
    F[g("Fmask").uniform(size=(n, k)) >= 0.5] = 0.0  # F *= mask would store -0.0
    mu = g("mu").standard_normal(n)

    dim = n + k
    P = np.zeros((dim, dim))
    P[:n, :n] = 2.0 * np.diag(d_diag)
    P[n:, n:] = 2.0 * np.eye(k)
    q = np.concatenate((-mu, np.zeros(k)))

    m = k + 1 + n
    A = np.zeros((m, dim))
    A[:k, :n] = F.T
    np.fill_diagonal(A[:k, n:], -1.0)  # -np.eye would store -0.0 off the diagonal
    A[k, :n] = 1.0
    A[k + 1 :, :n] = np.eye(n)
    l = np.concatenate((np.zeros(k), [1.0], np.zeros(n)))
    u = np.concatenate((np.zeros(k), [1.0], np.ones(n)))
    return QpProblem(P, q, A, l, u, name=f"portfolio_n{size}_s{seed}", seed=seed)


def _dense_block(row: int, col: int, M: np.ndarray) -> tuple:
    # (rows, cols, values) of every entry of M, zeros included, placed at
    # (row, col).
    rows, cols = np.indices(M.shape, dtype=np.int32)
    return rows.ravel() + row, cols.ravel() + col, M.ravel()


def _diagonal_block(row: int, col: int, k: int, values) -> tuple:
    # (rows, cols, values) of the k x k diagonal matrix of values (a number
    # or k of them) placed at (row, col).
    steps = np.arange(k, dtype=np.int32)
    return steps + row, steps + col, np.full(k, values)


def _csr(shape: tuple, *blocks) -> "csr_array":
    # The CSR matrix of the (rows, cols, values) blocks, which do not overlap.
    # Their index arrays are int32, the index type of the problem's CSR copy:
    # int64 ones would double the temporaries of a set-up.
    from scipy.sparse import csr_array

    rows, cols, values = (np.concatenate(part) for part in zip(*blocks))
    return csr_array((values, (rows, cols)), shape=shape)


def _gen_lasso(size: int, seed: int) -> QpProblem:
    n = size
    md = 10 * n
    g = lambda tag: _rng("lasso", size, seed, tag)
    Ad = g("design").standard_normal((md, n))
    x_true = g("truth").standard_normal(n)
    x_true *= g("support").uniform(size=n) < 0.1
    b = Ad @ x_true + 0.01 * g("noise").standard_normal(md)
    lam = 0.2 * np.max(np.abs(Ad.T @ b))

    dim = n + md + n  # (x, residual, epigraph bound)
    P = _csr((dim, dim), _diagonal_block(n, n, md, 1.0))
    q = np.concatenate((np.zeros(n + md), lam * np.ones(n)))

    m = md + 2 * n
    A = _csr(
        (m, dim),
        _dense_block(0, 0, Ad), _diagonal_block(0, n, md, -1.0),  # Ad x - r = b
        _diagonal_block(md, 0, n, 1.0), _diagonal_block(md, n + md, n, -1.0),  # x - t <= 0
        _diagonal_block(md + n, 0, n, 1.0), _diagonal_block(md + n, n + md, n, 1.0),  # x + t >= 0
    )
    l = np.concatenate((b, np.full(n, -np.inf), np.zeros(n)))
    u = np.concatenate((b, np.zeros(n), np.full(n, np.inf)))
    return QpProblem(P, q, A, l, u, name=f"lasso_n{size}_s{seed}", seed=seed)


def _gen_svm(size: int, seed: int) -> QpProblem:
    n = size
    md = 3 * n
    g = lambda tag: _rng("svm", size, seed, tag)
    center = g("center").standard_normal(n)
    center /= np.linalg.norm(center)
    labels = np.where(np.arange(md) < md // 2, 1.0, -1.0)
    X = labels[:, None] * center + g("X").standard_normal((md, n))
    c_hinge = 1.0 / md

    dim = n + md
    P = np.zeros((dim, dim))
    P[:n, :n] = np.eye(n)
    q = np.concatenate((np.zeros(n), c_hinge * np.ones(md)))

    m = 2 * md
    A = np.zeros((m, dim))
    A[:md, :n] = labels[:, None] * X
    A[:md, n:] = np.eye(md)
    A[md:, n:] = np.eye(md)
    l = np.concatenate((np.ones(md), np.zeros(md)))
    u = np.full(m, np.inf)
    return QpProblem(P, q, A, l, u, name=f"svm_n{size}_s{seed}", seed=seed)


def _gen_control(size: int, seed: int) -> QpProblem:
    nx = size
    nu = math.ceil(size / 2)
    T = 10
    g = lambda tag: _rng("control", size, seed, tag)
    Ad = _stable_matrix(g("A"), nx)
    Bd = g("B").uniform(-1.0, 1.0, size=(nx, nu))
    r_cost = 0.1  # input cost 0.1*I; the state cost is I
    x0 = g("x0").uniform(-0.5, 0.5, size=nx)
    u_lim = 0.8
    x_lim = 5.0

    # Constraints: the inputs U, then the states x_1..x_T = Phi x0 + G U,
    # whose prediction matrix G is written in place as A's state rows.
    n = T * nu
    m = n + T * nx
    A = np.zeros((m, n))
    np.fill_diagonal(A[:n], 1.0)
    G = A[n:]
    Phi = np.zeros((T * nx, nx))
    Ak = np.eye(nx)
    for t in range(T):
        Ak = Ad @ Ak
        Phi[t * nx : (t + 1) * nx] = Ak
    block = Bd  # Ad^k Bd, the block of G k steps below its diagonal
    for k in range(T):
        for t in range(T - k):
            G[(t + k) * nx : (t + k + 1) * nx, t * nu : (t + 1) * nu] = block
        block = Ad @ block

    # Cost U'(G'G + r_cost*I)U + 2(G'Phi x0)'U: with an identity state cost
    # the condensed products need no state-cost matrix.  G' is copied so
    # that G'G is a general matrix product: numpy computes G.T @ G on one
    # buffer as a symmetric rank-k update, which rounds differently.
    P = np.ascontiguousarray(G.T) @ G
    P.flat[:: n + 1] += r_cost
    P += P.T
    P *= 0.5
    free = Phi @ x0
    q = G.T @ free

    l = np.concatenate((np.full(n, -u_lim), -x_lim * np.ones(T * nx) - free))
    u = np.concatenate((np.full(n, u_lim), x_lim * np.ones(T * nx) - free))
    return QpProblem(P, q, A, l, u, name=f"control_n{size}_s{seed}", seed=seed)


@cache
def _mpc_shared_data():
    # Computed once per process; its arrays are read-only.
    nx, nu = MPC_STATE_DIM, MPC_INPUT_DIM
    g = lambda tag: _rng("mpc", nx, 0, "shared-" + tag)
    Ad = _stable_matrix(g("A"), nx)
    Bd = g("B").uniform(-1.0, 1.0, size=(nx, nu))
    q_diag = g("Q").uniform(0.5, 1.5, size=nx)
    r_diag = g("R").uniform(0.05, 0.15, size=nu)
    qt_diag = q_diag.copy()
    for a in (Ad, Bd, q_diag, r_diag, qt_diag):
        a.flags.writeable = False
    # u = 0 keeps the contracting state inside the (loose) state box from any
    # admissible x0, so the input box can be tight enough to be active at the
    # optimum without risking infeasibility.
    x_lim = 5.0
    u_lim = 0.02
    return Ad, Bd, q_diag, r_diag, qt_diag, x_lim, u_lim


def _gen_mpc(size: int, seed: int) -> QpProblem:
    nx, nu, T = MPC_STATE_DIM, MPC_INPUT_DIM, MPC_HORIZON
    Ad, Bd, q_diag, r_diag, qt_diag, x_lim, u_lim = _mpc_shared_data()
    x0 = _rng("mpc", size, seed, "x0").uniform(-0.5, 0.5, size=nx)

    # Decision: (x_0 .. x_T, u_0 .. u_{T-1}).
    n = (T + 1) * nx + T * nu
    off_u = (T + 1) * nx
    p_diag = np.concatenate((np.tile(q_diag, T), qt_diag, np.tile(r_diag, T)))
    P = _csr((n, n), _diagonal_block(0, 0, n, p_diag))
    q = np.zeros(n)

    # Rows: the initial state x_0 = x0, the dynamics x_{t+1} - Ad x_t -
    # Bd u_t = 0, the state box on x_1 .. x_T and the input box.
    dyn, box, inputs = nx, nx + T * nx, nx + 2 * T * nx
    m = inputs + T * nu
    neg_Ad, neg_Bd = -Ad, -Bd
    blocks = [_diagonal_block(0, 0, nx, 1.0)]
    for t in range(T):
        row = dyn + t * nx
        blocks += (_dense_block(row, t * nx, neg_Ad), _diagonal_block(row, (t + 1) * nx, nx, 1.0),
                   _dense_block(row, off_u + t * nu, neg_Bd))
    blocks += (_diagonal_block(box, nx, T * nx, 1.0), _diagonal_block(inputs, off_u, T * nu, 1.0))
    A = _csr((m, n), *blocks)
    l = np.concatenate((x0, np.zeros(T * nx), np.full(T * nx, -x_lim), np.full(T * nu, -u_lim)))
    u = np.concatenate((x0, np.zeros(T * nx), np.full(T * nx, x_lim), np.full(T * nu, u_lim)))
    return QpProblem(P, q, A, l, u, name=f"mpc_n{size}_s{seed}", seed=seed)


_GENERATORS = {
    "random_qp": _gen_random_qp,
    "portfolio": _gen_portfolio,
    "lasso": _gen_lasso,
    "svm": _gen_svm,
    "control": _gen_control,
    "mpc": _gen_mpc,
}


def generate(spec: FamilySpec) -> QpProblem:
    """Deterministic instance for (family, size, seed)."""
    return _GENERATORS[spec.family](spec.size, spec.seed)


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    lambda_star: np.ndarray
    objective: float
    kkt_error: float


REFERENCE_KKT_TOL = 1e-8
REFERENCE_EPS = 1e-9  # tolerance of the fallback solve
REFERENCE_MAX_ITER = 200000
POLISH_EPS = 1e-3  # tolerance of the solve whose active set is polished
POLISH_DELTA = 1e-6  # regularisation of the polish's KKT factor
POLISH_REFINE_STEPS = 3
POLISH_ROUNDS = 3  # polishes at most, each on the active set of the last point
# The reduced QP has only equality rows, whose penalty is EQUALITY_RHO_FACTOR
# * rho0 = 1e6 = 1 / POLISH_DELTA, so its ADMM KKT matrix is the polish's
# regularised matrix.
_POLISH_CFG = SolverConfig(rho0=1e3, sigma=POLISH_DELTA)


def _kkt_parts(prob: QpProblem, x: np.ndarray, z: np.ndarray, y: np.ndarray) -> tuple:
    # (primal, dual, normal-cone) residuals, infinity norms.
    res = osqp_residuals(prob, x, z, y)
    return res.r_prim_inf, res.r_dual_inf, float(normal_cone_gap(prob, z, y))


def _active_set(prob: QpProblem, v: np.ndarray, y: np.ndarray) -> tuple:
    """(upper, act) of OSQP's active set at constraint values v and
    multipliers y: a row is active at its lower bound where v - l < -y, at
    its upper bound (``upper``) where u - v < y, and always when it is an
    equality row; an infinite bound is never active.  ``act`` holds the
    active rows in order."""
    upper = prob.u - v < y
    return upper, np.flatnonzero(upper | (v - prob.l < -y) | prob.equality)


def _polish(prob: QpProblem, x: np.ndarray, y: np.ndarray, upper: np.ndarray,
            act: np.ndarray) -> tuple:
    """(x, y) solving the equality-constrained QP of the active rows ``act``,
    as OSQP's solution polishing (Stellato et al., Math. Prog. Comp. 2020,
    sec. 5.2).  The system

        [[P, A_act'], [A_act, 0]] [x; y_act] = [-q; b_act]

    is solved from the given (x, y) by steps on its residual, each a solve
    with one factor of its regularised reduced matrix P + delta*I +
    A_act' A_act / delta: the engine's set-up factor of the reduced QP.
    Where the active rows fix x with multipliers to spare, the steps leave
    the spare part of y as given, so a start near a multiplier of the right
    signs stays near it.  y is 0 off the active set."""
    b = np.where(upper, prob.u, prob.l)[act]
    reduced = QpProblem(P=prob.operators[2], q=prob.q, A=prob.operators[0][act], l=b, u=b,
                        name=prob.name)
    state = init_state(reduced, _POLISH_CFG)
    A_act, AT_act, P = reduced.operators
    x, y_act = x.copy(), y[act]
    for _ in range(1 + POLISH_REFINE_STEPS):
        # The step (dx, dy) solves the regularised system for the exact
        # system's residual: dy = R (A dx - r_y) eliminated.
        r_x = -prob.q - P.dot(x) - AT_act.dot(y_act)
        r_y = b - A_act.dot(x)
        dx = ldlt_solve(state.kkt, r_x + AT_act.dot(state.R * r_y))
        x += dx
        y_act += state.R * (A_act.dot(dx) - r_y)
    y = np.zeros(prob.m)
    y[act] = y_act
    return x, y


def reference_solution(prob: QpProblem) -> ReferenceSolution:
    """The primal-dual optimum used for training and verification.

    A solve to eps = POLISH_EPS (adaptive penalty, fixed relaxation
    ``alpha0``) gives the active set of its (z, y), and :func:`_polish`
    solves the QP of that set, starting from the solve's (x, y).  The
    polished point, with z = clip(Ax, l, u), is kept when its KKT error,
    the largest of the primal residual |Ax - z|, the dual residual
    |Px + q + A'y| and the normal-cone residual
    :func:`~relaxqp.problem.normal_cone_gap`, is at most REFERENCE_KKT_TOL.  Otherwise the active set of (Ax, y) at
    the polished point, which takes in the rows x violates and drops the
    multipliers of the wrong sign, is polished from that point, up to
    POLISH_ROUNDS polishes in all.  When none is kept, the set repeats or a
    polish raises a SolverError, a solve to eps = REFERENCE_EPS from the
    same cold start gives the reference, and ReferenceFailureError is
    raised when it stops at max_iter or misses the tolerance, naming each
    KKT part.  The first solve takes the same iterates as the second up to
    its stop, so when it stops at max_iter the second would too, and the
    error is raised at once.
    """
    cfg = SolverConfig(eps_abs=POLISH_EPS, eps_rel=POLISH_EPS, adaptive_rho=True,
                       max_iter=REFERENCE_MAX_ITER)
    report = solve(prob, cfg, policy=None)
    if report.status == "solved":
        x, y = report.x, report.y
        upper, act = _active_set(prob, report.z, y)
        for _ in range(POLISH_ROUNDS):
            try:
                x, y = _polish(prob, x, y, upper, act)
            except SolverError:
                break
            Ax = prob.operators[0].dot(x)
            kkt_error = max(_kkt_parts(prob, x, np.clip(Ax, prob.l, prob.u), y))
            if kkt_error <= REFERENCE_KKT_TOL:
                return ReferenceSolution(x_star=x, lambda_star=y,
                                         objective=objective(prob, x), kkt_error=kkt_error)
            next_upper, next_act = _active_set(prob, Ax, y)
            if np.array_equal(next_act, act) and np.array_equal(next_upper[act], upper[act]):
                break
            upper, act = next_upper, next_act
        cfg = replace(cfg, eps_abs=REFERENCE_EPS, eps_rel=REFERENCE_EPS)
        report = solve(prob, cfg, policy=None)
    if report.status != "solved":
        raise ReferenceFailureError(
            f"reference solve hit max_iter={cfg.max_iter} on {prob.name!r}"
        )
    parts = _kkt_parts(prob, report.x, report.z, report.y)
    kkt_error = max(parts)
    if kkt_error > REFERENCE_KKT_TOL:
        raise ReferenceFailureError(
            f"reference KKT error {kkt_error:.3e} above {REFERENCE_KKT_TOL} on {prob.name!r} "
            "(primal {:.3e}, dual {:.3e}, normal cone {:.3e})".format(*parts)
        )
    return ReferenceSolution(
        x_star=report.x, lambda_star=report.y, objective=report.objective, kkt_error=kkt_error
    )


def reference_to_dict(ref: ReferenceSolution) -> dict:
    return {
        "x_star": ref.x_star.tolist(),
        "lambda_star": ref.lambda_star.tolist(),
        "objective": ref.objective,
        "kkt_error": ref.kkt_error,
    }


def reference_from_dict(doc: dict, n: int, m: int) -> ReferenceSolution:
    """The reference solution of a problem with n variables and m rows."""
    try:
        # Every field is looked up before any is decoded, so a missing field
        # is reported as missing rather than as a length mismatch of another.
        doc = {k: doc[k] for k in ("x_star", "lambda_star", "objective", "kkt_error")}
        return ReferenceSolution(
            x_star=array_field(doc, "x_star", (n,)),
            lambda_star=array_field(doc, "lambda_star", (m,)),
            objective=float(doc["objective"]),
            kkt_error=float(doc["kkt_error"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed reference solution: {exc}") from exc


# ---------------------------------------------------------------------------
# Instance store and manifests


def spec_from_dict(doc: dict, **fixed) -> FamilySpec:
    """The spec of a manifest entry, an object with the keys family, size,
    seed and, optionally, split; size and seed must be JSON integers.  The
    keys given as ``fixed`` are the spec's and refused in the entry."""
    keys = [k for k in ("family", "size", "seed", "split") if k not in fixed]
    check_keys(doc, "family spec", keys, [k for k in keys if k != "split"])
    for key in ("size", "seed"):
        if not _is_integer(doc[key]):
            raise InputError(f"malformed family spec: field {key!r} must be an integer, "
                             f"got {doc[key]!r}")
    return FamilySpec(**doc, **fixed)


def manifest_specs(where: str, lists: dict) -> list:
    """The specs of a manifest's entry lists, each checked before any
    instance is generated: ``lists`` maps the field of each list to its
    entries and the keys every spec of that list is given (see
    :func:`spec_from_dict`).  Every error is led by ``where``, the manifest
    file, and names the field and the index of the entry.  Seeds must be
    disjoint across the splits of each family."""
    specs = []
    for key, (entries, fixed) in lists.items():
        if not isinstance(entries, list):
            raise InputError(f"{where}: field {key!r} must be a list of objects")
        for i, d in enumerate(entries):
            if not isinstance(d, dict):
                raise InputError(f"{where}: field {key!r} must be a list of objects; "
                                 f"its entry {i}: {d!r} is not an object")
            try:
                specs.append(spec_from_dict(d, **fixed))
            except InputError as exc:
                raise type(exc)(f"{where}: field {key!r} entry {i}: {exc}") from exc
    seeds: dict = {}
    for s in specs:
        seeds.setdefault((s.family, s.split), set()).add(s.seed)
    for family in {s.family for s in specs}:
        splits = [seeds.get((family, sp), set()) for sp in ("train", "val", "test")]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = splits[i] & splits[j]
                if overlap:
                    raise InputError(
                        f"{where}: family {family!r}: splits share seeds {sorted(overlap)}"
                    )
    return specs


def load_manifest(path) -> list:
    """The specs of a manifest file, an object whose one key ``specs`` lists
    the entries (see :func:`manifest_specs`)."""
    doc = read_json_object(path, "manifest")
    where = f"manifest {path}"
    check_keys(doc, where, ("specs",), ("specs",))
    return manifest_specs(where, {"specs": (doc["specs"], {})})


def instance_dir(root, spec: FamilySpec) -> Path:
    return Path(root) / spec.family / f"size{spec.size}" / f"seed{spec.seed}"


def store_instance(root, spec: FamilySpec, prob: QpProblem, ref: ReferenceSolution | None) -> Path:
    d = instance_dir(root, spec)
    d.mkdir(parents=True, exist_ok=True)
    save_problem(prob, d / "problem.json")
    if ref is not None:
        write_atomic(d / "reference.json", json.dumps(reference_to_dict(ref)))
    return d


def ensure_instance(root, spec: FamilySpec, with_reference: bool = False):
    """Load the stored instance, generating (and reference-solving) on demand."""
    d = instance_dir(root, spec)
    prob_path = d / "problem.json"
    ref_path = d / "reference.json"
    if prob_path.exists():
        prob = load_problem(prob_path)
    else:
        prob = generate(spec)
        store_instance(root, spec, prob, None)
    ref = None
    if with_reference:
        if ref_path.exists():
            ref = reference_from_dict(read_json_object(ref_path, "reference file"), prob.n, prob.m)
        else:
            ref = reference_solution(prob)
            write_atomic(ref_path, json.dumps(reference_to_dict(ref)))
    return prob, ref


def default_desk_manifest() -> list:
    """The bundled desk-scale instance set covering all six families."""
    specs = []
    for family, picks in (
        ("random_qp", ((20, 1), (20, 2), (30, 3))),
        ("portfolio", ((10, 1), (10, 2), (20, 3))),
        ("lasso", ((10, 1), (10, 2), (20, 3))),
        ("svm", ((10, 1), (10, 2), (20, 3))),
        ("control", ((10, 1), (10, 2), (20, 3))),
        ("mpc", ((100, 1), (100, 2))),
    ):
        for size, seed in picks:
            specs.append(FamilySpec(family=family, size=size, seed=seed, split="test"))
    return specs
