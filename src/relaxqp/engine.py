"""Matrix-valued relaxed ADMM loop in OSQP form.

One iteration, starting from (x_k, z_k, y_k):

    solve  (P + sigma*I + A' diag(rho) A) xt = sigma*x_k - q + A'(rho*z_k - y_k)
    zt      = A xt
    x_{k+1} = ax * xt + (1 - ax) * x_k
    w       = g * zt + (1 - g) * z_k          (per-constraint relaxation g)
    z_{k+1} = clip(w + y_k/rho, l, u)
    y_{k+1} = y_k + rho * (w - z_{k+1})

where rho is the per-constraint penalty vector (entries 1e3*rho on equality
rows, l == u finite, and rho on the rest) and g the per-constraint
relaxation vector.  The penalty changes only through the residual-balancing
heuristic, which triggers a refactorization; the relaxation vector can
change freely at stage boundaries without touching the factorization.  The
first line is OSQP's reduced form of the quasi-definite KKT system
[[P + sigma*I, A'], [A, -diag(1/rho)]] [xt; nu] = [sigma*x_k - q; z_k - y_k/rho]
(see :mod:`relaxqp.linalg`); its matrix is positive definite and its factor
is cached.  Every factorization assembles the matrix through the problem's
:attr:`~relaxqp.problem.QpProblem.kkt_terms`, so after the problem's first
one a penalty update refills it from data the problem already holds.  The
products with A, A' and P go through the problem's
:attr:`~relaxqp.problem.QpProblem.operators`, dense arrays or CSR copies
depending on the problem's :attr:`~relaxqp.problem.QpProblem.kkt_backend`,
and are formed as ``A.dot(x)``: for an ndarray the same BLAS call as
``A @ x`` with less call overhead, for a CSR matrix ``A @ x`` itself.  Each
product is formed on its own: stacking [A; P] x, or applying A' to two
vectors at once, rounds differently.

Apart from the x-step, an iteration forms A x, P x and A'y once, in
:func:`relaxqp.problem.osqp_residuals`, which also returns the stopping
scales; the stopping rule and the penalty update read those scales.

This module holds the solver only.  The theory verifier (:mod:`relaxqp.verify`)
records its trajectories through the observer of :func:`solve`; an observer
may keep references to the state's arrays (see :class:`SolverState`).  A
relaxation policy is any object with ``propose(prob, state, res, res_prev,
cfg) -> (gamma, alpha_x or None)``: it reads the :class:`SolverState` at a
stage boundary, after that boundary's penalty update, and never writes it;
:func:`apply_policy` stores what it proposes.
"""

import math
import numbers
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import DivergenceError, InputError, PolicyError
from .linalg import LdltFactor, assemble_kkt, ldlt_factor, ldlt_solve
from .problem import (
    QpProblem,
    Residuals,
    objective,
    osqp_residuals,
    read_json_object,
    terminated,
)

RHO_MIN = 1e-6
RHO_MAX = 1e6
EQUALITY_RHO_FACTOR = 1e3
RHO_TRIGGER_FACTOR = 5.0
# Floating-point errors ignored while the iteration runs: a diverging iterate
# overflows before iterate_once reports it as a DivergenceError.
ITERATE_ERRSTATE = {"invalid": "ignore", "over": "ignore"}


@dataclass(frozen=True)
class SolverConfig:
    rho0: float = 0.1
    adaptive_rho: bool = True
    alpha0: float = 1.6
    alpha_min: float = 1.25
    alpha_max: float = 1.95
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    max_iter: int = 20000
    stage_length: int = 10
    freeze_iter: int = 500
    rho_check_interval: int = 25
    sigma: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")
        if not (0.0 < self.alpha_min <= self.alpha_max < 2.0):
            raise InputError("relaxation bounds must satisfy 0 < alpha_min <= alpha_max < 2")
        if not (self.alpha_min <= self.alpha0 <= self.alpha_max):
            raise InputError("alpha0 must lie in [alpha_min, alpha_max]")
        check_positive_finite(self, ("rho0", "sigma", "eps_abs", "eps_rel"))
        if self.stage_length < 1 or self.rho_check_interval < 1:
            raise InputError("intervals must be positive")


def check_field_types(cfg) -> None:
    """InputError naming the first field of the dataclass ``cfg`` whose value
    is not a number of its declared type (an int field takes integers)."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not isinstance(value, numbers.Integral if f.type in (bool, int) else numbers.Real):
            raise InputError(f"config field {f.name!r} must be {f.type.__name__}, got {value!r}")


def check_positive_finite(cfg, names) -> None:
    """InputError naming the first of the fields ``names`` of ``cfg`` whose
    value is not finite and > 0."""
    for name in names:
        value = getattr(cfg, name)
        if not 0 < value <= sys.float_info.max:  # NaN and ints too big for a float fail
            raise InputError(f"config field {name!r} must be finite and > 0, got {value!r}")


def config_from_dict(doc: dict, cls=SolverConfig):
    """``cls(**doc)`` for a config dataclass (``SolverConfig`` or
    ``TrainConfig``); an unknown key is an InputError naming it."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise InputError(f"unknown config fields: {sorted(unknown)}")
    return cls(**doc)


def load_config(path) -> SolverConfig:
    return config_from_dict(read_json_object(path, "config file"))


def rho_pattern(equality: np.ndarray, rho: float) -> np.ndarray:
    """Per-constraint penalty: 1e3*rho on the rows of the equality mask, rho
    on the rest, all clamped to [RHO_MIN, RHO_MAX]."""
    vals = np.full(equality.shape, rho, dtype=np.float64)
    vals[equality] = EQUALITY_RHO_FACTOR * rho
    return np.clip(vals, RHO_MIN, RHO_MAX)


@dataclass
class SolverState:
    """Iterate and parameters of a running solve.  No step, penalty update or
    policy query writes into an array the state holds; each binds a new one,
    so an observer may keep references to them rather than copies.  A step's
    x, z and y are views of one new array of n + 2m entries (x first, then z,
    then y).  A step reads x, z and y as bound, so other code may bind them
    to arrays of their own."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    iter: int
    R: np.ndarray  # per-constraint penalty, in [RHO_MIN, RHO_MAX]
    Gamma: np.ndarray  # per-constraint relaxation, in [alpha_min, alpha_max]
    alpha_x: float
    kkt: LdltFactor
    rho_scalar: float
    rho_updates: int = 0
    n_factorizations: int = 1
    # Unrelaxed KKT-solve outputs of the most recent iteration, kept for the
    # convergence-theory residuals and the recorded trajectories.
    x_tilde: np.ndarray | None = None
    z_tilde: np.ndarray | None = None


@dataclass(frozen=True)
class SolveReport:
    status: str  # "solved" | "max_iter"
    kkt_backend: str  # "dense" | "sparse"
    iterations: int
    rho_updates: int
    factorizations: int
    runtime_seconds: float
    residual_history: list
    objective: float
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    # Wall time of the policy queries, features included, and their number
    # (none at or after freeze_iter): set against runtime_seconds and
    # iterations, the break-even of a learned policy.
    policy_seconds: float = 0.0
    policy_queries: int = 0


def report_to_dict(rep: SolveReport) -> dict:
    doc = {f.name: getattr(rep, f.name) for f in fields(rep)}
    for key in ("x", "z", "y"):
        doc[key] = doc[key].tolist()
    doc["residual_history"] = [[int(i), float(rp), float(rd)] for i, rp, rd in rep.residual_history]
    return doc


def init_state(prob: QpProblem, cfg: SolverConfig) -> SolverState:
    """Cold start at x = z = y = 0 with one KKT factorization.

    A singular KKT system surfaces as a setup-time SingularKktError.
    """
    r_vals = rho_pattern(prob.equality, cfg.rho0)
    kkt = _factor_kkt(prob, cfg, r_vals)
    gamma = np.full(prob.m, cfg.alpha0, dtype=np.float64)
    return SolverState(
        x=np.zeros(prob.n),
        z=np.zeros(prob.m),
        y=np.zeros(prob.m),
        iter=0,
        R=r_vals,
        Gamma=gamma,
        alpha_x=cfg.alpha0,
        kkt=kkt,
        rho_scalar=float(np.clip(cfg.rho0, RHO_MIN, RHO_MAX)),
    )


def refactor(state: SolverState, prob: QpProblem, cfg: SolverConfig) -> None:
    """Rebuild and refactor the KKT system for the current penalty vector."""
    state.kkt = _factor_kkt(prob, cfg, state.R)
    state.n_factorizations += 1


def _factor_kkt(prob: QpProblem, cfg: SolverConfig, r_vals: np.ndarray) -> LdltFactor:
    # Through the problem's KKT terms, which refill H when r_vals has
    # rho_pattern's two levels.
    A, _, P = prob.operators
    return ldlt_factor(assemble_kkt(P, A, cfg.sigma, r_vals, prob.kkt_terms))


def iterate_once(state: SolverState, prob: QpProblem, cfg: SolverConfig) -> SolverState:
    """Advance the iterate tuple by one step (mutates and returns state).

    Overflow and invalid operations on the way to a divergence are expected:
    callers that step many times (:func:`solve`, the drift runs) do so under
    one ``np.errstate(**ITERATE_ERRSTATE)``.
    """
    r = state.R
    g = state.Gamma
    x_k, z_k, y_k = state.x, state.z, state.y
    A, AT, _ = prob.operators
    n, m = x_k.size, z_k.size

    rhs = cfg.sigma * x_k - prob.q + AT.dot(r * z_k - y_k)
    x_tilde = ldlt_solve(state.kkt, rhs)
    z_tilde = A.dot(x_tilde)

    # x_{k+1}, z_{k+1} and y_{k+1} are views of one new array, written in
    # place in the docstring's order of operations; only the operands of a
    # sum or a product are swapped, which leaves every bit the same.
    new = np.empty(n + 2 * m)
    x_next, z_next, y_next = new[:n], new[n : n + m], new[n + m :]
    np.multiply(state.alpha_x, x_tilde, out=x_next)
    x_next += (1.0 - state.alpha_x) * x_k
    w = g * z_tilde + (1.0 - g) * z_k
    np.divide(y_k, r, out=z_next)
    z_next += w
    np.maximum(z_next, prob.l, out=z_next)  # clip(., l, u), bit for bit
    np.minimum(z_next, prob.u, out=z_next)
    np.subtract(w, z_next, out=y_next)
    y_next *= r
    y_next += y_k
    # A finite sum means every entry is finite; a sum that overflows is
    # settled by the exact test.
    if not (math.isfinite(np.add.reduce(new)) or np.isfinite(new).all()):
        raise DivergenceError(state.iter + 1)

    state.x_tilde, state.z_tilde = x_tilde, z_tilde
    state.x, state.z, state.y = x_next, z_next, y_next
    state.iter += 1
    return state


def maybe_update_rho(
    state: SolverState, res: Residuals, prob: QpProblem, cfg: SolverConfig
) -> tuple[SolverState, bool]:
    """Residual-balancing penalty update; refactors the KKT system when the
    candidate differs from the current value by the trigger factor.  ``res``
    must be the residuals of the current iterate; their scales normalize the
    residuals."""
    rp = res.r_prim_inf / max(res.prim_scale, 1e-10)
    rd = res.r_dual_inf / max(res.dual_scale, 1e-10)
    if rp <= 0.0 and rd <= 0.0:
        return state, False
    rp = max(rp, 1e-16)
    rd = max(rd, 1e-16)
    candidate = float(np.clip(state.rho_scalar * np.sqrt(rp / rd), RHO_MIN, RHO_MAX))
    ratio = candidate / state.rho_scalar
    if ratio >= RHO_TRIGGER_FACTOR or 1.0 / ratio >= RHO_TRIGGER_FACTOR:
        state.rho_scalar = candidate
        state.R = rho_pattern(prob.equality, candidate)
        refactor(state, prob, cfg)
        state.rho_updates += 1
        return state, True
    return state, False


def apply_policy(
    state: SolverState, policy, prob: QpProblem, res: Residuals, res_prev: Residuals,
    cfg: SolverConfig,
) -> SolverState:
    """Query the relaxation policy at a stage boundary and store its proposal.

    ``policy.propose(prob, state, res, res_prev, cfg)`` reads the state and
    never writes it; ``res_prev`` holds the previous boundary's residuals.
    A decision-space relaxation of None keeps the current one.  Non-finite
    policy output raises and leaves the state unchanged.
    """
    gamma, alpha_x = policy.propose(prob, state, res, res_prev, cfg)
    if alpha_x is None:
        alpha_x = state.alpha_x
    gamma = np.asarray(gamma, dtype=np.float64)
    if not (np.isfinite(gamma).all() and math.isfinite(alpha_x)):
        raise PolicyError(f"policy produced non-finite relaxation at iteration {state.iter}")
    # clip(gamma, alpha_min, alpha_max), bit for bit, into a new array
    gamma = np.maximum(gamma, cfg.alpha_min)
    state.Gamma = np.minimum(gamma, cfg.alpha_max, out=gamma)
    state.alpha_x = min(max(float(alpha_x), cfg.alpha_min), cfg.alpha_max)
    return state


def solve(
    prob: QpProblem, cfg: SolverConfig, policy=None, observer=None, recorder=None
) -> SolveReport:
    """Run the ADMM loop to termination or cfg.max_iter.

    ``observer(state, residuals)`` is called after every iteration (and once
    at iteration 0), before that iteration's penalty update and policy query;
    a :class:`relaxqp.verify.Trajectory` observer records every step for the
    theory verifier.  ``policy`` is queried through :func:`apply_policy` at
    every stage boundary before ``cfg.freeze_iter`` that the solve does not
    end on, after the boundary's penalty update, so the total relaxation
    drift stays finite.  ``recorder`` is accepted only as None.
    """
    if recorder is not None:
        raise InputError("solve takes no recorder; pass a verify.Trajectory as the observer")
    t0 = time.perf_counter()
    state = init_state(prob, cfg)
    res = osqp_residuals(prob, state.x, state.z, state.y)
    history = [(0, res.r_prim_inf, res.r_dual_inf)]
    stage_res = res
    if observer is not None:
        observer(state, res)

    status = "max_iter"
    policy_seconds = 0.0
    policy_queries = 0
    with np.errstate(**ITERATE_ERRSTATE):
        while state.iter < cfg.max_iter:
            iterate_once(state, prob, cfg)
            res = osqp_residuals(prob, state.x, state.z, state.y)
            history.append((state.iter, res.r_prim_inf, res.r_dual_inf))
            if observer is not None:
                observer(state, res)
            if terminated(res, cfg.eps_abs, cfg.eps_rel):
                status = "solved"
                break
            if cfg.adaptive_rho and state.iter % cfg.rho_check_interval == 0:
                maybe_update_rho(state, res, prob, cfg)
            if (policy is not None and state.iter % cfg.stage_length == 0
                    and state.iter < cfg.freeze_iter):
                t_query = time.perf_counter()
                apply_policy(state, policy, prob, res, stage_res, cfg)
                policy_seconds += time.perf_counter() - t_query
                policy_queries += 1
                stage_res = res

    runtime = time.perf_counter() - t0
    return SolveReport(
        status=status,
        kkt_backend=prob.kkt_backend,
        iterations=state.iter,
        rho_updates=state.rho_updates,
        factorizations=state.n_factorizations,
        runtime_seconds=runtime,
        residual_history=history,
        objective=objective(prob, state.x),
        x=state.x.copy(),
        z=state.z.copy(),
        y=state.y.copy(),
        policy_seconds=policy_seconds,
        policy_queries=policy_queries,
    )
