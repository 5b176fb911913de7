"""Matrix-valued relaxed ADMM loop in OSQP form.

One iteration, starting from (x_k, z_k, y_k):

    solve  (P + sigma*I + A' diag(rho) A) xt = sigma*x_k - q + A'(rho*z_k - y_k)
    zt      = A xt
    x_{k+1} = ax * xt + (1 - ax) * x_k
    w       = g * zt + (1 - g) * z_k          (per-constraint relaxation g)
    z_{k+1} = clip(w + y_k/rho, l, u)
    y_{k+1} = y_k + rho * (w - z_{k+1})

where rho is the per-constraint penalty vector (entries rho for inequality
rows, 1e3*rho for equality rows) and g the per-constraint relaxation vector.
The penalty changes only through the residual-balancing heuristic, which
triggers a refactorization; the relaxation vector can change freely at stage
boundaries without touching the factorization.  The first line is OSQP's
reduced form of the quasi-definite KKT system
[[P + sigma*I, A'], [A, -diag(1/rho)]] [xt; nu] = [sigma*x_k - q; z_k - y_k/rho]
(see :mod:`relaxqp.linalg`); its matrix is positive definite and is cached as
a Cholesky factor.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, PolicyError
from .linalg import LdltFactor, assemble_kkt, ldlt_factor, ldlt_solve
from .problem import ConstraintKind, QpProblem, Residuals, objective, osqp_residuals, terminated

RHO_MIN = 1e-6
RHO_MAX = 1e6
EQUALITY_RHO_FACTOR = 1e3
RHO_TRIGGER_FACTOR = 5.0


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
    # Test-only hook: set to "flip_relaxation_sign" to corrupt the relaxation
    # step so the verifier's fault-detection path can be exercised.
    fault_hook: str = ""

    def __post_init__(self):
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")
        if not (0.0 < self.alpha_min <= self.alpha_max < 2.0):
            raise InputError("relaxation bounds must satisfy 0 < alpha_min <= alpha_max < 2")
        if self.rho0 <= 0 or self.sigma <= 0:
            raise InputError("rho0 and sigma must be positive")
        if self.stage_length < 1 or self.rho_check_interval < 1:
            raise InputError("intervals must be positive")


def config_to_dict(cfg: SolverConfig) -> dict:
    doc = {
        "rho0": cfg.rho0,
        "adaptive_rho": cfg.adaptive_rho,
        "alpha0": cfg.alpha0,
        "alpha_min": cfg.alpha_min,
        "alpha_max": cfg.alpha_max,
        "eps_abs": cfg.eps_abs,
        "eps_rel": cfg.eps_rel,
        "max_iter": cfg.max_iter,
        "stage_length": cfg.stage_length,
        "freeze_iter": cfg.freeze_iter,
        "rho_check_interval": cfg.rho_check_interval,
        "sigma": cfg.sigma,
        "seed": cfg.seed,
    }
    if cfg.fault_hook:
        doc["fault_hook"] = cfg.fault_hook
    return doc


def config_from_dict(doc: dict) -> SolverConfig:
    known = {f for f in SolverConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"unknown config fields: {sorted(unknown)}")
    return SolverConfig(**doc)


def load_config(path) -> SolverConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid config file {path}: {exc}") from exc
    return config_from_dict(doc)


@dataclass
class DiagParams:
    """Positive diagonal matrix stored as a vector, with box invariants."""

    values: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.lo <= 0:
            raise InputError("diagonal lower bound must be positive")
        if self.lo > self.hi:
            raise InputError("diagonal bounds must satisfy lo <= hi")
        if np.any(self.values < self.lo) or np.any(self.values > self.hi):
            raise InputError("diagonal entries violate their bounds")

    def copy(self) -> "DiagParams":
        return DiagParams(self.values.copy(), self.lo, self.hi)


def rho_pattern(kinds: np.ndarray, rho: float) -> np.ndarray:
    """Per-constraint penalty: rho on inequality/loose rows, 1e3*rho on
    equality rows, all clamped to [RHO_MIN, RHO_MAX]."""
    vals = np.full(kinds.shape, rho, dtype=np.float64)
    vals[kinds == ConstraintKind.EQUALITY] = EQUALITY_RHO_FACTOR * rho
    return np.clip(vals, RHO_MIN, RHO_MAX)


@dataclass
class SolverState:
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    iter: int
    R: DiagParams
    Gamma: DiagParams
    alpha_x: float
    kkt: LdltFactor
    rho_scalar: float
    rho_updates: int = 0
    frozen: bool = False
    n_factorizations: int = 1
    # Unrelaxed KKT-solve outputs of the most recent iteration, kept for the
    # convergence-theory residuals and the trajectory recorder.
    x_tilde: np.ndarray | None = None
    z_tilde: np.ndarray | None = None
    x_prev: np.ndarray | None = None
    z_prev: np.ndarray | None = None
    R_prev_values: np.ndarray | None = None


@dataclass(frozen=True)
class SolveReport:
    status: str  # "solved" | "max_iter"
    iterations: int
    rho_updates: int
    factorizations: int
    runtime_seconds: float
    residual_history: list
    objective: float
    x: np.ndarray
    y: np.ndarray


def report_to_dict(rep: SolveReport) -> dict:
    return {
        "status": rep.status,
        "iterations": rep.iterations,
        "rho_updates": rep.rho_updates,
        "factorizations": rep.factorizations,
        "runtime_seconds": rep.runtime_seconds,
        "objective": rep.objective,
        "x": rep.x.tolist(),
        "y": rep.y.tolist(),
        "residual_history": [[int(i), float(rp), float(rd)] for i, rp, rd in rep.residual_history],
    }


def init_state(prob: QpProblem, cfg: SolverConfig) -> SolverState:
    """Cold start at x = z = y = 0 with one KKT factorization.

    A singular KKT system surfaces as a setup-time SingularKktError.
    """
    r_vals = rho_pattern(prob.kinds, cfg.rho0)
    kkt = ldlt_factor(assemble_kkt(prob.P, prob.A, cfg.sigma, r_vals))
    gamma = np.full(prob.m, cfg.alpha0, dtype=np.float64)
    return SolverState(
        x=np.zeros(prob.n),
        z=np.zeros(prob.m),
        y=np.zeros(prob.m),
        iter=0,
        R=DiagParams(r_vals, RHO_MIN, RHO_MAX),
        Gamma=DiagParams(gamma, cfg.alpha_min, cfg.alpha_max),
        alpha_x=cfg.alpha0,
        kkt=kkt,
        rho_scalar=float(np.clip(cfg.rho0, RHO_MIN, RHO_MAX)),
    )


def refactor(state: SolverState, prob: QpProblem, cfg: SolverConfig) -> None:
    """Rebuild and refactor the KKT system for the current penalty vector."""
    state.kkt = ldlt_factor(assemble_kkt(prob.P, prob.A, cfg.sigma, state.R.values))
    state.n_factorizations += 1


def iterate_once(state: SolverState, prob: QpProblem, cfg: SolverConfig) -> SolverState:
    """Advance the iterate tuple by one step (mutates and returns state)."""
    r = state.R.values
    g = state.Gamma.values
    x_k, z_k, y_k = state.x, state.z, state.y

    with np.errstate(invalid="ignore", over="ignore"):
        rhs = cfg.sigma * x_k - prob.q + prob.A.T @ (r * z_k - y_k)
        x_tilde = ldlt_solve(state.kkt, rhs)
        z_tilde = prob.A @ x_tilde

        x_next = state.alpha_x * x_tilde + (1.0 - state.alpha_x) * x_k
        if cfg.fault_hook == "flip_relaxation_sign":
            w = g * z_tilde - (1.0 - g) * z_k
        else:
            w = g * z_tilde + (1.0 - g) * z_k
        z_next = np.clip(w + y_k / r, prob.l, prob.u)
        y_next = y_k + r * (w - z_next)

    if not (
        np.all(np.isfinite(x_next)) and np.all(np.isfinite(z_next)) and np.all(np.isfinite(y_next))
    ):
        raise DivergenceError(state.iter + 1)

    state.x_prev, state.z_prev = x_k, z_k
    state.R_prev_values = r.copy()
    state.x_tilde, state.z_tilde = x_tilde, z_tilde
    state.x, state.z, state.y = x_next, z_next, y_next
    state.iter += 1
    return state


def splitting_residuals(state: SolverState, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Convergence-theory residuals of the last completed step, in the
    consensus space of dimension n + m.

    r: mismatch between the unrelaxed KKT-solve output and the projected
       iterate; s: -(penalty) * (change of the projected iterate), which is
       the dual residual of the splitting.
    """
    if state.x_tilde is None:
        raise InputError("no completed iteration to take residuals from")
    r_vec = np.concatenate((state.x_tilde - state.x, state.z_tilde - state.z))
    s_vec = np.concatenate(
        (
            -sigma * (state.x - state.x_prev),
            -state.R_prev_values * (state.z - state.z_prev),
        )
    )
    return r_vec, s_vec


def maybe_update_rho(
    state: SolverState, res: Residuals, prob: QpProblem, cfg: SolverConfig
) -> tuple[SolverState, bool]:
    """Residual-balancing penalty update; refactors the KKT system when the
    candidate differs from the current value by the trigger factor."""
    prim_scale = max(
        float(np.max(np.abs(prob.A @ state.x), initial=0.0)),
        float(np.max(np.abs(state.z), initial=0.0)),
        1e-10,
    )
    dual_scale = max(
        float(np.max(np.abs(prob.P @ state.x), initial=0.0)),
        float(np.max(np.abs(prob.A.T @ state.y), initial=0.0)),
        float(np.max(np.abs(prob.q), initial=0.0)),
        1e-10,
    )
    rp = res.r_prim_inf / prim_scale
    rd = res.r_dual_inf / dual_scale
    if rp <= 0.0 and rd <= 0.0:
        return state, False
    rp = max(rp, 1e-16)
    rd = max(rd, 1e-16)
    candidate = float(np.clip(state.rho_scalar * np.sqrt(rp / rd), RHO_MIN, RHO_MAX))
    ratio = candidate / state.rho_scalar
    if ratio >= RHO_TRIGGER_FACTOR or 1.0 / ratio >= RHO_TRIGGER_FACTOR:
        state.rho_scalar = candidate
        state.R = DiagParams(rho_pattern(prob.kinds, candidate), RHO_MIN, RHO_MAX)
        refactor(state, prob, cfg)
        state.rho_updates += 1
        return state, True
    return state, False


def apply_policy(state: SolverState, policy, ctx, cfg: SolverConfig) -> SolverState:
    """Query the relaxation policy at a stage boundary.

    After the freeze iteration the relaxation is left untouched so the total
    parameter drift stays finite.  Non-finite policy output raises and leaves
    the state unchanged.
    """
    if state.iter >= cfg.freeze_iter:
        state.frozen = True
        return state
    gamma, alpha_x = policy.propose(ctx)
    gamma = np.asarray(gamma, dtype=np.float64)
    if not (np.all(np.isfinite(gamma)) and np.isfinite(alpha_x)):
        raise PolicyError(f"policy produced non-finite relaxation at iteration {state.iter}")
    gamma = np.clip(gamma, cfg.alpha_min, cfg.alpha_max)
    alpha_x = float(np.clip(alpha_x, cfg.alpha_min, cfg.alpha_max))
    state.Gamma = DiagParams(gamma, cfg.alpha_min, cfg.alpha_max)
    state.alpha_x = alpha_x
    return state


@dataclass
class PolicyContext:
    """Solver-state snapshot handed to relaxation policies at stage boundaries."""

    prob: QpProblem
    res: Residuals
    res_prev: Residuals
    rho_scalar: float
    rho_values: np.ndarray
    z: np.ndarray
    y: np.ndarray
    r_prim_prev: np.ndarray
    iteration: int


class FixedPolicy:
    """Constant relaxation; the OSQP default corresponds to alpha = 1.6."""

    def __init__(self, alpha: float = 1.6):
        self.alpha = float(alpha)

    def propose(self, ctx: PolicyContext):
        return np.full(ctx.prob.m, self.alpha), self.alpha


@dataclass
class TrajectoryStep:
    """Everything the theory verifier needs about one iteration."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    x_tilde: np.ndarray
    z_tilde: np.ndarray
    x_next: np.ndarray
    z_next: np.ndarray
    y_next: np.ndarray
    r_values: np.ndarray
    r_next_values: np.ndarray
    gamma_values: np.ndarray
    alpha_x: float
    sigma: float


class TrajectoryRecorder:
    """Collects per-iteration snapshots during a solve."""

    def __init__(self):
        self.steps: list[TrajectoryStep] = []

    def on_step(self, state: SolverState, cfg: SolverConfig, y_prev: np.ndarray) -> None:
        self.steps.append(
            TrajectoryStep(
                x=state.x_prev.copy(),
                z=state.z_prev.copy(),
                y=y_prev.copy(),
                x_tilde=state.x_tilde.copy(),
                z_tilde=state.z_tilde.copy(),
                x_next=state.x.copy(),
                z_next=state.z.copy(),
                y_next=state.y.copy(),
                r_values=state.R_prev_values.copy(),
                r_next_values=state.R.values.copy(),
                gamma_values=state.Gamma.values.copy(),
                alpha_x=state.alpha_x,
                sigma=cfg.sigma,
            )
        )

    def finalize_step_params(self, state: SolverState) -> None:
        # R may change after the step (penalty update); the metric used by the
        # *next* step is what the perturbation identity needs.
        if self.steps:
            self.steps[-1].r_next_values = state.R.values.copy()


def solve(
    prob: QpProblem,
    cfg: SolverConfig,
    policy=None,
    observer=None,
    recorder: TrajectoryRecorder | None = None,
) -> SolveReport:
    """Run the ADMM loop to termination or cfg.max_iter.

    ``observer(state, residuals)`` is called after every iteration (and once
    at iteration 0); ``recorder`` captures full per-step snapshots for the
    theory verifier.
    """
    t0 = time.perf_counter()
    state = init_state(prob, cfg)
    res = osqp_residuals(prob, state.x, state.z, state.y)
    history = [(0, res.r_prim_inf, res.r_dual_inf)]
    stage_res = res
    stage_r_prim = res.r_prim.copy()
    if observer is not None:
        observer(state, res)

    status = "max_iter"
    y_prev = state.y.copy()
    while state.iter < cfg.max_iter:
        y_prev[:] = state.y
        iterate_once(state, prob, cfg)
        if recorder is not None:
            recorder.on_step(state, cfg, y_prev)
        res = osqp_residuals(prob, state.x, state.z, state.y)
        history.append((state.iter, res.r_prim_inf, res.r_dual_inf))
        if observer is not None:
            observer(state, res)
        if terminated(res, prob, state.x, state.z, state.y, cfg.eps_abs, cfg.eps_rel):
            status = "solved"
            if recorder is not None:
                recorder.finalize_step_params(state)
            break
        if cfg.adaptive_rho and state.iter % cfg.rho_check_interval == 0:
            maybe_update_rho(state, res, prob, cfg)
        if policy is not None and state.iter % cfg.stage_length == 0:
            ctx = PolicyContext(
                prob=prob,
                res=res,
                res_prev=stage_res,
                rho_scalar=state.rho_scalar,
                rho_values=state.R.values,
                z=state.z,
                y=state.y,
                r_prim_prev=stage_r_prim,
                iteration=state.iter,
            )
            apply_policy(state, policy, ctx, cfg)
            stage_res = res
            stage_r_prim = res.r_prim.copy()
        if recorder is not None:
            recorder.finalize_step_params(state)

    runtime = time.perf_counter() - t0
    return SolveReport(
        status=status,
        iterations=state.iter,
        rho_updates=state.rho_updates,
        factorizations=state.n_factorizations,
        runtime_seconds=runtime,
        residual_history=history,
        objective=objective(prob, state.x),
        x=state.x.copy(),
        y=state.y.copy(),
    )
