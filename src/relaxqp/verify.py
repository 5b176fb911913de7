"""Numerical oracle for the convergence theory behind the solver.

The solver's consensus splitting is equivalent to a relaxed Douglas-Rachford
iteration on the dual, run in a metric that changes whenever the penalty
vector changes.  This module reconstructs the dual states from recorded
trajectories and checks, step by step:

  * the state-transition identity  y~_{k+1} - y_k = Gamma_k R_k e_{k+1},
  * the metric-update perturbation y_{k+1} - y~_{k+1} = (R_{k+1}-R_k) s_{k+1},
  * the one-step descent inequality with margin kappa = 2/alpha_max - 1,
  * residual convergence under summable multiplicative parameter drift.

All reconstructions live in the consensus space of dimension n + m: the
first n coordinates carry the (constant) sigma-weighted decision block, the
last m the constraint block.
"""

from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    RHO_MAX,
    RHO_MIN,
    SolverConfig,
    TrajectoryRecorder,
    TrajectoryStep,
    init_state,
    iterate_once,
    refactor,
    solve,
    splitting_residuals,
)
from .errors import InputError, TheoryViolationError
from .problem import QpProblem, objective

IDENTITY_RTOL = 1e-9
DESCENT_RTOL = 1e-8
CONSISTENCY_RTOL = 1e-9
# Drift signs, drawn by index: SIGNS[rng.integers(0, 2, size)] is the stream
# rng.choice((-1.0, 1.0), size) draws.
SIGNS = np.array((-1.0, 1.0))


@dataclass(frozen=True)
class DrsState:
    """Dual splitting state after one step, in the consensus space."""

    y: np.ndarray  # lam + R_next * sigma
    y_tilde: np.ndarray  # lam + R * sigma
    lam: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class DrsCheck:
    states: list
    max_transition_violation: float
    max_perturbation_violation: float


def _stacked(step: TrajectoryStep):
    """Consensus-space parameter vectors for one recorded step."""
    n = step.x.size
    r_k = np.concatenate((np.full(n, step.sigma), step.r_values))
    r_next = np.concatenate((np.full(n, step.sigma), step.r_next_values))
    gamma = np.concatenate((np.full(n, step.alpha_x), step.gamma_values))
    return r_k, r_next, gamma


def reconstruct_drs(steps: list, prob: QpProblem, raise_on_violation: bool = True) -> DrsCheck:
    """Rebuild the dual states of a recorded trajectory and verify the
    transition and perturbation identities at every step."""
    if not steps:
        raise InputError("empty trajectory")
    n = prob.n
    states = []
    max_trans = 0.0
    max_pert = 0.0
    for k, st in enumerate(steps):
        r_k, r_next, gamma = _stacked(st)
        lam_k = np.concatenate((np.zeros(n), st.y))
        lam_next = np.concatenate((np.zeros(n), st.y_next))
        sig_k = np.concatenate((st.x, st.z))
        sig_next = np.concatenate((st.x_next, st.z_next))

        y_k = lam_k + r_k * sig_k
        y_tilde = lam_next + r_k * sig_next
        y_next = lam_next + r_next * sig_next

        e_next = np.concatenate((st.x_tilde - st.x, st.z_tilde - st.z))
        lhs_t = y_tilde - y_k
        rhs_t = gamma * r_k * e_next
        v_trans = float(np.max(np.abs(lhs_t - rhs_t))) / (1.0 + float(np.max(np.abs(y_k))))

        lhs_p = y_next - y_tilde
        rhs_p = (r_next - r_k) * sig_next
        v_pert = float(np.max(np.abs(lhs_p - rhs_p))) / (1.0 + float(np.max(np.abs(y_next))))

        if raise_on_violation and (v_trans > IDENTITY_RTOL or v_pert > IDENTITY_RTOL):
            raise TheoryViolationError(
                f"dual-state identity violated: transition={v_trans:.3e} perturbation={v_pert:.3e}", iteration=k
            )
        max_trans = max(max_trans, v_trans)
        max_pert = max(max_pert, v_pert)
        states.append(DrsState(y=y_next, y_tilde=y_tilde, lam=lam_next, sigma=sig_next))
    return DrsCheck(states=states, max_transition_violation=max_trans, max_perturbation_violation=max_pert)


def check_descent(
    steps: list,
    x_star: np.ndarray,
    z_star: np.ndarray,
    lam_star: np.ndarray,
    alpha_max: float,
    raise_on_violation: bool = True,
) -> np.ndarray:
    """Per-step slack of the one-step descent inequality.

    slack_k = |y_k - y*_k|^2_H - |y~_{k+1} - y*_k|^2_H
              - kappa |y~_{k+1} - y_k|^2_H      with kappa = 2/alpha_max - 1,

    where y*_k is the fixed point induced by the reference saddle point in
    the step-k metric.  Nonnegative up to roundoff when every relaxation
    entry stays at or below alpha_max and the step starts from a
    Douglas-Rachford state, i.e. z_k = clip(z_k + y_k/r_k, l, u).

    Every state the iteration produces is one, but a cold start z = y = 0
    is not when 0 lies outside [l, u] (the svm and portfolio families).  The
    inequality is therefore applied from the first step whose input state
    is consistent to CONSISTENCY_RTOL; the slacks of the steps before it
    are NaN.
    """
    kappa = 2.0 / alpha_max - 1.0
    if kappa <= 0:
        raise InputError("alpha_max must be below 2 for a positive descent margin")
    n = x_star.size
    slacks = np.full(len(steps), np.nan)
    consistent = False
    for k, st in enumerate(steps):
        if not consistent:
            scale = 1.0 + float(np.max(np.abs(st.z), initial=0.0))
            scale += float(np.max(np.abs(st.y / st.r_values), initial=0.0))
            consistent = st.input_gap <= CONSISTENCY_RTOL * scale
            if not consistent:
                continue
        r_k, _, gamma = _stacked(st)
        h = 1.0 / (gamma * r_k)
        lam_full = np.concatenate((np.zeros(n), lam_star))
        sig_star = np.concatenate((x_star, z_star))
        y_star = lam_full + r_k * sig_star

        y_k = np.concatenate((np.zeros(n), st.y)) + r_k * np.concatenate((st.x, st.z))
        y_tilde = np.concatenate((np.zeros(n), st.y_next)) + r_k * np.concatenate(
            (st.x_next, st.z_next)
        )

        a = float(np.sum(h * (y_k - y_star) ** 2))
        b = float(np.sum(h * (y_tilde - y_star) ** 2))
        c = float(np.sum(h * (y_tilde - y_k) ** 2))
        slack = a - b - kappa * c
        slacks[k] = slack
        if raise_on_violation and slack < -DESCENT_RTOL * (1.0 + a):
            raise TheoryViolationError(
                f"descent inequality violated: slack={slack:.3e} vs a={a:.3e}", iteration=k
            )
    return slacks


def record_trajectory(prob: QpProblem, cfg: SolverConfig, n_steps: int, policy=None):
    """Run exactly ``n_steps`` recorded iterations (no early termination) with
    the solver's usual penalty-update and policy cadence."""
    cfg = replace(cfg, max_iter=n_steps, eps_abs=1e-300, eps_rel=1e-300)
    recorder = TrajectoryRecorder()
    solve(prob, cfg, policy=policy, recorder=recorder)
    return recorder.steps


@dataclass(frozen=True)
class DriftSchedule:
    """Per-step relative drift magnitudes for the penalty and relaxation."""

    theta_r: np.ndarray
    theta_gamma: np.ndarray
    description: str
    summable: bool

    @classmethod
    def zero(cls, horizon: int) -> "DriftSchedule":
        z = np.zeros(horizon)
        return cls(z, z.copy(), "constant parameters (theta = 0)", True)

    @classmethod
    def inverse_square(cls, horizon: int, scale: float = 0.5) -> "DriftSchedule":
        k = np.arange(horizon, dtype=np.float64)
        t = scale / (k + 1.0) ** 2
        return cls(t, t.copy(), f"summable drift {scale}/(k+1)^2", True)

    @classmethod
    def constant(cls, horizon: int, level: float = 0.5) -> "DriftSchedule":
        t = np.full(horizon, level)
        return cls(t, t.copy(), f"non-summable constant drift {level}", False)


@dataclass(frozen=True)
class DriftResult:
    r_inf: np.ndarray
    s_inf: np.ndarray
    objective_gap: np.ndarray
    converged: bool
    iterations: int


def run_drift_experiment(
    prob: QpProblem,
    schedule: DriftSchedule,
    horizon: int,
    cfg: SolverConfig,
    p_star: float,
    seed: int = 0,
    r_tol: float = 1e-6,
    s_tol: float = 1e-6,
    gap_tol: float = 1e-5,
) -> DriftResult:
    """Drive the solver while multiplicatively perturbing the penalty and
    relaxation entries each iteration, and record the theory residuals.

    Non-convergence within the horizon is a reported outcome, not an error.
    """
    if schedule.theta_r.size < horizon:
        raise InputError("schedule shorter than the requested horizon")
    rng = np.random.default_rng(seed)
    cfg = replace(cfg, adaptive_rho=False, max_iter=max(horizon, 1))
    state = init_state(prob, cfg)
    r_hist = np.empty(horizon)
    s_hist = np.empty(horizon)
    gap_hist = np.empty(horizon)
    converged = False
    iterations = horizon
    for k in range(horizon):
        iterate_once(state, prob, cfg)
        r_vec, s_vec = splitting_residuals(state, cfg.sigma)
        r_hist[k] = np.abs(r_vec).max()
        s_hist[k] = np.abs(s_vec).max()
        gap_hist[k] = abs(objective(prob, state.x) - p_star)
        if r_hist[k] <= r_tol and s_hist[k] <= s_tol and gap_hist[k] <= gap_tol:
            converged = True
            iterations = k + 1
            break
        th_r = schedule.theta_r[k]
        th_g = schedule.theta_gamma[k]
        if th_r > 0.0:
            signs = SIGNS[rng.integers(0, 2, size=prob.m)]
            state.R = (state.R * (1.0 + signs * th_r)).clip(RHO_MIN, RHO_MAX)
            refactor(state, prob, cfg)
        if th_g > 0.0:
            signs = SIGNS[rng.integers(0, 2, size=prob.m)]
            state.Gamma = (state.Gamma * (1.0 + signs * th_g)).clip(cfg.alpha_min, cfg.alpha_max)
            ax_sign = SIGNS[rng.integers(0, 2)]
            state.alpha_x = float(
                (state.alpha_x * (1.0 + ax_sign * th_g)).clip(cfg.alpha_min, cfg.alpha_max)
            )
    return DriftResult(
        r_inf=r_hist[:iterations],
        s_inf=s_hist[:iterations],
        objective_gap=gap_hist[:iterations],
        converged=converged,
        iterations=iterations,
    )
