"""Numerical oracle for the convergence theory behind the solver.

The solver's consensus splitting is equivalent to a relaxed Douglas-Rachford
iteration on the dual, run in a metric that changes whenever the penalty
vector changes.  This module records trajectories of the solver in columns
(:class:`Trajectory`, passed to :func:`relaxqp.engine.solve` as its
observer; it is the only module that knows their row layout), reconstructs
the dual states from them and checks, step by step:

  * the state-transition identity  y~_{k+1} - y_k = Gamma_k R_k e_{k+1},
  * the metric-update perturbation y_{k+1} - y~_{k+1} = (R_{k+1}-R_k) s_{k+1},
  * the one-step descent inequality with margin kappa = 2/alpha_max - 1,
  * residual convergence under summable multiplicative parameter drift.

All reconstructions live in the consensus space of dimension n + m: the
first n coordinates carry the (constant) sigma-weighted decision block, the
last m the constraint block.
"""

import operator
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    ITERATE_ERRSTATE,
    RHO_MAX,
    RHO_MIN,
    SolverConfig,
    SolverState,
    init_state,
    iterate_once,
    refactor,
    solve,
)
from .errors import InputError, TheoryViolationError
from .problem import QpProblem, Residuals, normal_cone_gap, objective

IDENTITY_RTOL = 1e-9
# A drift run has converged at the first step whose splitting residuals and
# objective gap are all at most these.
DRIFT_R_TOL = 1e-6
DRIFT_S_TOL = 1e-6
DRIFT_GAP_TOL = 1e-5
# theta_k = DRIFT_SCALE/(k+1)^2 under DriftSchedule.inverse_square
DRIFT_SCALE = 0.5
DESCENT_RTOL = 1e-8
CONSISTENCY_RTOL = 1e-9
# Drift signs, drawn by index: SIGNS[rng.integers(0, 2, size)] is the stream
# rng.choice((-1.0, 1.0), size) draws.
SIGNS = np.array((-1.0, 1.0))
# Entries per block of a whole-trajectory array operation: steps x (n + m)
# in the checks, sign draws in the drift runs.  Bounds their temporaries.
BLOCK_ENTRIES = 8192


@dataclass
class TrajectoryStep:
    """Everything the theory verifier needs about one iteration; the arrays
    are views of the step's rows of a :class:`Trajectory`."""

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
    # |z - clip(z + y/r, l, u)|_inf of the input state: zero (to roundoff)
    # when z and y are consistent, i.e. y lies in the normal cone of [l, u]
    # at z.  Every state the iteration produces is; the cold start z = y = 0
    # is not when 0 lies outside [l, u].
    input_gap: float


class Trajectory:
    """Preallocated columns of a solve run under ``cfg``, filled as its observer.

    Row k of ``x``, ``z``, ``y`` and ``r`` (the penalty) is step k's input and
    row k + 1 its output, so each iterate is stored once; ``x_tilde``,
    ``z_tilde``, ``gamma``, ``alpha_x`` and ``input_gap`` have one row per
    step.  ``steps[k]`` is step k as a :class:`TrajectoryStep`.  Call
    :meth:`finish` after the solve: a penalty update can follow the last
    observed iteration, so the last penalty row comes from the final state.
    """

    def __init__(self, prob: QpProblem, cfg: SolverConfig):
        rows, n, m = cfg.max_iter, prob.n, prob.m
        self.x = np.empty((rows + 1, n))
        self.z = np.empty((rows + 1, m))
        self.y = np.empty((rows + 1, m))
        self.r = np.empty((rows + 1, m))
        self.x_tilde = np.empty((rows, n))
        self.z_tilde = np.empty((rows, m))
        self.gamma = np.empty((rows, m))
        self.alpha_x = np.empty(rows)
        self.input_gap = np.empty(rows)
        self.sigma = cfg.sigma
        self._prob = prob
        self._state = None

    def __call__(self, state: SolverState, res: Residuals) -> None:
        k = state.iter
        self.x[k], self.z[k], self.y[k] = state.x, state.z, state.y
        if k:
            i = k - 1
            # The observer runs before this iteration's penalty update.
            self.r[i] = state.R
            self.x_tilde[i], self.z_tilde[i] = state.x_tilde, state.z_tilde
            self.gamma[i], self.alpha_x[i] = state.Gamma, state.alpha_x
            z, y = self.z[i], self.y[i]
            self.input_gap[i] = normal_cone_gap(self._prob, z, y / self.r[i])
        self._state = state

    def finish(self) -> "Trajectory":
        """Cut the rows to the iterations the solve ran and read the last
        penalty row from its final state, which is then let go."""
        state, self._state = self._state, None
        k = state.iter
        self.x, self.z, self.y, self.r = (a[: k + 1] for a in (self.x, self.z, self.y, self.r))
        self.r[k] = state.R
        self.x_tilde, self.z_tilde, self.gamma, self.alpha_x, self.input_gap = (
            a[:k] for a in (self.x_tilde, self.z_tilde, self.gamma, self.alpha_x, self.input_gap)
        )
        return self

    def __len__(self) -> int:
        return self.alpha_x.shape[0]

    def __getitem__(self, k) -> TrajectoryStep:
        k = range(len(self))[operator.index(k)]  # negative counts from the end
        return TrajectoryStep(
            x=self.x[k], z=self.z[k], y=self.y[k], x_tilde=self.x_tilde[k], z_tilde=self.z_tilde[k],
            x_next=self.x[k + 1], z_next=self.z[k + 1], y_next=self.y[k + 1],
            r_values=self.r[k], r_next_values=self.r[k + 1], gamma_values=self.gamma[k],
            alpha_x=float(self.alpha_x[k]), sigma=self.sigma, input_gap=float(self.input_gap[k]),
        )


@dataclass(frozen=True)
class DrsCheck:
    max_transition_violation: float
    max_perturbation_violation: float
    # First step at which each maximum is attained (0 when no violation is
    # above 0).
    worst_transition_step: int = 0
    worst_perturbation_step: int = 0


def _blocks(start: int, stop: int, width: int):
    """(k0, k1) bounds of consecutive blocks of steps start..stop-1, each at
    most BLOCK_ENTRIES entries of ``width`` (and at least one step)."""
    rows = max(1, BLOCK_ENTRIES // max(width, 1))
    for k0 in range(start, stop, rows):
        yield k0, min(k0 + rows, stop)


def _consensus(n: int, decision, constraint: np.ndarray) -> np.ndarray:
    """Consensus-space rows: ``decision`` (broadcast) in the first n
    columns, ``constraint`` (steps, m) in the last m."""
    out = np.empty((constraint.shape[0], n + constraint.shape[1]))
    out[:, :n] = decision
    out[:, n:] = constraint
    return out


def _worst(violations: np.ndarray) -> tuple[float, int]:
    """Largest violation, NaN skipped and at least 0.0, and its first step."""
    ranked = np.where(np.isnan(violations), -np.inf, violations)
    k = int(ranked.argmax())
    return max(0.0, float(ranked[k])), k


def reconstruct_drs(steps: Trajectory, prob: QpProblem, raise_on_violation: bool = True) -> DrsCheck:
    """Rebuild the dual states of a recorded trajectory and verify the
    transition and perturbation identities at every step.

    The steps are processed in blocks, one consensus-space row per step.
    Every quantity is an elementwise product or sum or a row maximum, so
    each step's violations are those of the step on its own."""
    if not steps:
        raise InputError("empty trajectory")
    n = prob.n
    v_trans = np.empty(len(steps))
    v_pert = np.empty(len(steps))
    for k0, k1 in _blocks(0, len(steps), n + prob.m):
        # Step k's input is row k of the iterates and penalties, its output row k + 1.
        r = _consensus(n, steps.sigma, steps.r[k0 : k1 + 1])
        lam = _consensus(n, 0.0, steps.y[k0 : k1 + 1])
        sig = _consensus(n, steps.x[k0 : k1 + 1], steps.z[k0 : k1 + 1])
        r_k, r_next = r[:-1], r[1:]
        lam_k, lam_next = lam[:-1], lam[1:]
        sig_k, sig_next = sig[:-1], sig[1:]
        gamma = _consensus(n, steps.alpha_x[k0:k1, None], steps.gamma[k0:k1])

        y_k = lam_k + r_k * sig_k
        y_tilde = lam_next + r_k * sig_next
        y_next = lam_next + r_next * sig_next

        e_next = _consensus(n, steps.x_tilde[k0:k1], steps.z_tilde[k0:k1]) - sig_k
        lhs_t = y_tilde - y_k
        rhs_t = gamma * r_k * e_next
        v_trans[k0:k1] = np.abs(lhs_t - rhs_t).max(axis=1) / (1.0 + np.abs(y_k).max(axis=1))

        lhs_p = y_next - y_tilde
        rhs_p = (r_next - r_k) * sig_next
        v_pert[k0:k1] = np.abs(lhs_p - rhs_p).max(axis=1) / (1.0 + np.abs(y_next).max(axis=1))

        if raise_on_violation:
            bad = np.nonzero((v_trans[k0:k1] > IDENTITY_RTOL) | (v_pert[k0:k1] > IDENTITY_RTOL))[0]
            if bad.size:
                k = k0 + int(bad[0])
                raise TheoryViolationError(
                    f"dual-state identity violated: transition={float(v_trans[k]):.3e} "
                    f"perturbation={float(v_pert[k]):.3e}",
                    iteration=k,
                )
    max_trans, worst_trans = _worst(v_trans)
    max_pert, worst_pert = _worst(v_pert)
    return DrsCheck(
        max_transition_violation=max_trans,
        max_perturbation_violation=max_pert,
        worst_transition_step=worst_trans,
        worst_perturbation_step=worst_pert,
    )


def check_descent(
    steps: Trajectory,
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

    The checked steps are processed in blocks, one consensus-space row per
    step; a row sum adds in the order of the step's own vector sum.
    """
    kappa = 2.0 / alpha_max - 1.0
    if kappa <= 0:
        raise InputError("alpha_max must be below 2 for a positive descent margin")
    n = x_star.size
    slacks = np.full(len(steps), np.nan)
    lam_full = np.concatenate((np.zeros(n), lam_star))
    sig_star = np.concatenate((x_star, z_star))
    started = False
    for k0, k1 in _blocks(0, len(steps), sig_star.size):
        if not started:
            # the block's steps that start from a Douglas-Rachford state
            scale = 1.0 + np.abs(steps.z[k0:k1]).max(axis=1, initial=0.0)
            scale += np.abs(steps.y[k0:k1] / steps.r[k0:k1]).max(axis=1, initial=0.0)
            consistent = np.flatnonzero(steps.input_gap[k0:k1] <= CONSISTENCY_RTOL * scale)
            if not consistent.size:
                continue
            k0 += int(consistent[0])
            started = True
        r_k = _consensus(n, steps.sigma, steps.r[k0:k1])
        gamma = _consensus(n, steps.alpha_x[k0:k1, None], steps.gamma[k0:k1])
        h = 1.0 / (gamma * r_k)
        y_star = lam_full + r_k * sig_star

        lam = _consensus(n, 0.0, steps.y[k0 : k1 + 1])
        sig = _consensus(n, steps.x[k0 : k1 + 1], steps.z[k0 : k1 + 1])
        y_k = lam[:-1] + r_k * sig[:-1]
        y_tilde = lam[1:] + r_k * sig[1:]

        a = (h * (y_k - y_star) ** 2).sum(axis=1)
        b = (h * (y_tilde - y_star) ** 2).sum(axis=1)
        c = (h * (y_tilde - y_k) ** 2).sum(axis=1)
        slack = a - b - kappa * c
        slacks[k0:k1] = slack
        if raise_on_violation:
            bad = np.nonzero(slack < -DESCENT_RTOL * (1.0 + a))[0]
            if bad.size:
                i = int(bad[0])
                raise TheoryViolationError(
                    f"descent inequality violated: slack={float(slack[i]):.3e} vs a={float(a[i]):.3e}",
                    iteration=k0 + i,
                )
    return slacks


def record_trajectory(prob: QpProblem, cfg: SolverConfig, n_steps: int, policy=None) -> Trajectory:
    """Record up to ``n_steps`` iterations with the solver's usual
    penalty-update and policy cadence.  Both tolerances are set to 1e-300,
    so the solve stops early only when the stopping rule holds at them, in
    practice when both residuals reach exactly 0; the trajectory then holds
    fewer steps, as its ``len`` shows."""
    cfg = replace(cfg, max_iter=n_steps, eps_abs=1e-300, eps_rel=1e-300)
    steps = Trajectory(prob, cfg)
    solve(prob, cfg, policy=policy, observer=steps)
    return steps.finish()


@dataclass(frozen=True)
class DriftSchedule:
    """Per-step relative drift magnitude theta_k of the penalty and the
    relaxation alike."""

    theta: np.ndarray

    @classmethod
    def inverse_square(cls, horizon: int) -> "DriftSchedule":
        """Summable drift DRIFT_SCALE/(k+1)^2."""
        k = np.arange(horizon, dtype=np.float64)
        return cls(DRIFT_SCALE / (k + 1.0) ** 2)


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
) -> DriftResult:
    """Drive the solver while multiplicatively perturbing the penalty and
    relaxation entries each iteration, and record the theory residuals.

    The run has converged at the first step within DRIFT_R_TOL, DRIFT_S_TOL
    and DRIFT_GAP_TOL; non-convergence within the horizon is a reported
    outcome, not an error.
    """
    if not 0 <= horizon <= schedule.theta.size:
        raise InputError(f"drift horizon {horizon} is negative or longer than the schedule")
    rng = np.random.default_rng(seed)
    cfg = replace(cfg, adaptive_rho=False, max_iter=max(horizon, 1))
    state = init_state(prob, cfg)
    m = prob.m
    r_hist = np.empty(horizon)
    s_hist = np.empty(horizon)
    gap_hist = np.empty(horizon)
    converged = False
    iterations = horizon
    # Each iteration with theta > 0 draws m signs for R, then m for Gamma and
    # one for alpha_x.  A block of iterations draws all of its signs in one
    # call, which yields the same stream as one call per draw; the signs a
    # converged run leaves unused are never seen.
    with np.errstate(**ITERATE_ERRSTATE):
        for k0, k1 in _blocks(0, horizon, 2 * m + 1):
            thetas = schedule.theta[k0:k1].tolist()
            n_draws = (2 * m + 1) * sum(th > 0.0 for th in thetas)
            signs = SIGNS[rng.integers(0, 2, size=n_draws)]
            pos = 0
            for k, th in zip(range(k0, k1), thetas):
                x_k, z_k = state.x, state.z  # a step binds new arrays
                iterate_once(state, prob, cfg)
                # The norms of the step's splitting residuals r = (x~ - x, z~ - z)
                # and s = -(sigma (x - x_k), R (z - z_k)), R not yet perturbed:
                # |-sigma d|_inf = sigma |d|_inf, the initial 0.0 covers an empty
                # block, and Python's max of the two is the max over both as no
                # entry is NaN (iterate_once raises on a non-finite iterate, which
                # a non-finite x_tilde or z_tilde would make).
                r_hist[k] = max(
                    np.abs(state.x_tilde - state.x).max(initial=0.0),
                    np.abs(state.z_tilde - state.z).max(initial=0.0),
                )
                s_hist[k] = max(
                    cfg.sigma * np.abs(state.x - x_k).max(initial=0.0),
                    np.abs(state.R * (state.z - z_k)).max(initial=0.0),
                )
                gap_hist[k] = abs(objective(prob, state.x) - p_star)
                if r_hist[k] <= DRIFT_R_TOL and s_hist[k] <= DRIFT_S_TOL and gap_hist[k] <= DRIFT_GAP_TOL:
                    converged = True
                    iterations = k + 1
                    break
                if th > 0.0:
                    state.R = (state.R * (1.0 + signs[pos : pos + m] * th)).clip(RHO_MIN, RHO_MAX)
                    pos += m
                    refactor(state, prob, cfg)
                    state.Gamma = (state.Gamma * (1.0 + signs[pos : pos + m] * th)).clip(
                        cfg.alpha_min, cfg.alpha_max
                    )
                    alpha_x = state.alpha_x * (1.0 + float(signs[pos + m]) * th)
                    state.alpha_x = float(min(max(alpha_x, cfg.alpha_min), cfg.alpha_max))
                    pos += m + 1
            if converged:
                break

    return DriftResult(
        r_inf=r_hist[:iterations],
        s_inf=s_hist[:iterations],
        objective_gap=gap_hist[:iterations],
        converged=converged,
        iterations=iterations,
    )
