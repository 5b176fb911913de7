"""Independent oracles the tests check the package against.

Everything here is deliberately written from first principles (normal
equations, exhaustive enumeration, scalar loops) so that it shares no code
path with the package implementation.  The exception is the per-step
references for ``relaxqp.verify`` at the end: they drive the engine's own
iteration and differ from the package only in working one step at a time.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from relaxqp import bench
from relaxqp.engine import (
    RHO_MAX,
    RHO_MIN,
    SolverConfig,
    init_state,
    iterate_once,
    refactor,
    solve,
)
from relaxqp.errors import TheoryViolationError
from relaxqp.policy import policy_features
from relaxqp.problem import QpProblem, objective
from relaxqp.verify import (
    CONSISTENCY_RTOL,
    DESCENT_RTOL,
    IDENTITY_RTOL,
    DriftResult,
    DrsCheck,
    TrajectoryStep,
)


def refine_solve(H: np.ndarray, rhs: np.ndarray, steps: int = 2) -> np.ndarray:
    """LU solve plus a couple of refinement sweeps, for near-roundoff accuracy."""
    x = np.linalg.solve(H, rhs)
    for _ in range(steps):
        x = x + np.linalg.solve(H, rhs - H @ x)
    return x


def relaxed_admm_transcription(
    prob: QpProblem,
    r_values: np.ndarray,
    alpha: float,
    sigma: float,
    n_iters: int,
):
    """Straight-line transcription of the relaxed consensus splitting with a
    uniform (scalar) relaxation parameter and per-row penalties.

    The first subproblem is solved through its normal equations rather than
    the indefinite KKT system, keeping the code path independent of the
    package solver.  Returns the list of (x, z, y) triples after each
    iteration.
    """
    n, m = prob.n, prob.m
    P, q, A, l, u = prob.P, prob.q, prob.A, prob.l, prob.u
    r = np.asarray(r_values, dtype=np.float64)
    H = P + sigma * np.eye(n) + A.T @ (r[:, None] * A)

    x = np.zeros(n)
    z = np.zeros(m)
    y = np.zeros(m)
    wx = np.zeros(n)  # dual on the decision block; stays identically zero
    out = []
    for _ in range(n_iters):
        rhs = sigma * x - wx - q + A.T @ (r * (z - y / r))
        x_tilde = refine_solve(H, rhs)
        z_tilde = A @ x_tilde

        x_rel = alpha * x_tilde + (1.0 - alpha) * x
        z_rel = alpha * z_tilde + (1.0 - alpha) * z

        x_new = x_rel + wx / sigma
        z_new = np.clip(z_rel + y / r, l, u)

        wx = wx + sigma * (x_rel - x_new)
        y = y + r * (z_rel - z_new)
        x, z = x_new, z_new
        out.append((x.copy(), z.copy(), y.copy()))
    return out


def active_set_solution(prob: QpProblem, tol: float = 1e-9):
    """Brute-force KKT solution by enumerating active-set patterns.

    Each row with l < u is inactive, at its lower bound or at its upper
    bound; the sign convention ties nonpositive multipliers to active lower
    bounds and nonnegative ones to active upper bounds.  A row with l == u
    is active in every pattern, with a multiplier of either sign, so a
    problem with e equality rows takes 3^(m - e) patterns.  Only viable for
    small m - e.
    """
    n, m = prob.n, prob.m
    best = None
    for pattern in itertools.product(*[(2,) if f else (0, -1, 1) for f in prob.equality]):
        pattern = np.array(pattern)
        active = np.flatnonzero(pattern)
        b = np.where(pattern == 1, prob.u, prob.l)[active]
        if not np.all(np.isfinite(b)):
            continue
        k = active.size
        KKT = np.zeros((n + k, n + k))
        KKT[:n, :n] = prob.P
        As = prob.A[active]
        KKT[:n, n:] = As.T
        KKT[n:, :n] = As
        try:
            sol = np.linalg.solve(KKT, np.concatenate((-prob.q, b)))
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        y = np.zeros(m)
        y[active] = sol[n:]
        ax = prob.A @ x
        if np.any(ax < prob.l - tol) or np.any(ax > prob.u + tol):
            continue
        if np.any((pattern == -1) & (y > tol)) or np.any((pattern == 1) & (y < -tol)):
            continue
        obj = 0.5 * x @ prob.P @ x + prob.q @ x
        if best is None or obj < best[2] - 1e-12:
            best = (x, y, obj)
    return best


def mlp_forward_loops(ckpt, cfg, x: np.ndarray) -> float:
    """Scalar-loop forward pass matching the policy architecture, on one raw
    (unnormalized) input vector: normalization, then the layers unfolded,
    with the output scaled into the box of the solver config ``cfg``."""

    def layer(v, W, b, gain, offset):
        h = [sum(W[i][j] * v[j] for j in range(len(v))) + b[i] for i in range(len(W))]
        mu = sum(h) / len(h)
        var = sum((hi - mu) ** 2 for hi in h) / len(h)
        h = [(hi - mu) / math.sqrt(var + 1e-5) * gain[i] + offset[i] for i, hi in enumerate(h)]
        return [hi if hi > 0 else math.exp(hi) - 1.0 for hi in h]

    ns = ckpt.norm_stats
    v = [(xi - mu) / sd for xi, mu, sd in zip(x.tolist(), ns.mean.tolist(), ns.std.tolist())]
    v = layer(v, ckpt.W1.tolist(), ckpt.b1.tolist(), ckpt.ln1_gain.tolist(), ckpt.ln1_offset.tolist())
    v = layer(v, ckpt.W2.tolist(), ckpt.b2.tolist(), ckpt.ln2_gain.tolist(), ckpt.ln2_offset.tolist())
    pre = sum(w * h for w, h in zip(ckpt.w_out.tolist(), v)) + ckpt.b_out
    sig = 1.0 / (1.0 + math.exp(-pre))
    return cfg.alpha_min + (cfg.alpha_max - cfg.alpha_min) * sig


class FixedPolicy:
    """Constant relaxation alpha on every row and the decision space, through
    the policy path; at alpha = SolverConfig.alpha0 the iterates are those of
    a solve without a policy."""

    def __init__(self, alpha: float = 1.6):
        self.alpha = float(alpha)

    def propose(self, prob, state, res, res_prev, cfg):
        return np.full(prob.m, self.alpha), self.alpha


class RandomGammaPolicy:
    """Per-stage random relaxation within the configured box (seeded)."""

    def __init__(self, lo, hi, seed):
        self.lo, self.hi = lo, hi
        self.rng = np.random.default_rng(seed)

    def propose(self, prob, state, res, res_prev, cfg):
        g = self.rng.uniform(self.lo, self.hi, size=prob.m)
        return g, float(self.rng.uniform(self.lo, self.hi))


def observed_boundary_inputs(prob: QpProblem, variant: str, cfg: SolverConfig, horizon: int) -> list:
    """Unnormalized MLP inputs that an observer reads at every stage boundary
    of a baseline solve of ``horizon`` iterations: before that boundary's
    penalty update, at a boundary the solve stops on, and past the freeze
    alike.  Under fixed rho, with no solve stopping on a boundary before
    ``horizon`` or reaching the freeze, these are the inputs the policy
    queries read.  The rows keep the memory order of the policy's, on which
    the roundoff of ``fit_norm_stats``'s sums depends."""
    inputs, prev = [], {}

    def observer(state, res):
        if state.iter % cfg.stage_length:
            return
        if prev:
            phi, rows = policy_features(prob, state, res, prev["res"], variant)
            if rows is not None:  # column-major, as the policy's rows are
                phi = np.hstack((np.broadcast_to(phi, (rows.shape[0], phi.size)), rows))
            inputs.append(phi)
        prev["res"] = res

    solve(prob, replace(cfg, max_iter=horizon), observer=observer)
    return inputs


def random_box_qp(rng: np.random.Generator, n: int, m: int, name: str = "") -> QpProblem:
    """Small well-scaled box-constrained QP for direct engine tests."""
    B = rng.standard_normal((n, n))
    P = B.T @ B / n + 0.05 * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    l = -rng.uniform(0.1, 1.0, size=m)
    u = rng.uniform(0.1, 1.0, size=m)
    return QpProblem(P, q, A, l, u, name=name or f"box_qp_{n}x{m}")


def control_kron(size: int, seed: int) -> QpProblem:
    """The condensed control instance of relaxqp.bench, built the textbook
    way: explicit state and input cost matrices Qbar = kron(I_T, I) and
    Rbar = kron(I_T, 0.1 I), P = G'Qbar G + Rbar and q = G'Qbar Phi x0, with
    G filled one block column at a time and copied into A.  It draws the
    same random data as the generator."""
    nx, nu, T = size, math.ceil(size / 2), 10
    g = lambda tag: bench._rng("control", size, seed, tag)
    Ad = bench._stable_matrix(g("A"), nx)
    Bd = g("B").uniform(-1.0, 1.0, size=(nx, nu))
    x0 = g("x0").uniform(-0.5, 0.5, size=nx)
    n = T * nu
    Phi = np.zeros((T * nx, nx))
    G = np.zeros((T * nx, n))
    Ak = np.eye(nx)
    for t in range(T):
        Ak = Ad @ Ak
        Phi[t * nx : (t + 1) * nx] = Ak
    for t in range(T):
        block = Bd
        for s in range(t, T):
            G[s * nx : (s + 1) * nx, t * nu : (t + 1) * nu] = block
            block = Ad @ block
    Qbar = np.kron(np.eye(T), np.eye(nx))
    Rbar = np.kron(np.eye(T), 0.1 * np.eye(nu))
    P = G.T @ Qbar @ G + Rbar
    P = 0.5 * (P + P.T)
    q = G.T @ (Qbar @ (Phi @ x0))
    A = np.zeros((n + T * nx, n))
    A[:n] = np.eye(n)
    A[n:] = G
    l = np.concatenate((-0.8 * np.ones(n), -5.0 * np.ones(T * nx) - Phi @ x0))
    u = np.concatenate((0.8 * np.ones(n), 5.0 * np.ones(T * nx) - Phi @ x0))
    return QpProblem(P, q, A, l, u, name=f"control_n{size}_s{seed}", seed=seed)


def lasso_dense(size: int, seed: int) -> QpProblem:
    """The lasso instance of relaxqp.bench built from dense P and A, each
    block assigned into a zero matrix."""
    n = size
    md = 10 * n
    g = lambda tag: bench._rng("lasso", size, seed, tag)
    Ad = g("design").standard_normal((md, n))
    x_true = g("truth").standard_normal(n)
    x_true *= g("support").uniform(size=n) < 0.1
    b = Ad @ x_true + 0.01 * g("noise").standard_normal(md)
    lam = 0.2 * np.max(np.abs(Ad.T @ b))
    dim = n + md + n
    P = np.zeros((dim, dim))
    P[n : n + md, n : n + md] = np.eye(md)
    q = np.concatenate((np.zeros(n + md), lam * np.ones(n)))
    m = md + 2 * n
    A = np.zeros((m, dim))
    A[:md, :n] = Ad
    np.fill_diagonal(A[:md, n : n + md], -1.0)
    A[md : md + n, :n] = np.eye(n)
    np.fill_diagonal(A[md : md + n, n + md :], -1.0)
    A[md + n :, :n] = np.eye(n)
    A[md + n :, n + md :] = np.eye(n)
    l = np.concatenate((b, np.full(n, -np.inf), np.zeros(n)))
    u = np.concatenate((b, np.zeros(n), np.full(n, np.inf)))
    return QpProblem(P, q, A, l, u, name=f"lasso_n{size}_s{seed}", seed=seed)


def mpc_dense(size: int, seed: int) -> QpProblem:
    """The mpc instance of relaxqp.bench built from dense P and A, with its
    plant data drawn afresh rather than from the generator's cache."""
    nx, nu, T = bench.MPC_STATE_DIM, bench.MPC_INPUT_DIM, bench.MPC_HORIZON
    g = lambda tag: bench._rng("mpc", nx, 0, "shared-" + tag)
    Ad = bench._stable_matrix(g("A"), nx)
    Bd = g("B").uniform(-1.0, 1.0, size=(nx, nu))
    q_diag = g("Q").uniform(0.5, 1.5, size=nx)
    r_diag = g("R").uniform(0.05, 0.15, size=nu)
    x_lim, u_lim = 5.0, 0.02
    x0 = bench._rng("mpc", size, seed, "x0").uniform(-0.5, 0.5, size=nx)
    n = (T + 1) * nx + T * nu
    off_u = (T + 1) * nx
    P = np.diag(np.concatenate((np.tile(q_diag, T), q_diag, np.tile(r_diag, T))))
    q = np.zeros(n)
    m = nx + T * nx + T * nx + T * nu
    A = np.zeros((m, n))
    l = np.empty(m)
    u = np.empty(m)
    A[:nx, :nx] = np.eye(nx)
    l[:nx] = u[:nx] = x0
    row = nx
    for t in range(T):
        A[row : row + nx, (t + 1) * nx : (t + 2) * nx] = np.eye(nx)
        A[row : row + nx, t * nx : (t + 1) * nx] = -Ad
        A[row : row + nx, off_u + t * nu : off_u + (t + 1) * nu] = -Bd
        l[row : row + nx] = u[row : row + nx] = 0.0
        row += nx
    for t in range(T):
        A[row : row + nx, (t + 1) * nx : (t + 2) * nx] = np.eye(nx)
        l[row : row + nx] = -x_lim
        u[row : row + nx] = x_lim
        row += nx
    A[row:, off_u:] = np.eye(T * nu)
    l[row:] = -u_lim
    u[row:] = u_lim
    return QpProblem(P, q, A, l, u, name=f"mpc_n{size}_s{seed}", seed=seed)


def psd_probe_dense(P: np.ndarray) -> bool:
    """relaxqp.problem's dense PSD probe on whole matrices: P must pass
    np.allclose(P, P.T, rtol=atol=1e-10), and P + 1e-9*I must admit a
    Cholesky factorization."""
    if not np.allclose(P, P.T, rtol=1e-10, atol=1e-10):
        return False
    try:
        np.linalg.cholesky(P + 1e-9 * np.eye(P.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def splitting_residuals(state, x_prev: np.ndarray, z_prev: np.ndarray, sigma: float):
    """Convergence-theory residuals of the step from (x_prev, z_prev) to the
    state's iterate, in the consensus space of dimension n + m.

    r: mismatch between the unrelaxed KKT-solve output and the projected
       iterate; s: -(penalty) * (change of the projected iterate), which is
       the dual residual of the splitting.  The penalty is ``state.R``, the
       step's own until a penalty update follows the step.
    """
    r_vec = np.concatenate((state.x_tilde - state.x, state.z_tilde - state.z))
    s_vec = np.concatenate((-sigma * (state.x - x_prev), -state.R * (state.z - z_prev)))
    return r_vec, s_vec


# ---------------------------------------------------------------------------
# Per-step references for relaxqp.verify, which works on blocks of steps.
# Each processes one step (or one drift iteration) at a time, in the
# consensus space of dimension n + m, with one random draw per sign vector.


def record_per_step(prob: QpProblem, cfg: SolverConfig, n_steps: int, policy=None) -> list:
    """relaxqp.verify.record_trajectory as a list of TrajectoryStep objects,
    each holding copies of its own made as the solve runs.  A step's
    r_next_values is the penalty the next step uses; the last step's is the
    final state's, as a penalty update can follow the last iteration."""
    cfg = replace(cfg, max_iter=n_steps, eps_abs=1e-300, eps_rel=1e-300)
    steps = []
    last = {}

    def observer(state, res):
        if state.iter:
            # The observer runs before the iteration's penalty update.
            r = state.R.copy()
            if steps:
                steps[-1].r_next_values = r.copy()
            steps.append(
                TrajectoryStep(
                    x=last["x"],
                    z=last["z"],
                    y=last["y"],
                    x_tilde=state.x_tilde.copy(),
                    z_tilde=state.z_tilde.copy(),
                    x_next=state.x.copy(),
                    z_next=state.z.copy(),
                    y_next=state.y.copy(),
                    r_values=r,
                    r_next_values=None,
                    gamma_values=state.Gamma.copy(),
                    alpha_x=state.alpha_x,
                    sigma=cfg.sigma,
                )
            )
        last.update(x=state.x.copy(), z=state.z.copy(), y=state.y.copy(), state=state)

    solve(prob, cfg, policy=policy, observer=observer)
    steps[-1].r_next_values = last["state"].R.copy()
    return steps


def _stacked_step(step):
    """Consensus-space penalty, next penalty and relaxation of one step."""
    n = step.x.size
    r_k = np.concatenate((np.full(n, step.sigma), step.r_values))
    r_next = np.concatenate((np.full(n, step.sigma), step.r_next_values))
    gamma = np.concatenate((np.full(n, step.alpha_x), step.gamma_values))
    return r_k, r_next, gamma


def reconstruct_drs_per_step(steps: list, prob: QpProblem, raise_on_violation: bool = True) -> DrsCheck:
    """relaxqp.verify.reconstruct_drs, one step at a time."""
    n = prob.n
    max_trans = max_pert = 0.0
    worst_trans = worst_pert = 0
    for k, st in enumerate(steps):
        r_k, r_next, gamma = _stacked_step(st)
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
                f"dual-state identity violated: transition={v_trans:.3e} perturbation={v_pert:.3e}",
                iteration=k,
            )
        if v_trans > max_trans:
            max_trans, worst_trans = v_trans, k
        if v_pert > max_pert:
            max_pert, worst_pert = v_pert, k
    return DrsCheck(max_trans, max_pert, worst_trans, worst_pert)


def check_descent_per_step(
    steps: list,
    prob: QpProblem,
    x_star: np.ndarray,
    z_star: np.ndarray,
    lam_star: np.ndarray,
    alpha_max: float,
    raise_on_violation: bool = True,
) -> np.ndarray:
    """relaxqp.verify.check_descent, one step at a time; a step's input is
    consistent when its normal-cone gap, from its own z, y and r and the
    bounds of ``prob``, is within CONSISTENCY_RTOL of its scale."""
    kappa = 2.0 / alpha_max - 1.0
    n = x_star.size
    slacks = np.full(len(steps), np.nan)
    consistent = False
    for k, st in enumerate(steps):
        if not consistent:
            w = st.y / st.r_values
            scale = 1.0 + float(np.max(np.abs(st.z), initial=0.0))
            scale += float(np.max(np.abs(w), initial=0.0))
            gap = float(np.max(np.abs(st.z - np.clip(st.z + w, prob.l, prob.u)), initial=0.0))
            consistent = gap <= CONSISTENCY_RTOL * scale
            if not consistent:
                continue
        r_k, _, gamma = _stacked_step(st)
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


def drift_per_step(
    prob: QpProblem,
    schedule,
    horizon: int,
    cfg: SolverConfig,
    p_star: float,
    seed: int = 0,
    r_tol: float = 1e-6,
    s_tol: float = 1e-6,
    gap_tol: float = 1e-5,
) -> DriftResult:
    """relaxqp.verify.run_drift_experiment, one draw call per sign vector."""
    rng = np.random.default_rng(seed)
    cfg = replace(cfg, adaptive_rho=False, max_iter=max(horizon, 1))
    state = init_state(prob, cfg)
    r_hist = np.empty(horizon)
    s_hist = np.empty(horizon)
    gap_hist = np.empty(horizon)
    converged = False
    iterations = horizon
    for k in range(horizon):
        x_k, z_k = state.x.copy(), state.z.copy()
        iterate_once(state, prob, cfg)
        r_vec, s_vec = splitting_residuals(state, x_k, z_k, cfg.sigma)
        r_hist[k] = np.abs(r_vec).max()
        s_hist[k] = np.abs(s_vec).max()
        gap_hist[k] = abs(objective(prob, state.x) - p_star)
        if r_hist[k] <= r_tol and s_hist[k] <= s_tol and gap_hist[k] <= gap_tol:
            converged = True
            iterations = k + 1
            break
        th = schedule.theta[k]
        if th > 0.0:
            signs = rng.choice((-1.0, 1.0), size=prob.m)
            state.R = np.clip(state.R * (1.0 + signs * th), RHO_MIN, RHO_MAX)
            refactor(state, prob, cfg)
            signs = rng.choice((-1.0, 1.0), size=prob.m)
            state.Gamma = np.clip(state.Gamma * (1.0 + signs * th), cfg.alpha_min, cfg.alpha_max)
            ax_sign = rng.choice((-1.0, 1.0))
            alpha_x = state.alpha_x * (1.0 + ax_sign * th)
            state.alpha_x = float(np.clip(alpha_x, cfg.alpha_min, cfg.alpha_max))
    return DriftResult(
        r_inf=r_hist[:iterations],
        s_inf=s_hist[:iterations],
        objective_gap=gap_hist[:iterations],
        converged=converged,
        iterations=iterations,
    )
