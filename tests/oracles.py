"""Independent oracles the tests check the package against.

Everything here is deliberately written from first principles (normal
equations, exhaustive enumeration, scalar loops) so that it shares no code
path with the package implementation.
"""

import itertools
import math

import numpy as np

from relaxqp.problem import QpProblem


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

    Each row is inactive, at its lower bound or at its upper bound; the sign
    convention ties nonpositive multipliers to active lower bounds and
    nonnegative ones to active upper bounds.  Only viable for small m.
    """
    n, m = prob.n, prob.m
    best = None
    for pattern in itertools.product((0, -1, 1), repeat=m):
        active = [i for i, p in enumerate(pattern) if p != 0]
        b = np.array(
            [prob.l[i] if pattern[i] < 0 else prob.u[i] for i in active], dtype=np.float64
        )
        if not np.all(np.isfinite(b)):
            continue
        k = len(active)
        KKT = np.zeros((n + k, n + k))
        KKT[:n, :n] = prob.P
        if k:
            As = prob.A[active]
            KKT[:n, n:] = As.T
            KKT[n:, :n] = As
        rhs = np.concatenate((-prob.q, b))
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        y = np.zeros(m)
        y[active] = sol[n:]
        ax = prob.A @ x
        if np.any(ax < prob.l - tol) or np.any(ax > prob.u + tol):
            continue
        ok = True
        for i, p in enumerate(pattern):
            if p < 0 and y[i] > tol:
                ok = False
            if p > 0 and y[i] < -tol:
                ok = False
        if not ok:
            continue
        obj = 0.5 * x @ prob.P @ x + prob.q @ x
        if best is None or obj < best[2] - 1e-12:
            best = (x, y, obj)
    return best


def mlp_forward_loops(ckpt, x_norm: np.ndarray) -> float:
    """Scalar-loop forward pass matching the policy architecture."""

    def layer(v, W, b, gain, offset):
        h = [sum(W[i][j] * v[j] for j in range(len(v))) + b[i] for i in range(len(W))]
        mu = sum(h) / len(h)
        var = sum((hi - mu) ** 2 for hi in h) / len(h)
        h = [(hi - mu) / math.sqrt(var + 1e-5) * gain[i] + offset[i] for i, hi in enumerate(h)]
        return [hi if hi > 0 else math.exp(hi) - 1.0 for hi in h]

    v = list(x_norm)
    v = layer(v, ckpt.W1.tolist(), ckpt.b1.tolist(), ckpt.ln1_gain.tolist(), ckpt.ln1_offset.tolist())
    v = layer(v, ckpt.W2.tolist(), ckpt.b2.tolist(), ckpt.ln2_gain.tolist(), ckpt.ln2_offset.tolist())
    pre = sum(w * h for w, h in zip(ckpt.w_out.tolist(), v)) + ckpt.b_out
    sig = 1.0 / (1.0 + math.exp(-pre))
    return ckpt.alpha_min + (ckpt.alpha_max - ckpt.alpha_min) * sig


def random_box_qp(rng: np.random.Generator, n: int, m: int, name: str = "") -> QpProblem:
    """Small well-scaled box-constrained QP for direct engine tests."""
    B = rng.standard_normal((n, n))
    P = B.T @ B / n + 0.05 * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    l = -rng.uniform(0.1, 1.0, size=m)
    u = rng.uniform(0.1, 1.0, size=m)
    return QpProblem(P, q, A, l, u, name=name or f"box_qp_{n}x{m}")
