"""Stage-loss computation, rollouts and gradient-free policy training.

Per stage of t solver iterations the loss is a shaped log-contraction rate
of the squared distance to the reference primal-dual optimum:

    loss = psi(log sqrt((d_next + eps) / (d_now + eps))),
    psi(r) = softplus(r + 0.5) - 0.5,

so perfect stagnation costs ~0.47, divergence is penalized linearly and
rapid contraction saturates at -0.5.  Policies are trained by simultaneous
perturbation stochastic approximation (SPSA) over the flattened checkpoint
parameters: two batch evaluations per step estimate a descent direction
without differentiating through the solver.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    SolverConfig,
    check_field_types,
    check_positive_finite,
    solve,
)
from .errors import DivergenceError, InputError
from .policy import (
    PolicyCheckpoint,
    fit_norm_stats,
    flatten_params,
    policy_features,
    policy_from_checkpoint,
    with_params,
)
from .problem import QpProblem

LOSS_EPS = 1e-10
DIVERGENCE_STAGE_CAP = 6.0
NORM_STATS_HORIZON = 200


def shaping(r: float) -> float:
    """softplus(r + 0.5) - 0.5, overflow-safe for large arguments."""
    v = r + 0.5
    if v > 30.0:
        return r
    return math.log1p(math.exp(v)) - 0.5


def stage_loss(
    x_now: np.ndarray,
    lam_now: np.ndarray,
    x_next: np.ndarray,
    lam_next: np.ndarray,
    x_star: np.ndarray,
    lam_star: np.ndarray,
    eps: float = LOSS_EPS,
) -> float:
    d_now = float(np.sum((x_now - x_star) ** 2) + np.sum((lam_now - lam_star) ** 2))
    d_next = float(np.sum((x_next - x_star) ** 2) + np.sum((lam_next - lam_star) ** 2))
    return shaping(0.5 * math.log((d_next + eps) / (d_now + eps)))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 16
    loss_eps: float = LOSS_EPS
    perturbation: float = 0.05  # SPSA evaluation offset c0
    step_size: float = 0.2  # SPSA gain a0
    horizon: int = 500  # rollout length; matches the relaxation freeze point
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 1:
            raise InputError("batch size must be at least 1")
        check_positive_finite(self, ("step_size", "perturbation", "loss_eps"))
        for name in ("epochs", "horizon"):
            if getattr(self, name) < 0:
                raise InputError(f"config field {name!r} must be >= 0, got {getattr(self, name)!r}")


@dataclass
class RolloutRecord:
    losses: list
    total_loss: float
    iterations: int
    rho_updates: int
    solved: bool


def rollout(
    prob: QpProblem,
    policy,
    cfg: SolverConfig,
    horizon: int,
    x_star: np.ndarray,
    lam_star: np.ndarray,
    loss_eps: float = LOSS_EPS,
) -> RolloutRecord:
    """Run the solver for at most ``horizon`` iterations and score every
    stage against the reference optimum.  A diverging run is scored with the
    per-stage cap instead of raising."""
    if horizon == 0:
        return RolloutRecord([], 0.0, 0, 0, False)
    t = cfg.stage_length
    snapshots: list[tuple[np.ndarray, np.ndarray]] = []

    def observer(state, res):
        if state.iter % t == 0:
            snapshots.append((state.x, state.y))  # a step binds new arrays

    run_cfg = replace(cfg, max_iter=horizon)
    try:
        report = solve(prob, run_cfg, policy=policy, observer=observer)
    except DivergenceError:
        n_stages = max(horizon // t, 1)
        cap = shaping(DIVERGENCE_STAGE_CAP)
        losses = [cap] * n_stages
        return RolloutRecord(losses, cap * n_stages, horizon, 0, False)

    if report.iterations % t != 0:  # the final iterate closes a partial stage
        snapshots.append((report.x, report.y))
    losses = [
        stage_loss(x0, y0, x1, y1, x_star, lam_star, loss_eps)
        for (x0, y0), (x1, y1) in zip(snapshots[:-1], snapshots[1:])
    ]
    return RolloutRecord(
        losses=losses,
        total_loss=float(sum(losses)),
        iterations=report.iterations,
        rho_updates=report.rho_updates,
        solved=report.status == "solved",
    )


class _InputRecorder:
    """A policy that keeps the relaxation and records the unnormalized MLP
    input of each query: the (6,) solver-level features of the scalar
    variant, or the (m, 13) rows of the vector one (the solver-level
    features repeated on every row, then the row's own)."""

    def __init__(self, variant: str):
        self.variant = variant
        self.inputs: list[np.ndarray] = []

    def propose(self, prob, state, res, res_prev, cfg):
        phi, rows = policy_features(prob, state, res, res_prev, self.variant)
        if rows is not None:
            phi = np.hstack((np.broadcast_to(phi, (rows.shape[0], phi.size)), rows))
        self.inputs.append(phi)
        return state.Gamma, None


def collect_norm_stats(instances: list, variant: str, cfg: SolverConfig):
    """Normalization statistics, fitted once to the MLP inputs at the policy
    queries of baseline solves of NORM_STATS_HORIZON iterations under
    ``cfg`` (the relaxation stays ``cfg.alpha0``).  An InputError names the
    instances and the first query's iteration when no solve reaches it."""
    recorder = _InputRecorder(variant)
    for prob in instances:
        solve(prob, replace(cfg, max_iter=NORM_STATS_HORIZON), policy=recorder)
    if not recorder.inputs:
        first = cfg.stage_length
        why = (f"freeze_iter ({cfg.freeze_iter}) is not after it" if cfg.freeze_iter <= first else
               f"the baseline solve of each of {[prob.name for prob in instances]} stops before it")
        raise InputError(f"no policy query to fit normalization statistics: the first is at "
                         f"iteration {first} (stage_length), and {why}")
    return fit_norm_stats(recorder.inputs)


def _evaluate_validation(ckpt: PolicyCheckpoint, val_set: list, cfg: SolverConfig):
    iters = []
    rho_updates = []
    policy = policy_from_checkpoint(ckpt)
    for prob, _ref in val_set:
        report = solve(prob, cfg, policy=policy)
        iters.append(report.iterations)
        rho_updates.append(report.rho_updates)
    return float(np.mean(iters)), float(np.mean(rho_updates))


def _batch_loss(theta, template, batch, cfg, tcfg):
    ckpt = with_params(template, theta)
    policy = policy_from_checkpoint(ckpt)
    total = 0.0
    for prob, ref in batch:
        rec = rollout(prob, policy, cfg, tcfg.horizon, ref.x_star, ref.lambda_star, tcfg.loss_eps)
        total += rec.total_loss
    return total / len(batch)


@dataclass
class TrainResult:
    ckpt_iter: PolicyCheckpoint
    ckpt_rho: PolicyCheckpoint
    log_rows: list = field(default_factory=list)  # one per epoch
    warning: str = ""
    # The initial checkpoint's validation means as an epoch-0 log row with no
    # training loss; None without a validation set.
    initial_row: dict | None = None


def train(
    train_set: list,
    val_set: list,
    ckpt0: PolicyCheckpoint,
    tcfg: TrainConfig,
    cfg: SolverConfig,
) -> TrainResult:
    """SPSA over the checkpoint parameters with per-epoch validation.

    ``train_set`` and ``val_set`` are lists of (problem, reference) pairs;
    references must hold the tight primal-dual optimum of each instance.
    Rollouts and validation solves take every solver setting, the stage
    length included, from ``cfg``.  Returns the checkpoint with the lowest
    mean validation iteration count and, under adaptive penalty updates, the
    one with the fewest mean penalty updates.  If no epoch improves on the
    initial checkpoint, the initial checkpoint is returned with a warning.
    """
    if tcfg.batch_size > max(len(train_set), 1):
        raise InputError("batch size exceeds the training set size")
    rng = np.random.default_rng(tcfg.seed)
    theta = flatten_params(ckpt0)

    base_iters, base_rho = _evaluate_validation(ckpt0, val_set, cfg) if val_set else (np.inf, np.inf)
    best_iter = (base_iters, 0, theta.copy())
    # penalty-update selection breaks ties by the iteration count
    best_rho = ((base_rho, base_iters), 0, theta.copy())

    n_batches = max(len(train_set) // tcfg.batch_size, 1)
    total_steps = max(tcfg.epochs * n_batches, 1)
    a0, c0 = tcfg.step_size, tcfg.perturbation
    stab = 0.1 * total_steps

    log_rows = []
    step = 0
    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for b in range(n_batches):
            batch = [train_set[i] for i in order[b * tcfg.batch_size : (b + 1) * tcfg.batch_size]]
            if not batch:
                continue
            a_k = a0 / (step + 1 + stab) ** 0.602
            c_k = c0 / (step + 1) ** 0.101
            delta = rng.choice((-1.0, 1.0), size=theta.size)
            loss_plus = _batch_loss(theta + c_k * delta, ckpt0, batch, cfg, tcfg)
            loss_minus = _batch_loss(theta - c_k * delta, ckpt0, batch, cfg, tcfg)
            ghat = (loss_plus - loss_minus) / (2.0 * c_k) * delta
            theta = theta - a_k * ghat
            epoch_losses.append(0.5 * (loss_plus + loss_minus))
            step += 1

        ckpt = with_params(ckpt0, theta)
        val_iters, val_rho = _evaluate_validation(ckpt, val_set, cfg) if val_set else (np.inf, np.inf)
        log_rows.append(
            {
                "epoch": epoch,
                "mean_train_loss": float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                "mean_val_iters": val_iters,
                "mean_val_rho_updates": val_rho,
            }
        )
        if val_iters < best_iter[0]:
            best_iter = (val_iters, epoch, theta.copy())
        if (val_rho, val_iters) < best_rho[0]:
            best_rho = ((val_rho, val_iters), epoch, theta.copy())

    warning = ""
    if tcfg.epochs > 0 and val_set and best_iter[1] == 0:
        warning = "validation never improved on the initial checkpoint"

    def finalize(best, tag):
        ck = with_params(ckpt0, best[2])
        score = best[0][0] if isinstance(best[0], tuple) else best[0]
        ck.metadata = dict(ckpt0.metadata)
        ck.metadata.update({"selection": tag, "epoch": best[1], "val_score": score,
                            "adaptive_rho": cfg.adaptive_rho})
        if warning:
            ck.metadata["warning"] = warning
        return ck

    result = TrainResult(
        ckpt_iter=finalize(best_iter, "iter"),
        ckpt_rho=finalize(best_rho if cfg.adaptive_rho else best_iter, "rho"),
        log_rows=log_rows,
        warning=warning,
        initial_row={"epoch": 0, "mean_train_loss": None, "mean_val_iters": base_iters,
                     "mean_val_rho_updates": base_rho} if val_set else None,
    )
    return result
