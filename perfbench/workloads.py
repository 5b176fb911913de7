"""The four benchmark workloads and the correctness checks run on their outputs.

Every workload is a ``setup(seed, workdir)`` that builds its inputs (from the
benchmark seed where that keeps the work of a pass steady; perfbench/README.md
says which), and a ``run_pass(state)`` that does the measured work once, in
one process, one operation at a time.  An operation is one
``load_problem`` + ``solve``, one rollout or validation solve, or one
instance verification; ``run_pass`` returns one :class:`Op` per operation.

relaxqp functions are always called through their module attribute
(``rq.solve``, ``rv.record_trajectory``), so a traced run reaches them
through the tracer's wrappers.
"""

import hashlib
import math
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import relaxqp as rq
from relaxqp import bench as rb
from relaxqp import training as rt
from relaxqp import verify as rv

_clock = time.perf_counter

# An eps = 1e-3 solve can miss the tight reference objective by about 1.2e-2
# (relative to 1 + |f*|) on the portfolio family; 0.05 leaves margin while
# still catching a wrong solution.
OBJECTIVE_RTOL = 0.05


@dataclass
class Op:
    """One measured operation and what the checks found in its output."""

    name: str
    seconds: float
    iterations: int = 0
    rho_updates: int = 0
    error: str = ""  # SolverError raised, or a status other than "solved"
    violation: str = ""  # theory violation or non-converged drift run
    check_errors: list = field(default_factory=list)

    @property
    def counts(self) -> tuple:
        return (self.name, self.iterations, self.rho_updates, self.error, self.violation)


def derive_seeds(seed: int, tag: str, k: int) -> list[int]:
    """k distinct instance seeds in [1, 10^6] for one workload and purpose."""
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    return [int(s) + 1 for s in rng.choice(1_000_000, size=k, replace=False)]


def _inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def check_report(prob, cfg, rep, ref=None) -> list[str]:
    """Output checks on one solve report, computed from the problem data."""
    errs = []
    if rep.factorizations != 1 + rep.rho_updates:
        errs.append(f"{prob.name}: {rep.factorizations} factorizations != 1 + {rep.rho_updates}")
    if rep.status != "solved":
        return errs
    Ax = prob.A @ rep.x
    proj = np.clip(Ax, prob.l, prob.u)
    # dist(Ax, [l, u]) <= |Ax - z| for the solver's z in [l, u], and
    # |z| <= |proj| + 2|Ax - z|, which gives this bound from the stopping rule.
    prim_tol = (cfg.eps_abs + cfg.eps_rel * max(_inf(Ax), _inf(proj))) / (1 - 2 * cfg.eps_rel)
    prim = _inf(Ax - proj)
    if prim > prim_tol * (1 + 1e-9) + 1e-12:
        errs.append(f"{prob.name}: primal infeasibility {prim:.3e} above {prim_tol:.3e}")
    Px = prob.P @ rep.x
    ATy = prob.A.T @ rep.y
    dual_tol = cfg.eps_abs + cfg.eps_rel * max(_inf(Px), _inf(ATy), _inf(prob.q))
    dual = _inf(Px + prob.q + ATy)
    if dual > dual_tol * (1 + 1e-9) + 1e-12:
        errs.append(f"{prob.name}: dual residual {dual:.3e} above {dual_tol:.3e}")
    if ref is not None:
        gap = abs(rep.objective - ref.objective)
        if not gap <= OBJECTIVE_RTOL * (1 + abs(ref.objective)):
            errs.append(f"{prob.name}: objective {rep.objective:.6g} vs reference {ref.objective:.6g}")
    return errs


def _solve_op(name, prob, cfg, policy=None, ref=None, load_path=None, digest=None) -> Op:
    t0 = _clock()
    try:
        if load_path is not None:
            prob = rq.load_problem(load_path)
        rep = rq.solve(prob, cfg, policy=policy)
    except rq.SolverError as exc:
        return Op(name, _clock() - t0, error=f"{type(exc).__name__}: {exc}")
    op = Op(name, _clock() - t0, rep.iterations, rep.rho_updates)
    if rep.status != "solved":
        op.error = f"status {rep.status}"
    op.check_errors = check_report(prob, cfg, rep, ref)
    if digest is not None and problem_digest(prob) != digest:
        op.check_errors.append(f"{name}: loaded problem differs from the generated one")
    return op


def problem_digest(prob) -> str:
    h = hashlib.sha256()
    for a in (prob.P, prob.q, prob.A, prob.l, prob.u):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def warm_up(workdir: Path) -> None:
    """Touch every code path once (imports, BLAS, file I/O) before timing."""
    prob = rq.generate(rq.FamilySpec("random_qp", 5, seed=1))
    path = workdir / "warm_up.json"
    rq.save_problem(prob, path)
    prob = rq.load_problem(path)
    path.unlink()
    cfg = rq.SolverConfig(max_iter=50)
    for variant in ("scalar", "vector"):
        rq.solve(prob, cfg, policy=rq.policy.policy_from_checkpoint(desk_checkpoint(variant)))
    rq.reference_solution(prob)


# ---------------------------------------------------------------------------
# desk_sweep: the mixed small-solve traffic a library user sends.

DESK_FAMILIES = {
    "random_qp": (20, 30, 50),
    "portfolio": (10, 20, 30),
    "lasso": (10,),
    "svm": (10, 20, 30),
    "control": (10, 20, 30),
}
DESK_INSTANCE_SEEDS = (1, 2)
DESK_CKPT_SEED = 20240601
DESK_W_OUT_SCALE = 0.1


def desk_checkpoint(variant: str) -> rq.PolicyCheckpoint:
    """Fixed non-trivial policy: an untrained checkpoint outputs exactly 1.6,
    so the output layer gets small random weights (pre-activation std ~0.8,
    outputs spread around 1.6 inside [1.25, 1.95])."""
    ckpt = rq.init_checkpoint(variant, seed=DESK_CKPT_SEED)
    w_out = np.random.default_rng(DESK_CKPT_SEED).normal(scale=DESK_W_OUT_SCALE, size=ckpt.w_out.size)
    return replace(ckpt, w_out=w_out, b_out=0.0)


def setup_desk(seed: int, workdir: Path) -> dict:
    """Fixed instances, checkpoints and order; the seed is not used.

    Seed-derived instances moved the work of a pass by +-30%, seed-derived
    checkpoints moved the iterations of the solves at the median latency, and
    a seed-shuffled order moved the time of identical work by up to 20%
    (through the allocator state one solve leaves for the next)."""
    cases = []
    for family, sizes in DESK_FAMILIES.items():
        for size in sizes:
            for s in DESK_INSTANCE_SEEDS:
                prob = rq.generate(rq.FamilySpec(family, size, s))
                cases.append((prob, rq.reference_solution(prob)))
    policies = [("fixed", None)] + [
        (v, rq.policy.policy_from_checkpoint(desk_checkpoint(v))) for v in ("scalar", "vector")
    ]
    return {"solves": [(c, p, adaptive) for c in cases for p in policies for adaptive in (False, True)]}


def run_desk(state: dict) -> list[Op]:
    ops = []
    for (prob, ref), (label, policy), adaptive in state["solves"]:
        cfg = rq.SolverConfig(adaptive_rho=adaptive)
        name = f"{prob.name}/{label}/{'adaptive' if adaptive else 'fixed'}"
        ops.append(_solve_op(name, prob, cfg, policy, ref))
    return ops


# ---------------------------------------------------------------------------
# paper_grid: three large solves, each loaded from a problem file
# (the ``relaxqp bench --store`` / ``solve --problem`` path).

PAPER_GRID = (("mpc", 100, True), ("control", 200, True), ("lasso", 50, True))


def setup_paper(seed: int, workdir: Path) -> dict:
    cases = []
    for (family, size, adaptive), s in zip(PAPER_GRID, derive_seeds(seed, "paper", len(PAPER_GRID))):
        spec = rq.FamilySpec(family, size, s)
        prob = rq.generate(spec)
        d = rb.store_instance(workdir / "store", spec, prob, None)
        cases.append(
            (spec.name, d / "problem.json", problem_digest(prob), rq.SolverConfig(adaptive_rho=adaptive))
        )
    return {"cases": cases}


def run_paper(state: dict) -> list[Op]:
    ops = []
    for name, path, digest, cfg in state["cases"]:
        ops.append(_solve_op(name, None, cfg, load_path=path, digest=digest))
    return ops


# ---------------------------------------------------------------------------
# spsa_train: short SPSA runs of a vector policy on portfolio_n20, fixed rho.
# Several independent one-epoch runs, each with its own SPSA seed, rather than
# one long run: the later steps of a long run follow one random search path,
# which made the work of a pass vary by +-12% from seed to seed.

SPSA_TRAIN_SEEDS = tuple(range(1, 9))
SPSA_VAL_SEEDS = tuple(range(101, 105))
SPSA_RUNS = 3
SPSA_CONFIG = dict(epochs=1, batch_size=4, horizon=500)


def setup_spsa(seed: int, workdir: Path) -> dict:
    def build(seeds, split):
        out = []
        for s in seeds:
            prob = rq.generate(rq.FamilySpec("portfolio", 20, s, split=split))
            out.append((prob, rq.reference_solution(prob)))
        return out

    return {
        "train": build(SPSA_TRAIN_SEEDS, "train"),
        "val": build(SPSA_VAL_SEEDS, "val"),
        "tcfgs": [
            rq.TrainConfig(seed=s, **SPSA_CONFIG) for s in derive_seeds(seed, "spsa", SPSA_RUNS)
        ],
        "cfg": rq.SolverConfig(adaptive_rho=False),
    }


class _TrainingOps:
    """Times each rollout and each validation solve inside ``training.train``.

    Installed over ``training.rollout`` and ``training.solve`` for the pass
    (over the tracer's wrappers in a traced run); solves made by a rollout or
    by the normalization-statistics rollouts are not operations of their own.
    """

    def __init__(self, state: dict):
        self.ops: list[Op] = []
        self.refs = {id(p): r for p, r in state["train"] + state["val"]}
        self._inner = 0

    def __enter__(self):
        self._rollout, self._solve, self._norm = rt.rollout, rt.solve, rt.collect_norm_stats
        rt.rollout, rt.solve, rt.collect_norm_stats = self.rollout, self.solve, self.norm_stats
        return self

    def __exit__(self, *exc):
        rt.rollout, rt.solve, rt.collect_norm_stats = self._rollout, self._solve, self._norm

    def norm_stats(self, *args, **kwargs):
        self._inner += 1
        try:
            return self._norm(*args, **kwargs)
        finally:
            self._inner -= 1

    def rollout(self, prob, policy, cfg, horizon, x_star, lam_star, loss_eps=rt.LOSS_EPS):
        self._inner += 1
        t0 = _clock()
        try:
            rec = self._rollout(prob, policy, cfg, horizon, x_star, lam_star, loss_eps)
        finally:
            self._inner -= 1
        op = Op(f"rollout/{prob.name}", _clock() - t0, rec.iterations, rec.rho_updates)
        if not (rec.losses and all(math.isfinite(v) for v in rec.losses)):
            op.check_errors.append(f"{prob.name}: rollout losses missing or non-finite")
        if rec.iterations > horizon:
            op.check_errors.append(f"{prob.name}: rollout ran {rec.iterations} > {horizon} iterations")
        self.ops.append(op)
        return rec

    def solve(self, prob, cfg, policy=None, observer=None, recorder=None):
        if self._inner:
            return self._solve(prob, cfg, policy=policy, observer=observer, recorder=recorder)
        t0 = _clock()
        rep = self._solve(prob, cfg, policy=policy, observer=observer, recorder=recorder)
        op = Op(f"validate/{prob.name}", _clock() - t0, rep.iterations, rep.rho_updates)
        if rep.status != "solved":
            op.error = f"status {rep.status}"
        op.check_errors = check_report(prob, cfg, rep, self.refs.get(id(prob)))
        self.ops.append(op)
        return rep


def run_spsa(state: dict) -> list[Op]:
    cfg, train_set, val_set = state["cfg"], state["train"], state["val"]
    errs = []
    with _TrainingOps(state) as tops:
        norm = rt.collect_norm_stats([p for p, _ in train_set], "vector", cfg)
        for tcfg in state["tcfgs"]:
            ckpt0 = rq.init_checkpoint("vector", seed=tcfg.seed, norm_stats=norm)
            result = rt.train(train_set, val_set, ckpt0, tcfg, cfg)
            if len(result.log_rows) != tcfg.epochs:
                errs.append(f"training log has {len(result.log_rows)} rows, expected {tcfg.epochs}")
            for ck in (result.ckpt_iter, result.ckpt_rho):
                if not np.all(np.isfinite(rq.policy.flatten_params(ck))):
                    errs.append("trained checkpoint has non-finite parameters")
    ops = tops.ops
    expected = sum((1 + t.epochs) * len(val_set) + t.epochs * 2 * len(train_set) for t in state["tcfgs"])
    if len(ops) != expected:
        errs.append(f"{len(ops)} training operations, expected {expected}")
    if ops:
        ops[-1].check_errors.extend(errs)
    return ops


# ---------------------------------------------------------------------------
# theory_verify: the ``relaxqp verify`` pipeline run from the library.

VERIFY_FAMILIES = ("random_qp", "portfolio", "svm", "control")
VERIFY_STEPS = 200
VERIFY_DRIFT_ITERS = 10000


def setup_verify(seed: int, workdir: Path) -> dict:
    """The bundled desk manifest and the CLI's default config (seed 0 for the
    drift runs' random perturbation signs); the benchmark seed is not used.
    The sign seed alone moves the drift runs' length by +-12%, and the order
    of the instances moved the time of identical work by 10-20%."""
    cases = []
    for spec in rb.default_desk_manifest():
        if spec.family in VERIFY_FAMILIES:
            prob = rq.generate(spec)
            cases.append((prob, rq.reference_solution(prob)))
    return {"cases": cases, "cfg": rq.SolverConfig()}


def _descent_base(step, x_star, z_star, lam_star) -> float:
    """|y_k - y*_k|^2_H, the scale of ``verify.check_descent``'s tolerance."""
    n = x_star.size
    r_k = np.concatenate((np.full(n, step.sigma), step.r_values))
    gamma = np.concatenate((np.full(n, step.alpha_x), step.gamma_values))
    y_star = np.concatenate((np.zeros(n), lam_star)) + r_k * np.concatenate((x_star, z_star))
    y_k = np.concatenate((np.zeros(n), step.y)) + r_k * np.concatenate((step.x, step.z))
    return float(np.sum((y_k - y_star) ** 2 / (gamma * r_k)))


def run_verify(state: dict) -> list[Op]:
    cfg = state["cfg"]
    ops = []
    for prob, ref in state["cases"]:
        t0 = _clock()
        try:
            steps = rv.record_trajectory(prob, replace(cfg, adaptive_rho=True), VERIFY_STEPS)
            chk = rv.reconstruct_drs(steps, prob, raise_on_violation=False)
            z_star = np.clip(prob.A @ ref.x_star, prob.l, prob.u)
            slacks = rv.check_descent(
                steps, ref.x_star, z_star, ref.lambda_star, cfg.alpha_max, raise_on_violation=False
            )
            drift = rv.run_drift_experiment(
                prob,
                rv.DriftSchedule.inverse_square(VERIFY_DRIFT_ITERS),
                VERIFY_DRIFT_ITERS,
                cfg,
                ref.objective,
                seed=cfg.seed,
            )
        except rq.SolverError as exc:
            ops.append(Op(prob.name, _clock() - t0, error=f"{type(exc).__name__}: {exc}"))
            continue
        rho_updates = sum(not np.array_equal(st.r_values, st.r_next_values) for st in steps)
        op = Op(prob.name, _clock() - t0, len(steps) + drift.iterations, rho_updates)
        found = []
        worst_identity = max(chk.max_transition_violation, chk.max_perturbation_violation)
        if worst_identity > rv.IDENTITY_RTOL:
            found.append(f"identity violation {worst_identity:.3e}")
        for k in np.nonzero(slacks < -rv.DESCENT_RTOL)[0]:
            base = _descent_base(steps[k], ref.x_star, z_star, ref.lambda_star)
            if slacks[k] < -rv.DESCENT_RTOL * (1.0 + base):
                found.append(f"descent slack {slacks[k]:.3e} at k={k}")
                break
        if not drift.converged:
            found.append(f"drift run not converged in {VERIFY_DRIFT_ITERS} iterations")
        op.violation = "; ".join(found)
        if len(steps) != VERIFY_STEPS or len(slacks) != VERIFY_STEPS:
            op.check_errors.append(f"{prob.name}: recorded {len(steps)} steps, expected {VERIFY_STEPS}")
        ops.append(op)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    setups: int  # set-ups per run; setup_s is their median
    min_passes: int  # timed passes per run at least, however short --seconds is
    exercises: tuple  # spans (or counters) that must be non-zero in a traced pass
    setup_exercises: tuple  # spans (or counters) that must be non-zero in a traced set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_sweep", setup_desk, run_desk, 5, 4,
            ("linalg.assemble", "linalg.factor", "linalg.solve", "problem.residuals",
             "problem.terminated", "engine.solve", "engine.init", "engine.iterate",
             "engine.refactor", "engine.rho_update", "engine.policy_query", "policy.features",
             "policy.mlp"),
            ("bench.generate", "bench.reference", "bench.reference.iters", "problem.validate"),
        ),
        Workload(
            "paper_grid", setup_paper, run_paper, 2, 1,
            ("linalg.assemble", "linalg.factor", "linalg.solve", "problem.load",
             "problem.validate", "problem.residuals", "problem.terminated", "engine.solve",
             "engine.init", "engine.iterate", "engine.rho_update"),
            ("bench.generate", "problem.save", "problem.validate"),
        ),
        Workload(
            "spsa_train", setup_spsa, run_spsa, 7, 4,
            ("training.train", "training.rollout", "training.stage_loss", "training.norm_stats",
             "training.validation_solves", "engine.solve", "engine.iterate", "engine.policy_query", "policy.features",
             "policy.mlp", "linalg.factor", "linalg.solve"),
            ("bench.generate", "bench.reference", "bench.reference.iters", "problem.validate"),
        ),
        Workload(
            "theory_verify", setup_verify, run_verify, 7, 3,
            ("verify.record", "verify.reconstruct", "verify.descent", "verify.drift",
             "verify.drift.refactors", "engine.refactor", "linalg.factor", "engine.iterate"),
            ("bench.generate", "bench.reference", "bench.reference.iters", "problem.validate"),
        ),
    )
}
