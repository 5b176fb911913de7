"""Command-line entry point: solve, bench, train and verify workflows.

Machine-readable payloads go to the --out location (or standard output when
--out is absent); human-readable diagnostics go to standard error.  All
behavior is controlled by explicit flags and config files; environment
variables are never consulted.

Exit codes: 0 on success; 1 on any error, a usage error (an unknown or
malformed flag) included; solve 2 when it stops at max_iter; bench 3 if any
instance failed; verify 4 on any theory violation.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .engine import SolverConfig, config_from_dict, load_config, report_to_dict, solve
from .errors import InputError, SolverError, TheoryViolationError
from .policy import init_checkpoint, load_checkpoint, policy_from_checkpoint, save_checkpoint
from .problem import check_keys, load_problem, read_json_object
from .training import TrainConfig, collect_norm_stats, train
from .verify import DriftSchedule, check_descent, reconstruct_drs, record_trajectory, run_drift_experiment


# The result columns of a bench row, after family, size, seed, policy and
# rho_mode, with the decimals of their summary means (None: not averaged).
# All but the two times repeat byte for byte between runs.
BENCH_RESULTS = {
    "iterations": 2, "runtime_s": 3, "rho_updates": 2, "status": None, "kkt_backend": None,
    "factorizations": 2, "policy_queries": 2, "policy_seconds": 6,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_cfg(args) -> SolverConfig:
    cfg = load_config(args.config) if args.config else SolverConfig()
    if getattr(args, "max_iter", None) is not None:
        cfg = replace(cfg, max_iter=args.max_iter)
    if getattr(args, "adaptive_rho", None) is not None:
        cfg = replace(cfg, adaptive_rho=args.adaptive_rho == "on")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _map(fn, tasks, jobs: int) -> list:
    """fn over tasks, in order; in a pool of ``jobs`` processes when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    prob = load_problem(args.problem)
    policy = policy_from_checkpoint(load_checkpoint(args.checkpoint)) if args.checkpoint else None
    report = solve(prob, cfg, policy=policy)
    doc = report_to_dict(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        with open(out / "residuals.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "r_prim", "r_dual"])
            for it, rp, rd in report.residual_history:
                w.writerow([it, _fmt(rp), _fmt(rd)])
    else:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return 0 if report.status == "solved" else 2


def _bench_rows(task):
    """The rows ``runs`` of one instance, read or generated once: one per
    (policy label, policy, rho mode)."""
    store, spec, cfg, runs = task
    prob, _ = bench_mod.ensure_instance(store, spec)
    rows = []
    for policy_label, policy, rho_mode in runs:
        row = {
            "family": spec.family,
            "size": spec.size,
            "seed": spec.seed,
            "policy": policy_label,
            "rho_mode": rho_mode,
        }
        try:
            report = solve(prob, replace(cfg, adaptive_rho=rho_mode == "adaptive"), policy=policy)
            row.update(iterations=report.iterations, runtime_s=report.runtime_seconds,
                       rho_updates=report.rho_updates, status=report.status,
                       kkt_backend=report.kkt_backend, factorizations=report.factorizations,
                       policy_queries=report.policy_queries,
                       policy_seconds=report.policy_seconds)
        except SolverError as exc:
            print(f"bench: {spec.name} [{policy_label}/{rho_mode}] failed: {exc}", file=sys.stderr)
            row.update(dict.fromkeys(BENCH_RESULTS, ""), status="failed")
        rows.append(row)
    return rows


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    specs = bench_mod.load_manifest(args.manifest)
    store = args.store or (Path(args.out).parent / "instances" if args.out else "instances")

    runs = [("baseline", None)]
    for ck in args.checkpoint or []:
        ckpt = load_checkpoint(ck)
        trained = ckpt.metadata.get("adaptive_rho")
        if isinstance(trained, bool):  # bench runs every checkpoint in both modes
            other = "fixed" if trained else "adaptive"
            print(f"bench: checkpoint {ck} was trained with {'adaptive' if trained else 'fixed'} "
                  f"rho; its {other}-rho rows run it in the other mode", file=sys.stderr)
        runs.append((Path(ck).stem, policy_from_checkpoint(ckpt)))

    # An instance's rows, policy-major and fixed rho first, go in at most
    # --jobs tasks of consecutive rows, so that one large instance still
    # spreads over the workers; each task reads the instance once.
    runs = [(label, policy, mode) for label, policy in runs for mode in ("fixed", "adaptive")]
    k = min(args.jobs, len(runs))
    tasks = [(str(store), spec, cfg, runs[i * len(runs) // k:(i + 1) * len(runs) // k])
             for spec in specs for i in range(k)]
    rows = [row for rows in _map(_bench_rows, tasks, args.jobs) for row in rows]

    fieldnames = ["family", "size", "seed", "policy", "rho_mode", *BENCH_RESULTS]
    groups: dict = {}
    for row in rows:
        if row["status"] != "failed":
            key = (row["family"], row["policy"], row["rho_mode"])
            groups.setdefault(key, []).append(row)
    summary_rows = []
    for (family, policy_label, rho_mode), grp in sorted(groups.items()):
        summary = {"family": family, "size": "", "seed": "", "policy": policy_label,
                   "rho_mode": rho_mode, "status": "summary", "kkt_backend": ""}
        for key, digits in BENCH_RESULTS.items():
            if digits is not None:
                summary[key] = f"{np.mean([r[key] for r in grp]):.{digits}f}"
        summary_rows.append(summary)

    def write_rows(fh):
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            out = dict(row)
            if out["status"] != "failed":
                out["runtime_s"] = _fmt(out["runtime_s"])
                out["policy_seconds"] = _fmt(out["policy_seconds"])
            w.writerow(out)
        for row in summary_rows:
            w.writerow(row)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_rows(fh)
    else:
        write_rows(sys.stdout)
    return 3 if any(r["status"] == "failed" for r in rows) else 0


def cmd_train(args) -> int:
    doc = read_json_object(args.manifest, "training manifest")
    where = f"training manifest {args.manifest}"
    check_keys(doc, where, ("family", "variant", "config", "train_instances", "val_instances"),
               ("family", "train_instances", "val_instances"))
    family = doc["family"]
    specs = bench_mod.manifest_specs(where, {
        key: (doc[key], {"family": family, "split": split})
        for key, split in (("train_instances", "train"), ("val_instances", "val"))
    })
    if not isinstance(doc.get("config", {}), dict):
        raise InputError(f"{where}: field 'config' must be an object")
    cfg = _load_cfg(args)
    variant = doc.get("variant", "scalar")
    tcfg = config_from_dict(doc.get("config", {}), TrainConfig)
    # before any solve or write, so that an unknown variant is refused first
    ckpt0 = init_checkpoint(variant, seed=tcfg.seed, metadata={"family": family, "optimizer": "spsa"})
    n_train = sum(s.split == "train" for s in specs)
    if not n_train:
        raise InputError(f"{where}: field 'train_instances' lists no instance")
    if tcfg.batch_size > n_train:
        raise InputError(f"{where}: config field 'batch_size' ({tcfg.batch_size}) exceeds "
                         f"the number of training instances ({n_train})")
    store = args.store or "instances"

    def build(split):
        return [bench_mod.ensure_instance(store, s, with_reference=True)
                for s in specs if s.split == split]

    train_set = build("train")
    val_set = build("val")
    print(f"train: {len(train_set)} training / {len(val_set)} validation instances", file=sys.stderr)

    try:
        norm_stats = collect_norm_stats([p for p, _ in train_set], variant, cfg)
    except InputError as exc:
        raise type(exc)(f"{where}: field 'train_instances': {exc}") from exc
    result = train(train_set, val_set, replace(ckpt0, norm_stats=norm_stats), tcfg, cfg)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.ckpt_iter, out / "ckpt_iter.json")
    save_checkpoint(result.ckpt_rho, out / "ckpt_rho.json")
    with open(out / "train_log.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["epoch", "mean_train_loss", "mean_val_iters", "mean_val_rho_updates"])
        w.writeheader()
        # None, the initial row's training loss, is written as an empty field
        w.writerows(([result.initial_row] if result.initial_row else []) + result.log_rows)
    if result.warning:
        print(f"train: warning: {result.warning}", file=sys.stderr)
    return 0


def _verify_one(task):
    store, spec, cfg, steps_n, drift_iters = task
    prob, ref = bench_mod.ensure_instance(store, spec, with_reference=True)
    entry = {"instance": spec.name}
    try:
        steps = record_trajectory(prob, replace(cfg, adaptive_rho=True), steps_n)
        entry["steps_recorded"] = len(steps)
        chk = reconstruct_drs(steps, prob)
        entry["max_transition_violation"] = chk.max_transition_violation
        entry["max_perturbation_violation"] = chk.max_perturbation_violation
        entry["worst_transition_step"] = chk.worst_transition_step
        entry["worst_perturbation_step"] = chk.worst_perturbation_step
        z_star = np.clip(prob.operators[0] @ ref.x_star, prob.l, prob.u)
        slacks = check_descent(steps, ref.x_star, z_star, ref.lambda_star, cfg.alpha_max)
        applied = slacks[~np.isnan(slacks)]  # NaN before the first consistent state
        entry["min_descent_slack"] = float(applied.min()) if applied.size else None
        entry["min_descent_slack_step"] = int(np.nanargmin(slacks)) if applied.size else None
        drift = run_drift_experiment(
            prob,
            DriftSchedule.inverse_square(drift_iters),
            drift_iters,
            cfg,
            ref.objective,
            seed=cfg.seed,
        )
        entry["drift_converged"] = drift.converged
        entry["drift_iterations"] = drift.iterations
    except TheoryViolationError as exc:
        entry["violation"] = str(exc)
    return entry


def cmd_verify(args) -> int:
    cfg = _load_cfg(args)
    specs = bench_mod.load_manifest(args.manifest)
    store = args.store or "instances"
    tasks = [(str(store), s, cfg, args.steps, args.drift_iters) for s in specs]
    results = _map(_verify_one, tasks, args.jobs)
    failed = any("violation" in r or not r.get("drift_converged", False) for r in results)
    payload = json.dumps(results, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")
    return 4 if failed else 0


class _Parser(argparse.ArgumentParser):
    """A usage error is an InputError: main prints it as the one
    ``relaxqp: error:`` line, after the usage text, and exits 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _positive_int(text: str) -> int:
    """The type of a count flag: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    # A parent parser holding one flag that several commands share.
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="relaxqp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    config = _flag("--config", help="solver config JSON file")
    max_iter = _flag("--max-iter", type=_positive_int, dest="max_iter",
                     help="override max iterations")
    adaptive_rho = _flag("--adaptive-rho", choices=("on", "off"), dest="adaptive_rho",
                         help="override penalty adaptation")

    p = sub.add_parser("solve", parents=[config, max_iter, adaptive_rho],
                       help="solve one problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--checkpoint", help="policy checkpoint JSON; without one, the fixed alpha0")
    p.add_argument("--out", help="output directory for report.json and residuals.csv")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", parents=[config, max_iter], help="run a benchmark manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", action="append", help="policy checkpoint (repeatable)")
    p.add_argument("--store", help="instance store directory")
    p.add_argument("--out", help="results CSV path")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", parents=[config, max_iter, adaptive_rho],
                       help="train a relaxation policy")
    p.add_argument("--manifest", required=True, help="training manifest JSON")
    p.add_argument("--store", help="instance store directory")
    p.add_argument("--out", help="output directory for checkpoints and log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", parents=[config], help="check the convergence theory numerically")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, help="override config seed, the drift runs' seed")
    p.add_argument("--store", help="instance store directory")
    p.add_argument("--steps", type=_positive_int, default=200, help="recorded iterations per instance")
    p.add_argument("--drift-iters", type=_positive_int, default=10000, dest="drift_iters")
    p.add_argument("--out", help="verification JSON path")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SolverError, OSError) as exc:
        print(f"relaxqp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
