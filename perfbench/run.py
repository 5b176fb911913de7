"""relaxqp benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; relaxqp is imported from ``src/``.  The run
warms up, then repeats whole passes of the workload until ``--seconds`` of
passes have run and the workload's minimum number of passes is done, one
operation at a time in this one process.  The workload is set up once before
the first pass and again between passes (``setup_s`` is the median set-up).
Every operation's output is checked; counts must repeat exactly from pass to
pass.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the untraced passes are followed
by one traced set-up and one traced pass, and the JSON carries the per-layer
metrics and the tracing overhead instead.  The exit code is 0 only when every
check passed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    import numpy as np
    import scipy

    import relaxqp
except ImportError as exc:
    sys.exit(f"perfbench: cannot import relaxqp from {ROOT / 'src'}: {exc}")
if Path(relaxqp.__file__).resolve().parent != (ROOT / "src" / "relaxqp").resolve():
    sys.exit(f"perfbench: relaxqp was imported from {relaxqp.__file__}, not from {ROOT / 'src'}")

from spans import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, warm_up  # noqa: E402

_clock = time.perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Spans reported from the traced set-up, under a "setup." prefix, and spans
# reported from the traced pass; generating, reference-solving and writing
# problems happen only in set-up.
SETUP_SPANS = ("bench.generate", "bench.reference", "problem.validate", "problem.save")
RUN_SPANS = tuple(s for s in SPANS if s not in ("bench.generate", "bench.reference", "problem.save"))


def per_layer_units() -> dict:
    units = {}
    for span in RUN_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for span in SETUP_SPANS:
        units[f"setup.{span}.calls"] = "count"
        units[f"setup.{span}.self_s"] = "s"
    units.update(
        {
            "setup.bench.reference.iters": "count",
            "setup.traced_s": "s",
            "linalg.factor.gflop": "GFLOP",
            "linalg.factor.gflops": "GFLOP/s",
            "linalg.solve.bytes": "B",
            "engine.iter_overhead_us": "us",
            "engine.rho_update.accept_ratio": "ratio",
            "policy.features.rows": "count",
            "policy.mlp.rows": "count",
            "training.validation_solves": "count",
            "verify.drift.refactors": "count",
            "verify.violations": "count",
            "ops.attempted": "count",
            "ops.iterations": "count",
            "ops.rho_updates": "count",
            "ops.fail_frac": "ratio",
            "trace.untraced_wall_s": "s",
            "trace.traced_wall_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


def percentile_tail(samples: list[float]):
    """Highest of p99.9 / p99 / p90 with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0):
        k = int(n * p / 100.0)  # samples at or below the percentile
        if k < n and n - k - 1 >= 10:
            return p, ordered[k], n - k - 1
    return None


def pass_counts(ops) -> dict:
    """Counts of one pass; ``fail_frac`` also counts theory violations."""
    return {
        "ops": len(ops),
        "iterations": sum(op.iterations for op in ops),
        "rho_updates": sum(op.rho_updates for op in ops),
        "errors": sum(1 for op in ops if op.error),
        "violations": sum(1 for op in ops if op.violation),
        "fail_frac": sum(1 for op in ops if op.error or op.violation) / len(ops),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "relaxqp": relaxqp.__version__,
        "git_commit": git_commit(),
    }


def layer_metrics(run: Tracer, setup: Tracer, ops, untraced_wall: float, traced_wall: float) -> dict:
    m = {}
    for span in RUN_SPANS:
        m[f"{span}.calls"] = run.calls.get(span, 0)
        m[f"{span}.self_s"] = run.self_s.get(span, 0.0)
    for span in SETUP_SPANS:
        m[f"setup.{span}.calls"] = setup.calls.get(span, 0)
        m[f"setup.{span}.self_s"] = setup.self_s.get(span, 0.0)
    c = run.counters
    gflop = c.get("linalg.factor.gflop", 0.0)
    factor_s = run.self_s.get("linalg.factor", 0.0)
    iterations = run.calls.get("engine.iterate", 0)
    engine_self = run.self_s.get("engine.solve", 0.0) + run.self_s.get("engine.iterate", 0.0)
    rho_checks = run.calls.get("engine.rho_update", 0)
    counts = pass_counts(ops)
    m.update(
        {
            "setup.bench.reference.iters": setup.counters.get("bench.reference.iters", 0),
            "setup.traced_s": setup.total_s.get("setup", 0.0),
            "linalg.factor.gflop": gflop,
            "linalg.factor.gflops": gflop / factor_s if factor_s > 0 else 0.0,
            "linalg.solve.bytes": c.get("linalg.solve.bytes", 0.0),
            "engine.iter_overhead_us": 1e6 * engine_self / iterations if iterations else 0.0,
            "engine.rho_update.accept_ratio": (
                c.get("engine.rho_update.accepted", 0.0) / rho_checks if rho_checks else 0.0
            ),
            "policy.features.rows": c.get("policy.features.rows", 0),
            "policy.mlp.rows": c.get("policy.mlp.rows", 0),
            "training.validation_solves": c.get("training.validation_solves", 0),
            "verify.drift.refactors": c.get("verify.drift.refactors", 0),
            "verify.violations": counts["violations"],
            "ops.attempted": counts["ops"],
            "ops.iterations": counts["iterations"],
            "ops.rho_updates": counts["rho_updates"],
            "ops.fail_frac": counts["fail_frac"],
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    return m


def tracer_checks(workload, run: Tracer, setup: Tracer, stray: list, traced_wall: float) -> list[str]:
    """The tracer's own self-test, run on every traced pass."""
    errs = [f"tracer left {name} unwrapped" for name in stray]
    for tr in (run, setup):
        errs += [f"tracer did not restore {name}" for name in tr.unrestored()]
    for tr, names, phase in ((run, workload.exercises, "pass"), (setup, workload.setup_exercises, "set-up")):
        for name in names:
            if not (tr.calls.get(name) or tr.counters.get(name)):
                errs.append(f"{name} has no calls in the traced {phase} of {workload.name}")
    if abs(run.self_sum() - traced_wall) > 0.01 * traced_wall + 0.005:
        errs.append(f"self times sum to {run.self_sum():.4f} s, traced wall is {traced_wall:.4f} s")
    return errs


def describe(name: str, value, unit: str, note: str = "") -> str:
    return f"{name:<16} {value:>14.6g} {unit:<8} {note}".rstrip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    workdir = Path.cwd() / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(wl, args, workdir: Path) -> int:
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    # Printed on a line of its own: the result line carries exactly the keys
    # correct, attempted, failed and metrics.
    print("meta " + json.dumps(metadata(), sort_keys=True))
    warm_up(workdir)

    setup_times = []

    def timed_setup():
        t0 = _clock()
        state = wl.setup(args.seed, workdir)
        setup_times.append(_clock() - t0)
        return state

    # This machine runs identical work 10-30% faster or slower for seconds at
    # a time, so a run takes the median of at least three passes where a pass
    # is short enough (one paper_grid pass already takes longer than a run
    # should), and spreads its set-ups between the passes rather than timing
    # them all in one window.  Every set-up builds the same state; the passes
    # use the first.
    state = timed_setup()
    per_gap = -(-(wl.setups - 1) // wl.min_passes)
    walls, passes = [], []
    while len(passes) < wl.min_passes or sum(walls) < args.seconds:
        t0 = _clock()
        ops = wl.run_pass(state)
        walls.append(_clock() - t0)
        passes.append(ops)
        for _ in range(min(per_gap, wl.setups - len(setup_times))):
            timed_setup()

    errors = [e for ops in passes for op in ops for e in op.check_errors]
    first = [op.counts for op in passes[0]]
    for i, ops in enumerate(passes[1:], start=2):
        if [op.counts for op in ops] != first:
            errors.append(f"pass {i} counts differ from pass 1")
    latencies = [1e3 * op.seconds for ops in passes for op in ops]
    attempted = sum(len(ops) for ops in passes)
    failed = sum(1 for ops in passes for op in ops if op.error)
    counts = pass_counts(passes[0])

    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(describe("setup_s", e2e["setup_s"], "s", f"median of {len(setup_times)} set-ups"))
    print(describe("wall_s", e2e["wall_s"], "s", f"median of {len(walls)} passes"))
    print(describe("op_p50_ms", e2e["op_p50_ms"], "ms", f"p50 of n={len(latencies)} operations"))
    tail = percentile_tail(latencies)
    if tail is None:
        print(f"{'op_tail_ms':<16} {'-':>14} ms       no percentile above p50 has 10 samples beyond it (n={len(latencies)})")
    else:
        p, value, beyond = tail
        print(describe("op_tail_ms", value, "ms", f"p{p:g} of n={len(latencies)}, {beyond} beyond"))
    print(describe("iterations", counts["iterations"], "count", "per pass, identical in every pass"))
    print(describe("rho_updates", counts["rho_updates"], "count", "per pass, identical in every pass"))
    print(
        describe(
            "fail_frac", counts["fail_frac"], "ratio",
            f"per pass: {counts['errors']} solver errors or unsolved, "
            f"{counts['violations']} theory violations or unconverged drift runs, of {counts['ops']}",
        )
    )
    print(describe("peak_rss_mb", e2e["peak_rss_mb"], "MB", "whole process, set-up included"))
    for op in passes[0]:
        if op.error or op.violation:
            print(f"  not passed: {op.name}: {op.error or op.violation}")

    if args.trace:
        setup_tracer = Tracer()
        with setup_tracer.active("setup"):
            wl.setup(args.seed, workdir)
        run_tracer = Tracer()
        t0 = _clock()
        with run_tracer.active("run"):
            stray = run_tracer.stray()
            traced_ops = wl.run_pass(state)
        traced_wall = _clock() - t0
        errors += [e for op in traced_ops for e in op.check_errors]
        if [op.counts for op in traced_ops] != first:
            errors.append("traced pass counts differ from the untraced passes")
        errors += tracer_checks(wl, run_tracer, setup_tracer, stray, traced_wall)
        values = layer_metrics(run_tracer, setup_tracer, traced_ops, e2e["wall_s"], traced_wall)
        print(f"tracing overhead {values['trace.overhead_frac']:+.1%} "
              f"(traced pass {traced_wall:.3f} s vs untraced median {e2e['wall_s']:.3f} s)")
        units = per_layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END}

    for e in errors:
        print(f"CHECK FAILED: {e}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
