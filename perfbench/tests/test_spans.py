"""Self-test of the benchmark's tracer and of its traced runs.

    python3 -m pytest perfbench/tests -q

The workload tests run ``perfbench/run.py --trace 1`` once per workload
(about three minutes in total on two cores); select the quick tracer tests
with ``-k "not workload"``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import relaxqp as rq  # noqa: E402
from relaxqp import bench, engine, linalg, problem, training, verify  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from run import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Bindings that a per-module patch would miss: functions imported by name.
BY_NAME = (
    (engine, "ldlt_factor", linalg.ldlt_factor),
    (engine, "ldlt_solve", linalg.ldlt_solve),
    (engine, "assemble_kkt", linalg.assemble_kkt),
    (engine, "osqp_residuals", problem.osqp_residuals),
    (engine, "terminated", problem.terminated),
    (verify, "refactor", engine.refactor),
    (verify, "iterate_once", engine.iterate_once),
    (verify, "init_state", engine.init_state),
    (verify, "solve", engine.solve),
    (training, "solve", engine.solve),
    (bench, "solve", engine.solve),
    (bench, "osqp_residuals", problem.osqp_residuals),
    (bench, "load_problem", problem.load_problem),
    (bench, "save_problem", problem.save_problem),
    (rq, "solve", engine.solve),
)


def test_every_binding_is_wrapped_and_restored():
    originals = {(mod.__name__, attr): fn for mod, attr, fn in BY_NAME}
    tr = Tracer()
    tr.install()
    try:
        for mod, attr, fn in BY_NAME:
            wrapped = getattr(mod, attr)
            assert wrapped is not fn, f"{mod.__name__}.{attr} left unwrapped"
            assert wrapped.__wrapped__ is fn
        assert rq.QpProblem.__post_init__.__wrapped__ is not None
        assert tr.stray() == []
    finally:
        tr.uninstall()
    for mod, attr, _ in BY_NAME:
        assert getattr(mod, attr) is originals[(mod.__name__, attr)]
    assert not hasattr(rq.QpProblem.__post_init__, "__wrapped__")
    assert tr.unrestored() == []
    assert tr.bindings == []


def test_stray_binding_is_reported():
    tr = Tracer()
    tr.install()
    try:
        original = tr.bindings[0][2]
        engine._late_alias = original  # bound after install, so not wrapped
        assert "relaxqp.engine._late_alias" in tr.stray()
    finally:
        del engine._late_alias
        tr.uninstall()


def test_self_times_sum_to_traced_wall_time():
    prob = rq.generate(rq.FamilySpec("portfolio", 10, seed=3))
    tr = Tracer()
    t0 = time.perf_counter()
    with tr.active("run"):
        rep = rq.solve(prob, rq.SolverConfig(adaptive_rho=True))
        rq.reference_solution(prob)
    wall = time.perf_counter() - t0
    assert tr.self_sum() == pytest.approx(wall, rel=0.01, abs=0.005)
    assert tr.calls["engine.solve"] == 2
    assert tr.calls["engine.iterate"] >= rep.iterations
    assert tr.calls["linalg.factor"] == tr.calls["engine.init"] + tr.calls.get("engine.refactor", 0)
    # A child's time is inside its parent's total but not its parent's self time.
    assert tr.self_s["engine.solve"] < tr.total_s["engine.solve"]
    assert tr.counters["bench.reference.iters"] > 0
    assert tr.unrestored() == []


def test_span_names_match_the_benchmark_file():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert declared == per_layer_units()
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    spans = {t[0] for t in TARGETS}
    for wl in WORKLOADS.values():
        assert set(wl.exercises) <= spans | set(declared)
        for name in wl.setup_exercises:
            assert f"setup.{name}" in declared or f"setup.{name}.calls" in declared, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_traced_run(workload, tmp_path):
    """A traced run passes every check: each span named for the workload has
    calls in the traced pass or set-up, self times sum to the traced wall
    time, originals are restored,
    counts match the untraced pass, and the tracing overhead is reported."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("tracing overhead") for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == set(per_layer_units())
    assert "trace.overhead_frac" in metrics
    for name in WORKLOADS[workload].exercises:
        key = name if name in metrics else f"{name}.calls"
        assert metrics[key]["value"] > 0, name
    for name in WORKLOADS[workload].setup_exercises:
        key = f"setup.{name}" if f"setup.{name}" in metrics else f"setup.{name}.calls"
        assert metrics[key]["value"] > 0, name
    assert not list(tmp_path.iterdir()), "the run left files behind"
