"""Outside-in span tracer for relaxqp.

The tracer replaces relaxqp's public functions by timing wrappers without
editing the package.  A function imported by name into another module
(``engine`` binds ``ldlt_factor``, ``verify`` binds ``iterate_once``,
``training`` binds ``solve`` ...) is reached through that module's own
binding, so every binding of the original object in every loaded relaxqp
module is replaced; a binding left unwrapped would lose its spans silently.

Spans are aggregated in memory as they close: per span name the call count,
inclusive time and self time (inclusive time minus the time of child spans),
plus named counters that hooks add (computed flops, computed bytes, rows).
"""

import sys
import time
from contextlib import contextmanager

import numpy as np

from relaxqp import bench, engine, linalg, policy, problem, training, verify
from relaxqp.problem import QpProblem

_clock = time.perf_counter


class Tracer:
    """Span and counter aggregation for one traced phase."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        # Open spans as [name, time spent in closed children].
        self._stack: list[list] = []
        # (namespace, attribute, original) of every binding ever wrapped.
        self._patches: list[tuple[object, str, object]] = []
        self._installed = False

    # -- recording ---------------------------------------------------------

    def _close(self, frame: list, dur: float) -> None:
        name = frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def parent(self) -> str | None:
        """Name of the innermost open span (the caller, inside a hook)."""
        return self._stack[-1][0] if self._stack else None

    @contextmanager
    def root(self, name: str):
        """Root span: every self time recorded inside it sums to its duration."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            dur = _clock() - t0
            self._stack.pop()
            self._close(frame, dur)

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper for ``fn``; ``hook(tracer, args, result)`` runs after
        a successful call, with the caller's span on top of the stack."""
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                close(frame, dur)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each target in every loaded relaxqp module."""
        if self._patches:
            raise RuntimeError("a tracer is installed once")
        self._installed = True
        namespaces = relaxqp_modules()
        for name, owner, attr, hook in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original binding back, in reverse order."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    @property
    def bindings(self) -> list[tuple[object, str, object]]:
        """(namespace, attribute, original) for every binding now wrapped."""
        return list(self._patches) if self._installed else []

    def stray(self) -> list[str]:
        """Bindings of a wrapped original that were left unwrapped."""
        originals = {id(orig) for _, _, orig in self.bindings}
        return [
            f"{mod.__name__}.{key}"
            for mod in relaxqp_modules()
            for key, value in vars(mod).items()
            if id(value) in originals
        ]

    def unrestored(self) -> list[str]:
        """Bindings that do not hold their original after :meth:`uninstall`."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if getattr(owner, attr) is not original
        ]

    @contextmanager
    def active(self, root_name: str):
        self.install()
        try:
            with self.root(root_name):
                yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def self_sum(self) -> float:
        return float(sum(self.self_s.values()))


def relaxqp_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "relaxqp" or key.startswith("relaxqp."))
    ]


# -- hooks: counts at the layer boundaries ----------------------------------


def _factor_flops(tr: Tracer, args, result) -> None:
    d = result.dim
    tr.count("linalg.factor.gflop", d**3 / 3.0 / 1e9)


def _solve_bytes(tr: Tracer, args, result) -> None:
    d = args[0].dim
    tr.count("linalg.solve.bytes", 3.0 * 8.0 * d * d)


def _engine_solve(tr: Tracer, args, result) -> None:
    caller = tr.parent()
    if caller == "training.train":
        tr.count("training.validation_solves")
    elif caller == "bench.reference":
        tr.count("bench.reference.iters", result.iterations)


def _refactor(tr: Tracer, args, result) -> None:
    if tr.parent() == "verify.drift":
        tr.count("verify.drift.refactors")


def _rho_update(tr: Tracer, args, result) -> None:
    if result[1]:
        tr.count("engine.rho_update.accepted")


def _global_rows(tr: Tracer, args, result) -> None:
    tr.count("policy.features.rows", 1)


def _feature_rows(tr: Tracer, args, result) -> None:
    tr.count("policy.features.rows", result.shape[0])


def _mlp_rows(tr: Tracer, args, result) -> None:
    out = np.asarray(result)
    tr.count("policy.mlp.rows", out.shape[0] if out.ndim else 1)


# (span name, owner, attribute, hook).  Owners that are classes are patched
# on the class itself; module functions in every namespace that binds them.
TARGETS = (
    ("linalg.assemble", linalg, "assemble_kkt", None),
    ("linalg.factor", linalg, "ldlt_factor", _factor_flops),
    ("linalg.solve", linalg, "ldlt_solve", _solve_bytes),
    ("problem.validate", QpProblem, "__post_init__", None),
    ("problem.residuals", problem, "osqp_residuals", None),
    ("problem.terminated", problem, "terminated", None),
    ("problem.load", problem, "load_problem", None),
    ("problem.save", problem, "save_problem", None),
    ("engine.solve", engine, "solve", _engine_solve),
    ("engine.init", engine, "init_state", None),
    ("engine.iterate", engine, "iterate_once", None),
    ("engine.refactor", engine, "refactor", _refactor),
    ("engine.rho_update", engine, "maybe_update_rho", _rho_update),
    ("engine.policy_query", engine, "apply_policy", None),
    ("policy.features", policy, "extract_global", _global_rows),
    ("policy.features", policy, "extract_rows", _feature_rows),
    ("policy.mlp", policy, "mlp_forward", _mlp_rows),
    ("training.train", training, "train", None),
    ("training.rollout", training, "rollout", None),
    ("training.stage_loss", training, "stage_loss", None),
    ("training.norm_stats", training, "collect_norm_stats", None),
    ("verify.record", verify, "record_trajectory", None),
    ("verify.reconstruct", verify, "reconstruct_drs", None),
    ("verify.descent", verify, "check_descent", None),
    ("verify.drift", verify, "run_drift_experiment", None),
    ("bench.generate", bench, "generate", None),
    ("bench.reference", bench, "reference_solution", None),
)

SPANS = tuple(dict.fromkeys(t[0] for t in TARGETS))
