"""relaxqp: a quadratic-program solver built on the consensus ADMM splitting used by
OSQP-style solvers, with dense and sparse linear algebra, extended with
per-constraint, time-varying relaxation parameters.

The package exports the entry points of its four workflows (solve, bench,
train, verify) and the error classes; everything else is imported from its
module, e.g. ``relaxqp.engine.init_state``."""

from .bench import FamilySpec, ReferenceSolution, generate, reference_solution
from .engine import SolveReport, SolverConfig, solve
from .errors import (
    DivergenceError,
    InfeasibleBoundsError,
    InputError,
    PolicyError,
    ReferenceFailureError,
    SingularKktError,
    SolverError,
    TheoryViolationError,
)
from .policy import (
    PolicyCheckpoint,
    init_checkpoint,
    load_checkpoint,
    policy_from_checkpoint,
    save_checkpoint,
)
from .problem import QpProblem, load_problem, save_problem
from .training import TrainConfig, train
from .verify import DriftSchedule, check_descent, reconstruct_drs, run_drift_experiment

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "DriftSchedule",
    "FamilySpec",
    "InfeasibleBoundsError",
    "InputError",
    "PolicyCheckpoint",
    "PolicyError",
    "QpProblem",
    "ReferenceFailureError",
    "ReferenceSolution",
    "SingularKktError",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "TheoryViolationError",
    "TrainConfig",
    "check_descent",
    "generate",
    "init_checkpoint",
    "load_checkpoint",
    "load_problem",
    "policy_from_checkpoint",
    "reconstruct_drs",
    "reference_solution",
    "run_drift_experiment",
    "save_checkpoint",
    "save_problem",
    "solve",
    "train",
]
