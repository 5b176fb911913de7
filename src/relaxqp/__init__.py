"""relaxqp: a quadratic-program solver built on the consensus ADMM splitting used by
OSQP-style solvers, with dense and sparse linear algebra, extended with
per-constraint, time-varying relaxation parameters."""

from .bench import FamilySpec, ReferenceSolution, generate, reference_solution
from .engine import (
    SolveReport,
    SolverConfig,
    SolverState,
    init_state,
    iterate_once,
    solve,
)
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
from .linalg import KktTerms, LdltFactor, assemble_kkt, ldlt_factor, ldlt_solve
from .policy import (
    NormStats,
    PolicyCheckpoint,
    init_checkpoint,
    load_checkpoint,
    mlp_forward,
    policy_from_checkpoint,
    save_checkpoint,
)
from .problem import (
    QpProblem,
    Residuals,
    classify,
    load_problem,
    objective,
    osqp_residuals,
    save_problem,
    terminated,
)
from .training import RolloutRecord, TrainConfig, rollout, shaping, stage_loss, train
from .verify import DriftSchedule, check_descent, reconstruct_drs, run_drift_experiment

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "DriftSchedule",
    "FamilySpec",
    "InfeasibleBoundsError",
    "InputError",
    "KktTerms",
    "LdltFactor",
    "NormStats",
    "PolicyCheckpoint",
    "PolicyError",
    "QpProblem",
    "ReferenceFailureError",
    "ReferenceSolution",
    "Residuals",
    "RolloutRecord",
    "SingularKktError",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "SolverState",
    "TheoryViolationError",
    "TrainConfig",
    "assemble_kkt",
    "check_descent",
    "classify",
    "generate",
    "init_checkpoint",
    "init_state",
    "iterate_once",
    "ldlt_factor",
    "ldlt_solve",
    "load_checkpoint",
    "load_problem",
    "mlp_forward",
    "objective",
    "osqp_residuals",
    "policy_from_checkpoint",
    "reconstruct_drs",
    "reference_solution",
    "rollout",
    "run_drift_experiment",
    "save_checkpoint",
    "save_problem",
    "shaping",
    "solve",
    "stage_loss",
    "terminated",
    "train",
]
