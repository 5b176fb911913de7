import relaxqp

# The entry points of the four workflows (solve, bench, train, verify) and
# the error classes.
EXPORTS = {
    "solve": ["QpProblem", "SolveReport", "SolverConfig", "load_problem", "save_problem", "solve"],
    "bench": ["FamilySpec", "ReferenceSolution", "generate", "reference_solution"],
    "train": ["PolicyCheckpoint", "TrainConfig", "init_checkpoint", "load_checkpoint",
              "policy_from_checkpoint", "save_checkpoint", "train"],
    "verify": ["DriftSchedule", "check_descent", "reconstruct_drs", "run_drift_experiment"],
    "errors": ["DivergenceError", "InfeasibleBoundsError", "InputError", "PolicyError",
               "ReferenceFailureError", "SingularKktError", "SolverError", "TheoryViolationError"],
}
# Layer internals, imported from their modules only.
INTERNALS = {
    "engine": ["SolverState", "init_state", "iterate_once"],
    "linalg": ["KktTerms", "LdltFactor", "assemble_kkt", "ldlt_factor", "ldlt_solve"],
    "policy": ["NormStats", "mlp_forward"],
    "problem": ["Residuals", "classify", "objective", "osqp_residuals", "terminated"],
    "training": ["RolloutRecord", "rollout", "shaping", "stage_loss"],
}


def test_package_exports_the_workflow_entry_points():
    names = sorted(n for group in EXPORTS.values() for n in group)
    assert len(names) == 29
    assert sorted(relaxqp.__all__) == names
    for name in names:
        assert getattr(relaxqp, name).__name__ == name
    for module, group in INTERNALS.items():
        for name in group:
            assert not hasattr(relaxqp, name), name
            assert hasattr(getattr(relaxqp, module), name), (module, name)
