"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for all relaxqp errors."""


class InputError(SolverError, ValueError):
    """Malformed or inconsistent user input (dimensions, bounds, files)."""


class InfeasibleBoundsError(InputError):
    """A constraint row has lower bound strictly above its upper bound."""


class SingularKktError(SolverError):
    """KKT factorization hit a non-positive pivot: the matrix is singular or
    indefinite, or too ill-conditioned to factor in floating point.  The
    latter is named when the diagonal entries are positive and the largest
    exceeds the smallest by more than 1/eps; ``diag_ratio`` is then that
    ratio, and None otherwise."""

    def __init__(self, step: int, index: int, pivot: float, diag_ratio: float | None = None):
        self.step = step
        self.index = index
        self.pivot = pivot
        self.diag_ratio = diag_ratio
        kind = "singular KKT system" if diag_ratio is None else (
            f"ill-conditioned KKT system (diagonal entries span a ratio of {diag_ratio:.3e})"
        )
        super().__init__(
            f"{kind}: pivot {pivot:.3e} below threshold at "
            f"elimination step {step} (matrix index {index})"
        )


class DivergenceError(SolverError):
    """An iterate became non-finite."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"solver diverged: non-finite iterate at iteration {iteration}")


class PolicyError(SolverError):
    """A relaxation policy produced an unusable (non-finite) output."""


class TheoryViolationError(SolverError):
    """A numerically checked identity or inequality failed beyond tolerance."""

    def __init__(self, message: str, iteration: int | None = None):
        self.iteration = iteration
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)


class ReferenceFailureError(SolverError):
    """No reference solution reached the required KKT error: the eps = 1e-9
    solve stopped at max_iter, or its point missed the tolerance, and the
    message then gives the primal, dual and normal-cone residuals."""
