"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for all relaxqp errors."""


class InputError(SolverError, ValueError):
    """Malformed or inconsistent user input (dimensions, bounds, files)."""


class InfeasibleBoundsError(InputError):
    """A constraint row has lower bound strictly above its upper bound."""


class SingularKktError(SolverError):
    """KKT factorization hit a non-positive pivot: the matrix is singular or
    indefinite."""

    def __init__(self, step: int, index: int, pivot: float):
        self.step = step
        self.index = index
        self.pivot = pivot
        super().__init__(
            f"singular KKT system: pivot {pivot:.3e} below threshold at "
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
    """High-accuracy reference solve failed to reach the required KKT error."""
