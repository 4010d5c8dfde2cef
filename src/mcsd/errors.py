"""Exception types shared across the library."""


class ConfigurationError(ValueError):
    """Invalid dimensions, parameters, or configuration input."""


class NumericError(RuntimeError):
    """A numeric routine failed: non-convergence, overflow. `index` is the
    matrix of a stack (k, n, p) at fault, where one is."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class FeasibilityError(NumericError):
    """An iterate violates the manifold constraint beyond tolerance."""
