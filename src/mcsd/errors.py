"""Exception types shared across the library."""


class ConfigurationError(ValueError):
    """Invalid dimensions, parameters, or configuration input."""


class NumericError(RuntimeError):
    """A numeric routine failed: non-convergence, overflow. `index` is the
    matrix of a stack (k, n, p) at fault, where one is."""

    index: int | None = None


class FeasibilityError(NumericError):
    """An iterate violates the manifold constraint beyond tolerance."""


class ZeroGradient(Exception):
    """Signal raised by the LMO when its input is numerically zero.

    At zero every unit-ball element is optimal, so there is no canonical
    direction. Optimizers catch this and hold position.
    """
