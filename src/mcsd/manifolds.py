"""The Stiefel manifold St(n, p): points, projection, tangent-space calculus.

St(n, p) is the set of n×p matrices with orthonormal columns (XᵀX = I).
The unit sphere is the p = 1 case. The Euclidean projection of a
full-column-rank ambient matrix onto St(n, p) is its polar factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FeasibilityError
from .linalg import as_matrix, frob_norms, msign_exact, sym_unchecked

# Every StiefelPoint satisfies ‖xᵀx − I‖_F ≤ FEAS_TOL.
FEAS_TOL = 1e-8


@dataclass(frozen=True)
class StiefelManifold:
    """Descriptor of St(n, p)."""

    n: int
    p: int

    def __post_init__(self):
        if self.p < 1 or self.n < self.p:
            raise ConfigurationError(f"St(n, p) needs 1 <= p <= n, got n={self.n}, p={self.p}")


class StiefelPoint:
    """An n×p matrix, or a stack (k, n, p) of them, certified to satisfy
    ‖xᵀx − I‖_F ≤ FEAS_TOL (each matrix of a stack).

    The stored array is a read-only copy, so points can be shared freely;
    `violation` keeps the certified ‖xᵀx − I‖_F (of a stack, the list of each
    matrix's), and `point[i]` is matrix i of a stack under that certificate.
    The feasibility norm is also the finiteness check: a non-finite entry
    makes it non-finite, and the constructor then raises ConfigurationError.
    A matrix beyond FEAS_TOL raises FeasibilityError, whose `index` is its
    place in the stack.
    """

    __slots__ = ("x", "manifold", "violation")

    def __init__(self, x, manifold: StiefelManifold):
        violation = feasibility_violation(x)  # the one validation of x
        x = np.array(x, dtype=np.float64, order="C")
        if x.shape[-2:] != (manifold.n, manifold.p):
            raise ConfigurationError(
                f"point shape {x.shape} does not match St({manifold.n}, {manifold.p})"
            )
        for index, v in enumerate(violation if x.ndim == 3 else (violation,)):
            if not v <= FEAS_TOL:
                raise FeasibilityError(
                    f"matrix violates the orthonormality constraint: |x'x - I|_F = {v:.3e} > {FEAS_TOL:.1e}", index
                )
        x.flags.writeable = False
        self.x = x
        self.manifold = manifold
        self.violation = violation

    def __getitem__(self, i: int) -> StiefelPoint:
        point = object.__new__(StiefelPoint)
        point.x, point.manifold, point.violation = self.x[i], self.manifold, self.violation[i]
        return point

    def __repr__(self):
        m = self.manifold
        return f"StiefelPoint(St({m.n}, {m.p}))"


def feasibility_violation(x):
    """‖xᵀx − I_p‖_F, the orthonormality-constraint violation, of a matrix,
    or the list of each matrix's of a stack (k, n, p), with its own call's
    bits, from one stacked product. A non-finite entry of x makes xᵀx, and
    so the norm, non-finite, and raises ConfigurationError (frob_norms)."""
    x = as_matrix(x, "Stiefel point", finite=False)
    g = x.T.dot(x) if x.ndim == 2 else x.swapaxes(-1, -2) @ x
    p = g.shape[-1]
    g.reshape(-1, p * p)[:, :: p + 1] -= 1.0
    violation = frob_norms(g, "matrix", source=x)
    return violation if x.ndim == 2 else violation.tolist()


def project(m: StiefelManifold, y) -> StiefelPoint:
    """Euclidean projection P_M onto St(n, p) of a full-column-rank matrix,
    or of each matrix of a stack (k, n, p): its exact polar factor (whose
    max|y| reduction rejects non-finite input), certified by StiefelPoint
    (which rejects another shape). The factor of a rank-r y is the partial
    isometry U_r·V_rᵀ, with ‖xᵀx − I‖_F = √(p − r), so StiefelPoint raises
    FeasibilityError, whose `index` is the matrix's place in a stack."""
    return StiefelPoint(msign_exact(y), m)


def riemannian_grad(x: StiefelPoint, g) -> np.ndarray:
    """Riemannian gradient: the orthogonal projection of the Euclidean
    gradient g onto the tangent space at x.

    Returns g − x·sym(xᵀg); the result z satisfies xᵀz + zᵀx = 0.
    """
    g = as_matrix(g, "tangent-projection input")
    if g.shape != x.x.shape:
        raise ConfigurationError(f"gradient shape {g.shape} does not match point shape {x.x.shape}")
    return tangent_component(x.x, g)


def tangent_component(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g − x·sym(xᵀg) for arrays the caller has already checked, or for each
    pair of matrices of two stacks of them on leading axes."""
    if x.ndim == 2:  # ndarray.dot, as the step's 2-D products take (see linalg)
        return g - x.dot(sym_unchecked(x.T.dot(g)))
    return g - x @ sym_unchecked(x.swapaxes(-1, -2) @ g)


def random_point(m: StiefelManifold, rng: np.random.Generator) -> StiefelPoint:
    """Haar-uniform point on St(n, p): polar factor of a Gaussian draw.

    Deterministic for a given generator state. A rank-deficient draw
    (probability 0) raises FeasibilityError, as project does.
    """
    return project(m, rng.standard_normal((m.n, m.p)))
