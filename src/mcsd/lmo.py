"""Linear minimization oracles over unit norm balls, and dual norms.

lmo(norm, s) returns argmin ⟨s, d⟩ over ‖d‖ ≤ 1; the attained value is
−‖s‖_* where ‖·‖_* is the dual norm. Frobenius is self-dual with oracle
−s/‖s‖_F; the dual of spectral is nuclear, with oracle −msign(s), which is
−U_r·V_rᵀ over the nonzero singular values when s is rank-deficient.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .linalg import EXACT, PolarMode, Spectrum, as_matrix, frob_norms, svd


class NormKind(enum.Enum):
    FROBENIUS = "frobenius"
    SPECTRAL = "spectral"


def zero_tolerance(n: int, p: int) -> float:
    """Frobenius-norm threshold below which the LMO input counts as zero."""
    return 1e-14 * math.sqrt(n * p)


def lmo(norm: NormKind, s, polar_mode: PolarMode = EXACT, spectrum: Spectrum | None = None) -> np.ndarray:
    """Minimizer of ⟨s, d⟩ over the unit ball of `norm`.

    Total: when ‖s‖_F is at most zero_tolerance every unit-ball element is
    optimal, and the zero direction is returned (optimizers then hold
    position, since P_M(x + α·0) = x). The spectral oracle is −msign(s),
    which takes sign(0) = 0 on the null singular values of a rank-deficient
    s. `polar_mode` picks how msign(s) is computed: exactly, or by the
    paper's fast iterative sign. Given `spectrum`, factorize(s,
    polar_mode.iters) of the matrix or of the stack, the spectral oracle
    reads msign(s) from it instead of factoring s again, with the same bits.

    A stack (k, n, p) gives each matrix's minimizer, with the bits of its own
    call, from one call per operation under either sign, and a matrix below
    zero_tolerance its zero slice.
    """
    s = as_matrix(s, "lmo input", finite=False)
    fro = frob_norms(s, "lmo input")
    zero = fro <= zero_tolerance(*s.shape[-2:])
    if norm is NormKind.FROBENIUS:
        # a matrix divides by the float: the same IEEE quotient, 2 µs cheaper at 200x5
        d = -s / (np.where(zero, 1.0, fro)[:, None, None] if s.ndim == 3 else 1.0 if zero else fro)
    else:
        d = -(polar_mode.apply(s) if spectrum is None else spectrum.sign())
    if s.ndim == 3 or zero:  # on a matrix the masked write costs about as much as the rest of the call
        d[zero] = 0.0
    return d


def dual_norm(norm: NormKind, s):
    """Dual norm ‖s‖_* = sup{⟨s, d⟩ : ‖d‖ ≤ 1} of the chosen norm: a float,
    or for a stack (k, n, p) the array of each matrix's norm, with the bits
    of its own call. The nuclear norm is the sum of linalg.svd's singular
    values; a run's metric record reads it from the gradient's Spectrum
    instead (Spectrum.nuclear_norm)."""
    if norm is NormKind.SPECTRAL:
        sigma = svd(s, "dual-norm input", compute_uv=False)
        return float(sigma.sum()) if sigma.ndim == 1 else sigma.sum(axis=-1)
    return frob_norms(as_matrix(s, "dual-norm input", finite=False), "dual-norm input")


def norm_equiv_constant(norm: NormKind, n: int, p: int) -> float:
    """Smallest N with ‖x‖_F ≤ N·‖x‖ on n×p matrices.

    Frobenius: 1. Spectral: sqrt(min(n, p)), tight for matrices with
    min(n, p) equal singular values.
    """
    if norm is NormKind.FROBENIUS:
        return 1.0
    return math.sqrt(min(n, p))
