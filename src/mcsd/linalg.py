"""Dense float64 matrix kernels: SVD, the spectral norm and the polar factor.

The polar factor (``msign``) of a full-column-rank matrix Y is the nearest
matrix with orthonormal columns, Y(YᵀY)^(-1/2) = UVᵀ for the SVD Y = UΣVᵀ.
Both routes share one kernel: Y is scaled by max|Y| (and transposed if
wide), the small Gram matrix G = YᵀY = V·diag(w)·Vᵀ is diagonalised once,
and the result is Y·V·diag(h(w))·Vᵀ for a scalar map h of the eigenvalues.
The exact route takes h(w) = w^(-1/2) when the long side is at least twice
the short one, the matrix is not tiny and κ(Y) < 100, and the SVD
otherwise. The iterative route takes for h the k-step odd polynomial of a
configurable coefficient schedule (cubic Newton-Schulz by default),
evaluated on the spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError, RankDeficiencyError

# Relative threshold below which the smallest singular value is treated as
# zero: the polar factor is then not uniquely defined.
RANK_TOL_FACTOR = 1e-10

# Iterates whose Frobenius norm exceeds this multiple of sqrt(min(n, p))
# cannot converge to a partial isometry; the iteration has diverged.
DIVERGENCE_FACTOR = 10.0

# The exact route uses the Gram eigendecomposition only when w_min exceeds
# this fraction of w_max (κ < 100): its orthogonality error grows as
# κ²·1e-16, about 1e-12 at the limit.
GRAM_EIG_RATIO = 1e-4

# The exact route also needs n·p² ≥ GRAM_MIN_WORK. Below it the SVD is
# faster, because the Gram route makes more numpy calls per matrix (crossover
# measured near 2e3 with single-threaded OpenBLAS: 50x3 favours the SVD,
# 200x5 the Gram route).
GRAM_MIN_WORK = 2000


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    m = as_2d(a, name)
    if not np.all(np.isfinite(m)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return m


def as_2d(a, name: str = "matrix") -> np.ndarray:
    """`a` as a non-empty 2-D float64 array, without the finiteness scan.

    For callers whose first reduction over the array (a norm or max|a|)
    propagates NaN and inf and so doubles as the finiteness check.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ConfigurationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    return m


def max_abs(a: np.ndarray, name: str = "matrix") -> float:
    """max|a_ij|; raises ConfigurationError if an entry is NaN or ±inf."""
    hi = float(a.max())
    lo = float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return max(hi, -lo)


def sym(a) -> np.ndarray:
    """Symmetric part (a + aᵀ)/2 of a square matrix; exactly symmetric."""
    a = as_matrix(a, "sym input")
    if a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"sym requires a square matrix, got {a.shape}")
    return sym_unchecked(a)


def sym_unchecked(a: np.ndarray) -> np.ndarray:
    """(a + aᵀ)/2 of a square array the caller built itself."""
    return 0.5 * (a + a.T)


def frob_inner(a, b) -> float:
    """Trace inner product Σ a_ij b_ij."""
    return float(np.tensordot(a, b, axes=2))


class SvdFactors(NamedTuple):
    """Thin SVD y = u @ diag(s) @ vt with s descending."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def svd(y) -> SvdFactors:
    """Thin SVD with singular values in descending order.

    Raises NumericError if the underlying eigen-solver fails to converge.
    """
    y = as_matrix(y, "svd input")
    try:
        u, s, vt = np.linalg.svd(y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of {y.shape[0]}x{y.shape[1]} matrix failed: {exc}") from exc
    return SvdFactors(u, s, vt)


def spectral_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(a, "matrix"), compute_uv=False)[0])


def _gram_polar(y: np.ndarray, h) -> np.ndarray | None:
    """x·V·diag(h(w))·Vᵀ for the eigendecomposition V·diag(w)·Vᵀ of xᵀx.

    x is y divided by max|y|, so that xᵀx neither overflows nor underflows,
    and transposed when y is wide, so that xᵀx is the smaller Gram matrix.
    That reduction is also the input's finiteness check. h maps the
    ascending eigenvalues w to the multipliers for x; it returns None to
    decline the input, and then so does this function.
    """
    scale = max_abs(y, "polar input")
    if scale == 0.0:
        raise RankDeficiencyError("zero matrix has no polar factor")
    transposed = y.shape[0] < y.shape[1]
    x = (y.T if transposed else y) / scale
    f = _gram_factor(x.T @ x, h)
    if f is None:
        return None
    out = x @ f
    return out.T if transposed else out


def _gram_factor(gram: np.ndarray, h) -> np.ndarray | None:
    """V·diag(h(w))·Vᵀ for the eigendecomposition V·diag(w)·Vᵀ of `gram`,
    or None when h declines."""
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        p = gram.shape[0]
        raise NumericError(f"eigendecomposition of the {p}x{p} Gram matrix failed: {exc}") from exc
    mult = h(w)
    if mult is None:
        return None
    return (v * mult) @ v.T


def _inverse_sqrt(w: np.ndarray) -> np.ndarray | None:
    """w^(-1/2), or None when w_min ≤ GRAM_EIG_RATIO·w_max."""
    if w[0] <= GRAM_EIG_RATIO * w[-1]:
        return None
    return w**-0.5


def msign_exact(y) -> np.ndarray:
    """Polar factor UVᵀ of a full-column-rank matrix.

    Computed from the Gram eigendecomposition when the long side is at
    least twice the short one, n·p² ≥ GRAM_MIN_WORK and κ < 100, and from
    the SVD otherwise. Raises RankDeficiencyError when the smallest singular
    value falls below RANK_TOL_FACTOR times the largest: the nearest
    orthonormal-column matrix is then not unique.
    """
    y = as_2d(y, "polar input")
    short = min(y.shape)
    if max(y.shape) >= 2 * short and y.size * short >= GRAM_MIN_WORK:
        out = _gram_polar(y, _inverse_sqrt)
        if out is not None:
            return out
    f = svd(y)
    smax = f.s[0]
    if smax <= 0.0 or f.s[-1] <= RANK_TOL_FACTOR * smax:
        raise RankDeficiencyError(
            f"matrix is numerically rank-deficient (sigma_min={f.s[-1]:.3e}, "
            f"sigma_max={smax:.3e}); polar factor undefined"
        )
    return f.u @ f.vt


@dataclass(frozen=True)
class PolarScheme:
    """Coefficient schedule for the iterative polar factor.

    Each entry (a, b) or (a, b, c) defines one update
    X ← a·X + b·X(XᵀX) [+ c·X(XᵀX)²]. When the iteration count exceeds the
    schedule length, the last entry repeats. The input is pre-scaled by
    1/(prenorm · ‖y‖_F) so its spectral norm starts below 1, which the cubic
    default needs in order to contract. Alternative schedules (e.g. tuned
    quintic coefficients) can be supplied without code changes.

    The updates act on each singular value σ alone, σ ← σ·f(σ²) with
    f(u) = a + b·u [+ c·u²], so k steps are evaluated on the eigenvalues of
    the Gram matrix rather than on n×p iterates.
    """

    coefficients: tuple[tuple[float, ...], ...] = ((1.5, -0.5),)
    prenorm: float = 1.01

    def __post_init__(self):
        if not self.coefficients:
            raise ConfigurationError("PolarScheme needs at least one coefficient tuple")
        for cs in self.coefficients:
            if len(cs) not in (2, 3):
                raise ConfigurationError(
                    f"coefficient tuples must have 2 or 3 entries, got {cs}"
                )
        if self.prenorm <= 1.0:
            raise ConfigurationError("prenorm must exceed 1 so the scaled input is strictly inside the unit ball")
        # tuples, so that schemes given as lists still hash (see _step_coefficients)
        object.__setattr__(self, "coefficients", tuple(tuple(cs) for cs in self.coefficients))

    def step_coefficients(self, k: int) -> tuple[float, ...]:
        return self.coefficients[min(k, len(self.coefficients) - 1)]


NEWTON_SCHULZ = PolarScheme()


@functools.lru_cache(maxsize=64)
def _step_coefficients(scheme: PolarScheme, iters: int) -> tuple[tuple[float, float, float], ...]:
    """(a, b, c) of each of the first `iters` steps, with c = 0 for cubic steps."""
    return tuple((*scheme.step_coefficients(k), 0.0)[:3] for k in range(iters))


def _polynomial_multipliers(w: np.ndarray, scheme: PolarScheme, iters: int, limit: float) -> np.ndarray:
    """Multipliers m with x·V·diag(m)·Vᵀ = X_k, the k-th scheme iterate.

    With u = σ² of the current iterate, each step is f = a + b·u (+ c·u²),
    m ← m·f, u ← u·f². Σu = ‖X_k‖_F², which is checked against `limit`
    after every step. The recurrence runs on Python floats: p is small at
    the shapes the optimizers use, where numpy's per-call cost dominates.
    Eigenvalues below zero are rounding and are clipped, so that u ≥ 0.
    """
    w = np.maximum(w, 0.0)
    mult0 = 1.0 / (scheme.prenorm * math.sqrt(float(np.sum(w))))
    us = (w * (mult0 * mult0)).tolist()
    mults = [mult0] * len(us)
    limit_sq = limit * limit
    for k, (a, b, c) in enumerate(_step_coefficients(scheme, iters)):
        total = 0.0
        for i, u in enumerate(us):
            f = a + u * (b + c * u)
            mults[i] *= f
            us[i] = u = u * f * f
            total += u
        if total > limit_sq:
            raise NumericError(f"polar iteration diverged at iteration {k + 1}")
    return np.array(mults)


def _polynomial_map(scheme: PolarScheme, iters: int, short_side: int):
    """h for the iterative route on a matrix whose shorter side is `short_side`."""
    limit = DIVERGENCE_FACTOR * math.sqrt(short_side)
    return lambda w: _polynomial_multipliers(w, scheme, iters, limit)


def msign_iterative(y, scheme: PolarScheme = NEWTON_SCHULZ, iters: int = 8) -> np.ndarray:
    """Approximate polar factor: `iters` steps of an odd-polynomial iteration.

    The k-step polynomial is evaluated on the spectrum of the Gram matrix
    (see PolarScheme), which in exact arithmetic is the direct iteration on
    n×p iterates. With the default cubic Newton-Schulz schedule and 8
    iterations this matches msign_exact to ~1e-6 Frobenius on
    well-conditioned inputs. Raises NumericError (naming the iteration) if
    the iterate norm blows up, which can happen under aggressive custom
    coefficient schedules.
    """
    if iters < 1:
        raise ConfigurationError(f"iters must be >= 1, got {iters}")
    y = as_2d(y, "polar input")
    return _gram_polar(y, _polynomial_map(scheme, iters, min(y.shape)))


@dataclass(frozen=True)
class PolarMode:
    """Selects how polar factors are computed: exact or iterative.

    `iters is None` means the exact route (msign_exact); otherwise `iters`
    (at least 1) iterations of `scheme`.
    """

    iters: int | None = None
    scheme: PolarScheme = NEWTON_SCHULZ

    def __post_init__(self):
        if self.iters is not None and self.iters < 1:
            raise ConfigurationError(f"iters must be >= 1, got {self.iters}")

    @classmethod
    def exact(cls) -> "PolarMode":
        return cls()

    @classmethod
    def iterative(cls, iters: int = 8, scheme: PolarScheme = NEWTON_SCHULZ) -> "PolarMode":
        return cls(iters=iters, scheme=scheme)

    def apply(self, y) -> np.ndarray:
        if self.iters is None:
            return msign_exact(y)
        return msign_iterative(y, self.scheme, self.iters)

    def gram_factor(self, gram: np.ndarray) -> np.ndarray | None:
        """The p×p factor H with apply(y) ≈ y·H, from gram = yᵀy alone (y tall).

        Exact: H = gram^(-1/2), or None when κ(y) ≥ 100, where the caller
        has to form y and call apply. Iterative: the scheme's k-step
        polynomial in gram, with the same divergence check as msign_iterative.
        The caller scales y so that gram neither overflows nor underflows.
        """
        if self.iters is None:
            return _gram_factor(gram, _inverse_sqrt)
        return _gram_factor(gram, _polynomial_map(self.scheme, self.iters, gram.shape[0]))

    def describe(self) -> str:
        return "exact" if self.iters is None else f"iterative:{self.iters}"


EXACT = PolarMode.exact()
