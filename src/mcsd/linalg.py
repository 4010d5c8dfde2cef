"""Dense float64 matrix kernels, of a matrix or of each matrix of a stack:
the Frobenius norm and the package's one factorization layer. No other
module calls numpy.linalg: `svd` (thin, or values only) and `eigh` (with
vectors, or values only) are its one SVD and eigendecomposition, and each
raises NumericError where LAPACK fails. `eigh` calls the LAPACK gufunc that
numpy.linalg.eigh and eigvalsh wrap, with their bits, because at the p×p
sizes of the Gram route and Manifold Muon's inner solve the wrapper costs
more than LAPACK: for a 5×5 matrix, 11.5 µs for np.linalg.eigh against
6.9 µs for `eigh` (5.5 µs of it the gufunc), and 7.6 against 4.7 µs
without vectors. For the same reason products whose operands are 2-D by
construction use ndarray.dot, matmul's bits for 0.55 µs against 1.16 µs
at 5×5 (one OpenBLAS thread, Intel Xeon).

The polar factor (``msign``) of a full-column-rank matrix Y is the nearest
matrix with orthonormal columns, Y(YᵀY)^(-1/2) = UVᵀ for the SVD Y = UΣVᵀ.
The sign is total: it takes sign(0) = 0 on the null singular values, so a
rank-deficient Y gives the partial isometry U_r·V_rᵀ and a zero Y gives 0.
Both routes share one kernel: Y is scaled by max|Y| (and transposed if
wide), the small Gram matrix G = YᵀY = V·diag(w)·Vᵀ is diagonalised once,
and the result is Y·V·diag(m)·Vᵀ for multipliers m of the eigenvalues.
The exact route takes m = w^(-1/2) when the long side is at least twice
the short one, the matrix is not tiny and κ(Y) < 100, and the SVD
otherwise. The iterative route takes for m the k-step cubic Newton-Schulz
polynomial, evaluated on the spectrum. The retraction onto St(n, p) always
takes the exact route; the iterative one serves only a direction's sign.
`PolarMode.apply` is the one sign dispatch, under the names `msign_exact`
and `msign_iterative`. `factorize` is the kernel's one factorization of Y,
kept as a `Spectrum` from which msign(Y), the nuclear norm ‖Y‖_* and
Manifold Muon's first inner iteration are all read, so that a run factors
each gradient once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConfigurationError, NumericError

# Relative threshold at or below which a singular value counts as zero, so
# that msign_exact gives it sign 0.
RANK_TOL_FACTOR = 1e-10

# The iterative route divides its input by PRENORM·‖y‖_F, so that every
# singular value starts strictly below 1, where Newton-Schulz contracts.
PRENORM = 1.01

# The exact route uses the Gram eigendecomposition only when w_min exceeds
# this fraction of w_max (κ < 100): its orthogonality error grows as
# κ²·1e-16, about 1e-12 at the limit.
GRAM_EIG_RATIO = 1e-4

# The exact route also needs n·p² ≥ GRAM_MIN_WORK. It was set where the SVD
# stopped being faster when the Gram route went through np.linalg.eigh
# (crossover near 2e3 with single-threaded OpenBLAS). With the direct LAPACK
# call a single matrix's Gram route is faster at all three shapes timed (one
# OpenBLAS thread, Intel Xeon), Gram against SVD: 50x3 13.6–15.4 µs against
# 16.7–18.2, 100x4 15.7–17.6 against 21.3–23.1, 200x5 20.8–21.8 against
# 30.8–37.6. The value stays for stacks: a stack takes its slices' route, and
# the Gram route has no stacked form, so at 50x3 verify's 20-seed lockstep
# stack would trade its one stacked SVD per sign (106–113 µs) for 20 Gram
# signs (298–348 µs), and a 32-sample descent-lemma chunk 159–164 µs for
# 479–498. Over a verify-full execution's 800 and 78 such signs that is about
# 0.18 s more on some 0.40 s. Only a stacked Gram kernel can retire it.
GRAM_MIN_WORK = 2000


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a float64 matrix, or a stack (k, n, p) of
    them, with finite entries."""
    m = as_2d(a, name, stack=True)
    if not np.isfinite(m).all():
        raise ConfigurationError(f"{name} contains non-finite entries")
    return m


def as_2d(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """`a` as a non-empty 2-D float64 array (with `stack`, also a stack
    (k, n, p) of them), without the finiteness scan.

    For callers whose first reduction over the array (a norm or max|a|)
    propagates NaN and inf and so doubles as the finiteness check.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in ((2, 3) if stack else (2,)) or 0 in m.shape:
        kind = "matrix or a stack of them" if stack else "2-D matrix"
        raise ConfigurationError(f"{name} must be a {kind}, got shape {m.shape}")
    return m


def max_abs(a: np.ndarray, name: str = "matrix") -> float:
    """max|a_ij|; raises ConfigurationError if an entry is NaN or ±inf."""
    hi = float(a.max())
    lo = float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return max(hi, -lo)


def sym_unchecked(a: np.ndarray) -> np.ndarray:
    """(a + aᵀ)/2 of a square array the caller built itself, or of each
    matrix of a stack of them on leading axes."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def frob_inner(a, b) -> float:
    """Trace inner product Σ a_ij b_ij."""
    return float(np.vdot(a, b))


def frob_norm(a: np.ndarray) -> float:
    """‖a‖_F: one BLAS dot over the memory-order ravel, np.linalg.norm(a) bit
    for bit in any layout, recomputed with a divided by max|a| only when Σa²
    leaves [1e-290, 1e300] (overflow, or precision lost to underflow). A NaN
    or ±inf entry gives a non-finite result and no warning (np.vdot, unlike
    ndarray.dot, does not warn on overflow)."""
    v = a.ravel(order="K")
    sq = float(np.vdot(v, v))
    if 1e-290 <= sq <= 1e300:
        return math.sqrt(sq)
    scale = max(float(a.max()), -float(a.min()))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    t = v / scale
    return scale * math.sqrt(float(np.vdot(t, t)))


def svd(y, name: str = "matrix", compute_uv: bool = True):
    """Thin SVD (u, s, vt), y = u @ diag(s) @ vt with s descending, of a
    matrix or of each matrix of a stack (k, n, p), or with `compute_uv`
    False its singular values s alone: the package's one SVD.

    LAPACK factors each matrix of a stack on its own, so every slice gets
    the bits its own call would. Raises ConfigurationError, naming the input
    `name`, for a non-finite entry, and NumericError if LAPACK fails.
    """
    # The one finiteness scan no reduction covers: given an inf entry,
    # np.linalg.svd with vectors does not return (a 50x3 input ran past 15 s
    # on numpy 2.4 with OpenBLAS). Without this scan a non-finite input hangs
    # instead of raising; the values-only SVD, which returns NaN, shares it.
    y = as_matrix(y, name)
    try:
        return np.linalg.svd(y, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of the {y.shape[-2]}x{y.shape[-1]} {name} failed: {exc}") from exc


def eigh(a: np.ndarray, name: str, vectors: bool = True):
    """Ascending eigenvalues w and orthonormal eigenvectors v, a = v·diag(w)·vᵀ,
    of a symmetric float64 matrix the caller built, or with `vectors` False w
    alone: the package's one eigendecomposition. Raises NumericError, naming
    the matrix `name`, if LAPACK fails."""
    try:
        return _lapack_eigh(a, vectors)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of the {a.shape[0]}x{a.shape[1]} {name} failed: {exc}") from exc


# LAPACK's symmetric eigensolver on the lower triangle, as numpy's
# linalg.eigh and linalg.eigvalsh call it, with and without vectors.
_EIGH_GUFUNCS = {True: (_umath_linalg.eigh_lo, "d->dd"), False: (_umath_linalg.eigvalsh_lo, "d->d")}


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _lapack_eigh(a: np.ndarray, vectors: bool):
    """np.linalg.eigh(a) (w, v), or with `vectors` False np.linalg.eigvalsh(a),
    bit for bit, from the gufunc those wrappers call (see the module
    docstring). A failure to converge, which the gufunc flags as an invalid
    value, raises numpy's LinAlgError."""
    gufunc, signature = _EIGH_GUFUNCS[vectors]
    try:
        return gufunc(a, signature=signature)
    except FloatingPointError:
        raise np.linalg.LinAlgError("Eigenvalues did not converge") from None


class Spectrum(NamedTuple):
    """One factorization of a matrix y (see factorize), which its polar
    factor, its nuclear norm and Manifold Muon's first inner iteration read.

    `scale` is max|y| (None on the SVD route); a zero y is not factored. On
    the Gram route x is y/scale, transposed when y is wide, gram = xᵀx has
    the ascending eigenvalues w, and h is gram_polar_factor's H, with
    msign(y) = x·H, or None where the exact route declines. `usv` is the
    thin SVD of y where the exact route takes it.
    """

    y: np.ndarray
    scale: float | None
    x: np.ndarray | None = None
    gram: np.ndarray | None = None
    w: np.ndarray | None = None
    h: np.ndarray | None = None
    usv: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def conditioned(self) -> bool:
        """Whether the Gram is factored and κ(y) < 100 (GRAM_EIG_RATIO)."""
        return self.w is not None and bool(self.w[0] > GRAM_EIG_RATIO * self.w[-1])

    def sign(self) -> np.ndarray:
        """msign(y), as msign_exact or msign_iterative gives it; zeros for a
        zero y."""
        if self.scale == 0.0:
            return np.zeros(self.y.shape)
        if self.usv is not None:
            return _svd_sign(*self.usv)
        sign = self.x.dot(self.h)  # msign(x), transposed back when y is wide
        return sign.T if self.y.shape[0] < self.y.shape[1] else sign

    def nuclear_norm(self) -> float:
        """‖y‖_* = Σσ: scale·Σ√w where the Gram is conditioned, Σσ of the
        thin SVD where there is one, else of the values-only SVD."""
        if self.conditioned:
            return self.scale * float(np.sqrt(self.w).sum())
        if self.usv is not None:
            return float(self.usv[1].sum())
        return float(svd(self.y, "nuclear-norm input", compute_uv=False).sum())


def factorize(y, iters: int | None = None, gram: bool = False, name: str = "polar input") -> Spectrum:
    """The Spectrum of a matrix y under the polar mode `iters` (None exact,
    else Newton-Schulz): one factorization, from which msign(y), ‖y‖_* and
    Manifold Muon's first inner iteration are all read.

    y is divided by max|y|, so that xᵀx neither overflows nor underflows,
    and transposed when wide, so that xᵀx is the smaller Gram matrix; that
    reduction is also the input's finiteness check. The iterative mode (and
    `gram`, for Manifold Muon's inner solve) diagonalises the Gram matrix at
    every shape. The exact mode does where the long side is at least twice
    the short one and n·p² ≥ GRAM_MIN_WORK, and takes the thin SVD of y at
    other shapes and where it declines the Gram (κ ≥ 100, rank deficiency
    included).
    """
    y = as_2d(y, name)
    if not (gram or iters is not None or _gram_shape(*y.shape)):
        return Spectrum(y, None, usv=svd(y))
    scale = max_abs(y, name)
    if scale == 0.0:
        return Spectrum(y, scale)
    x = (y.T if y.shape[0] < y.shape[1] else y) / scale
    xtx = x.T.dot(x)
    w, h = gram_polar_factor(xtx, iters)
    return Spectrum(y, scale, x, xtx, w, h, svd(y) if h is None else None)


def _gram_shape(n: int, p: int) -> bool:
    """Whether the exact route tries the Gram matrix at shape n×p."""
    short, long = (n, p) if n < p else (p, n)
    return long >= 2 * short and long * short * short >= GRAM_MIN_WORK


def gram_polar_factor(gram: np.ndarray, iters: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The ascending eigenvalues w of `gram` = yᵀy = V·diag(w)·Vᵀ, and the
    p×p factor H = V·diag(m)·Vᵀ with msign(y) ≈ y·H, from gram alone.

    Exact (iters None): m = w^(-1/2), and H is None when
    w_min ≤ GRAM_EIG_RATIO·w_max (κ(y) ≥ 100, rank deficiency included),
    where the caller has to form y and call msign_exact. Iterative: the
    `iters`-step Newton-Schulz multipliers, as in msign_iterative. The caller
    scales y so that gram neither overflows nor underflows.
    """
    w, v = eigh(gram, "Gram matrix")
    if iters is not None:
        mult = _newton_schulz_multipliers(w, iters)
    elif w[0] <= GRAM_EIG_RATIO * w[-1]:
        return w, None
    else:
        mult = w**-0.5
    return w, (v * mult).dot(v.T)


def _svd_sign(u: np.ndarray, s: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """U·diag(keep)·Vᵀ from a thin SVD (of a stack, each matrix's), keep
    marking the singular values above RANK_TOL_FACTOR times the largest."""
    # Full rank takes u·vt unmasked: on a stack the masked copy of u raised
    # verify-full's peak RSS by 0.8 MiB.
    keep = s > RANK_TOL_FACTOR * s[..., :1]
    return u @ vt if keep.all() else (u * keep[..., None, :]) @ vt


def _newton_schulz_multipliers(w: np.ndarray, iters: int) -> np.ndarray:
    """Multipliers m with x·V·diag(m)·Vᵀ = X_k, the k-th Newton-Schulz iterate.

    X_0 = x/(PRENORM·‖x‖_F) and X ← 1.5·X − 0.5·X(XᵀX) act on each singular
    value alone: with u = σ², each step is f = 1.5 − 0.5·u, m ← m·f,
    u ← u·f². The prescale starts every u in [0, 1), where u ↦ u·f² is
    increasing and fixes 1, so u stays there. Each eigenvalue's k steps run
    on Python floats: p is small at the shapes the optimizers use, where
    numpy's per-call cost dominates.

    An eigenvalue is known only up to rounding, about p·ε·w_max, and where
    the true one is 0, x's component along its eigenvector is rounding-level,
    not zero. Taken as computed (0, or far below that level), such an
    eigenvalue gets a multiplier up to m₀·1.5ᵏ, which carries that component
    out of the unit ball within 100 steps and to NaN by 1 800. So every
    eigenvalue is raised to at least p·ε·w_max: its u then rises to 1 like
    the others, its multiplier stays below (p·ε·w_max)^(-1/2), and the sign
    stays in the unit ball at every k up to the rounding of H that this
    multiplier scales, about √(ε/p).
    """
    w = np.maximum(w, len(w) * math.ulp(1.0) * max(float(w[-1]), 0.0))  # ε = ulp(1)
    mult0 = 1.0 / (PRENORM * math.sqrt(float(w.sum())))
    mults = []
    for u in (w * (mult0 * mult0)).tolist():
        m = mult0
        for _ in range(iters - 1):
            f = 1.5 - 0.5 * u
            m *= f
            u = u * f * f
        mults.append(m * (1.5 - 0.5 * u))
    return np.array(mults)


@dataclass(frozen=True)
class PolarMode:
    """Selects the matrix sign inside a direction (the spectral LMO, Manifold
    Muon's inner solve): `iters` None is msign_exact, else `iters` (at least
    1) Newton-Schulz iterations. The retraction is always msign_exact.
    """

    iters: int | None = None

    def __post_init__(self):
        if self.iters is not None and self.iters < 1:
            raise ConfigurationError(f"iters must be >= 1, got {self.iters}")

    def apply(self, y) -> np.ndarray:
        """msign(y) of a matrix, or of each matrix of a stack (k, n, p) with
        the bits of its own call: the package's one sign dispatch.

        The exact mode at a shape it factors by SVD takes one SVD, stacked
        for a stack at a fraction of the per-call cost. Every other case is
        factorize(m, iters).sign() of each matrix, as the Gram route has no
        stacked form.
        """
        y = as_2d(y, "polar input", stack=True)
        if self.iters is None and not _gram_shape(*y.shape[-2:]):
            return _svd_sign(*svd(y))
        if y.ndim == 2:
            return factorize(y, self.iters).sign()
        return np.stack([factorize(m, self.iters).sign() for m in y])

    def describe(self) -> str:
        return "exact" if self.iters is None else f"iterative:{self.iters}"


EXACT = PolarMode()


def msign_exact(y) -> np.ndarray:
    """Polar factor U·diag(keep)·Vᵀ of a matrix, or of each matrix of a
    stack (k, n, p), where keep marks the singular values above
    RANK_TOL_FACTOR times the largest: UVᵀ at full column rank, and the
    partial isometry U_r·V_rᵀ (sign 0 on the null singular values) below it.
    From the Gram eigendecomposition when the long side is at least twice
    the short one, n·p² ≥ GRAM_MIN_WORK and κ < 100, and from the SVD
    otherwise (see PolarMode.apply).
    """
    return EXACT.apply(y)


def msign_iterative(y, iters: int = 8) -> np.ndarray:
    """Approximate polar factor: `iters` steps of cubic Newton-Schulz, of a
    matrix or of each matrix of a stack (k, n, p), evaluated on the spectrum
    of the Gram matrix (see _newton_schulz_multipliers), which in exact
    arithmetic is the direct iteration on n×p iterates. With 8 iterations
    this matches msign_exact to ~1e-6 Frobenius on well-conditioned inputs;
    a null singular value stays at 0, and a zero y gives zeros.
    """
    return PolarMode(iters).apply(y)
