"""Dense float64 matrix kernels, of a matrix or of each matrix of a stack:
the one input contract (`as_matrix`, and `frob_norms`, the norm that is
also the finiteness check; no other module raises a non-finite input
error), the Frobenius norm and inner product and the one factorization
layer. A stack's Frobenius inner products are one batched BLAS dot
product (`frob_inners`, which `frob_norms` takes of a C-contiguous stack),
each slice with the bits of its own call. No other module calls
numpy.linalg: `svd` (thin, or values only) and `eigh` (with vectors, or
values only) are its one SVD and eigendecomposition, and each raises
NumericError where LAPACK fails, naming the matrix of a stack at fault.
`eigh` calls the LAPACK gufunc that numpy.linalg.eigh and eigvalsh wrap,
and 2-D products use ndarray.dot, each with numpy's bits, because at the
p×p sizes of the Gram route the wrappers cost more than the work.

The polar factor (``msign``) of a full-column-rank matrix Y is the nearest
matrix with orthonormal columns, Y(YᵀY)^(-1/2) = UVᵀ for the SVD Y = UΣVᵀ.
The sign is total: it takes sign(0) = 0 on the null singular values, so a
rank-deficient Y gives the partial isometry U_r·V_rᵀ and a zero Y gives 0.
Both routes share one kernel, `factorize`, of a matrix or of a stack in
one call per operation: Y is scaled by max|Y| (and transposed if wide),
the small Gram matrix G = YᵀY = V·diag(w)·Vᵀ is diagonalised once, and the
result is Y·V·diag(m)·Vᵀ for multipliers m of the eigenvalues. The exact
route takes m = w^(-1/2) where κ(Y) < 100, at every shape, and the SVD of
the matrices it declines (rank deficiency included). The iterative route
takes for m the k-step cubic Newton-Schulz polynomial, evaluated on the
spectrum. The retraction onto St(n, p) always takes the exact route; the
iterative one serves only a direction's sign. `PolarMode.apply` is the one
sign dispatch, under the names `msign_exact` and `msign_iterative`. The
factorization is kept as a `Spectrum`, from which msign(Y), the nuclear
norm ‖Y‖_* and Manifold Muon's first inner iteration are all read, so that
a run factors each gradient once. `gram_eigenvalues` takes the same scaled
Gram matrix with its eigenvalues alone, for a nuclear norm or a largest
singular value where no sign is wanted.
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

# frob_norm takes √Σa² from one dot product only while Σa² lies in
# [SQUARE_MIN, SQUARE_MAX]; outside it (overflow, or precision lost to
# underflow) it recomputes with a divided by max|a|.
SQUARE_MIN, SQUARE_MAX = 1e-290, 1e300


def as_matrix(a, name: str = "matrix", finite: bool = True) -> np.ndarray:
    """`a` as a non-empty float64 matrix, or a stack (k, n, p) of them, and
    with `finite` scanned for a non-finite entry (ConfigurationError). With
    finite=False the caller's first reduction over a (a norm, as frob_norms,
    or max|a|), which propagates NaN and inf, is the check."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in (2, 3) or 0 in m.shape:
        raise ConfigurationError(f"{name} must be a matrix or a stack of them, got shape {m.shape}")
    if finite and not np.isfinite(m).all():
        raise ConfigurationError(f"{name} contains non-finite entries")
    return m


def sym_unchecked(a: np.ndarray) -> np.ndarray:
    """(a + aᵀ)/2 of a square array the caller built itself, or of each
    matrix of a stack of them on leading axes."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def frob_inner(a, b) -> float:
    """Trace inner product Σ a_ij b_ij."""
    return float(np.vdot(a, b))


@np.errstate(over="ignore", invalid="ignore")  # cheaper than a with block; np.vdot warns on neither
def frob_inners(a, b) -> np.ndarray:
    """frob_inner of each pair of matrices of two stacks (k, n, p), bit for
    bit: one batched product (k, 1, np) @ (k, np, 1), which runs on each pair
    the BLAS dot that np.vdot runs (over a view with each slice's stride
    where its C-order ravel has one, else over a C-ordered copy)."""
    a, b = np.asarray(a), np.asarray(b)
    k = len(a)
    return (a.reshape(k, 1, -1) @ b.reshape(k, -1, 1)).reshape(k)


def frob_norm(a: np.ndarray) -> float:
    """‖a‖_F: one BLAS dot over the memory-order ravel, np.linalg.norm(a) bit
    for bit in any layout, recomputed with a divided by max|a| only when Σa²
    leaves [SQUARE_MIN, SQUARE_MAX]. A NaN or ±inf entry gives a non-finite
    result and no warning (np.vdot, unlike ndarray.dot, does not warn on
    overflow)."""
    v = a.ravel(order="K")
    sq = float(np.vdot(v, v))
    if SQUARE_MIN <= sq <= SQUARE_MAX:
        return math.sqrt(sq)
    scale = max(float(a.max()), -float(a.min()))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    t = v / scale
    return scale * math.sqrt(float(np.vdot(t, t)))


def frob_norms(a: np.ndarray, name: str, source: np.ndarray | None = None):
    """frob_norm of a matrix, or the array of each matrix's of a stack, and
    the finiteness check: only a non-finite norm scans `source` (the input a
    came from; by default a), raising ConfigurationError on a non-finite entry."""
    if a.ndim == 2:
        norms = frob_norm(a)
    elif a.flags.c_contiguous:  # each slice's one dot, as frob_norm takes it, in one product
        sq = frob_inners(a, a)
        norms = np.sqrt(sq)
        for i in np.flatnonzero(~((sq >= SQUARE_MIN) & (sq <= SQUARE_MAX))).tolist():  # NaN fails the range too
            norms[i] = frob_norm(a[i])
    else:  # each slice's memory order
        norms = np.array([frob_norm(m) for m in a])
    if not (math.isfinite(norms) if a.ndim == 2 else np.isfinite(norms).all()):
        as_matrix(a if source is None else source, name)
    return norms


def svd(y, name: str = "matrix", compute_uv: bool = True):
    """Thin SVD (u, s, vt), y = u @ diag(s) @ vt with s descending, of a
    matrix or of each matrix of a stack (k, n, p), or with `compute_uv`
    False its singular values s alone: the package's one SVD. LAPACK
    factors each matrix of a stack on its own, so every slice gets the bits
    its own call would. Raises ConfigurationError, naming the input `name`,
    for a non-finite entry, and NumericError if LAPACK fails (see eigh).
    """
    # The one finiteness scan no reduction covers: given an inf entry,
    # np.linalg.svd with vectors does not return (a 50x3 input ran past 15 s
    # on numpy 2.4 with OpenBLAS). Without this scan a non-finite input hangs
    # instead of raising; the values-only SVD, which returns NaN, shares it.
    y = as_matrix(y, name)
    return _lapack(np.linalg.svd, y, "SVD", name, full_matrices=False, compute_uv=compute_uv)


def eigh(a: np.ndarray, name: str, vectors: bool = True):
    """Ascending eigenvalues w and orthonormal eigenvectors v, a = v·diag(w)·vᵀ,
    of a symmetric float64 matrix the caller built, or of each matrix of a
    stack of them, or with `vectors` False w alone: the package's one
    eigendecomposition. Raises NumericError, naming the matrix `name` (of a
    stack, and the first that fails alone), if LAPACK fails."""
    return _lapack(_lapack_eigh, a, "eigendecomposition", name, vectors)


def _lapack(factor, a: np.ndarray, what: str, name: str, *args, **kwargs):
    """factor(a, ...), raising NumericError where LAPACK fails; of a stack, its
    `index` is the first matrix that fails alone (re-run on this path only)."""
    try:
        return factor(a, *args, **kwargs)
    except np.linalg.LinAlgError as exc:
        error = NumericError(f"{what} of the {a.shape[-2]}x{a.shape[-1]} {name} failed: {exc}")
        for index in range(len(a) if a.ndim == 3 else 0):
            try:
                factor(a[index], *args, **kwargs)
            except np.linalg.LinAlgError:
                error.index = index
                break
        raise error from exc


def _svd_of(y: np.ndarray, where: np.ndarray, *args, **kwargs):
    """svd(y[where], ...), whose failure names its matrix's index in y."""
    try:
        return svd(y[where], *args, **kwargs)
    except NumericError as exc:
        exc.index = None if exc.index is None else int(np.flatnonzero(where)[exc.index])
        raise


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
    """One factorization (see factorize) of a matrix y, or of each matrix of
    a stack (k, n, p) along a leading axis of every field, which its polar
    factor, its nuclear norm and Manifold Muon's first inner iteration read.

    `scale` is max|y|; a zero y is not factored. x is y/scale, transposed
    when y is wide, gram = xᵀx has the ascending eigenvalues w, and h is
    gram_polar_factor's H, with msign(y) = x·H, or None (of a stack, 0)
    where the exact route declines; `usv` is then the thin SVD of y (of a
    stack, the one SVD of its `declined` matrices). gram_eigenvalues gives
    w alone (h and usv None), for nuclear_norm and spectral_norm only.
    """

    y: np.ndarray
    scale: float | np.ndarray
    x: np.ndarray | None = None
    gram: np.ndarray | None = None
    w: np.ndarray | None = None
    h: np.ndarray | None = None
    usv: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def conditioned(self):
        """Whether the Gram is factored and κ(y) < 100 (GRAM_EIG_RATIO), of a
        stack each matrix's."""
        if self.w is None:
            return False
        conditioned = self.w[..., 0] > GRAM_EIG_RATIO * self.w[..., -1]
        return conditioned if conditioned.ndim else bool(conditioned)

    @property
    def declined(self) -> np.ndarray:
        """Of a stack, the nonzero matrices that are not conditioned: the SVD
        gives their exact sign and, on either route, their nuclear norm."""
        return (self.scale > 0.0) & ~self.conditioned

    def sign(self) -> np.ndarray:
        """msign(y), as msign_exact or msign_iterative gives it; 0 for a zero y."""
        if self.y.ndim == 2 and (self.scale == 0.0 or self.usv is not None):
            return np.zeros(self.y.shape) if self.usv is None else _svd_sign(*self.usv)
        sign = self.x.dot(self.h) if self.y.ndim == 2 else self.x @ self.h  # msign(x); 0 where h is 0
        sign = sign.swapaxes(-1, -2) if self.y.shape[-2] < self.y.shape[-1] else sign  # back when y is wide
        if self.y.ndim == 3 and self.usv is not None:
            sign[self.declined] = _svd_sign(*self.usv)
        return sign

    def nuclear_norm(self, name: str = "nuclear-norm input"):
        """‖y‖_* = Σσ, of a stack each matrix's: scale·Σ√w where the Gram is
        conditioned, else Σσ of the thin SVD or of a values-only one, which
        names y `name` if it fails; +0.0 for a zero y. The package's one
        nuclear-norm rule; κ < 100 bounds the cross product's κ²-amplified
        rounding (Golub & Van Loan, Matrix Computations, §8.6) to about
        1e-14 relative."""
        if self.y.ndim == 2:
            if self.conditioned:
                return self.scale * float(np.sqrt(self.w).sum())
            if self.scale == 0.0:
                return 0.0
            return float((self.usv[1] if self.usv else svd(self.y, name, compute_uv=False)).sum())
        conditioned = self.conditioned
        norm = self.scale * np.sqrt(self.w, out=np.zeros(self.w.shape), where=conditioned[:, None]).sum(axis=-1)
        if not conditioned.all():  # a declined or a zero matrix
            declined = self.declined
            if declined.any():
                s = self.usv[1] if self.usv else _svd_of(self.y, declined, name, compute_uv=False)
                norm[declined] = s.sum(axis=-1)
        return norm

    def spectral_norm(self):
        """‖y‖₂ = σ_max = scale·√w_max, of a stack each matrix's; 0.0 for a
        zero y. w_max carries an absolute error of a few ulps of itself at
        any κ, so no matrix is declined."""
        if self.y.ndim == 2:
            return 0.0 if self.scale == 0.0 else self.scale * math.sqrt(float(self.w[-1]))
        return self.scale * np.sqrt(self.w[:, -1])

    def matrices(self) -> tuple[Spectrum, ...]:
        """Each matrix's Spectrum of a stack, as factorize gives it of that
        matrix alone."""
        usv = iter(zip(*self.usv)) if self.usv else None
        fields = zip(self.y, self.scale.tolist(), self.x, self.gram, self.w, self.h, self.declined.tolist())
        return tuple(
            Spectrum(y, 0.0) if scale == 0.0
            else Spectrum(y, scale, x, gram, w, None, next(usv)) if usv and declined
            else Spectrum(y, scale, x, gram, w, h)
            for y, scale, x, gram, w, h, declined in fields
        )


def factorize(y, iters: int | None = None, name: str = "polar input") -> Spectrum:
    """The Spectrum of a matrix y, or of each matrix of a stack (k, n, p)
    with the bits of its own call, under the polar mode `iters` (None exact,
    else Newton-Schulz): msign(y), ‖y‖_* and Manifold Muon's first inner
    iteration are all read from it.

    y is scaled and transposed by _scaled_gram. A stack takes one product
    xᵀx and one `eigh` call, at every shape; the exact mode takes one thin
    SVD of the matrices whose Gram it declines (κ ≥ 100, rank deficiency
    included).
    """
    y, scale, x, xtx = _scaled_gram(y, name)
    if x is None:
        return Spectrum(y, scale)
    spectrum = Spectrum(y, scale, x, xtx, *gram_polar_factor(xtx, iters))
    if iters is None and (spectrum.h is None if y.ndim == 2 else spectrum.declined.any()):
        return spectrum._replace(usv=svd(y) if y.ndim == 2 else _svd_of(y, spectrum.declined))
    return spectrum


def gram_eigenvalues(y, name: str) -> Spectrum:
    """factorize's Spectrum of y (of a stack, each matrix's with the bits of
    its own call) with w alone, from one values-only `eigh`: no H, no SVD.
    From p = 3 on, LAPACK's values-only w can differ from factorize's in the
    last bits."""
    y, scale, x, xtx = _scaled_gram(y, name)
    if x is None:
        return Spectrum(y, scale)
    return Spectrum(y, scale, x, xtx, eigh(xtx, f"Gram matrix of the {name}", vectors=False))


def _scaled_gram(y, name: str):
    """(y, scale, x, xᵀx): y checked, scale = max|y| (of a stack, each
    matrix's), which keeps xᵀx from over- or underflowing and, as NaN and
    ±inf propagate, is the finiteness check, and x = y/scale, transposed
    when wide so that xᵀx is the smaller Gram; x is None for a zero matrix
    (of a stack, a zero matrix's x is 0)."""
    y = as_matrix(y, name, finite=False)
    scale = max(float(y.max()), -float(y.min())) if y.ndim == 2 else np.abs(y).max(axis=(1, 2))
    if not (math.isfinite(scale) if y.ndim == 2 else np.isfinite(scale).all()):
        as_matrix(y, name)
    if y.ndim == 2:
        if scale == 0.0:
            return y, scale, None, None
        x = (y.T if y.shape[0] < y.shape[1] else y) / scale
        return y, scale, x, x.T.dot(x)
    x = (y.swapaxes(1, 2) if y.shape[1] < y.shape[2] else y) / np.where(scale == 0.0, 1.0, scale)[:, None, None]
    return y, scale, x, x.swapaxes(1, 2) @ x


def gram_polar_factor(gram: np.ndarray, iters: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The ascending eigenvalues w of `gram` = yᵀy = V·diag(w)·Vᵀ, and the
    p×p factor H = V·diag(m)·Vᵀ with msign(y) ≈ y·H, from gram alone, or of
    a stack of Gram matrices each one's, from one `eigh` call.

    Exact (iters None): m = w^(-1/2), and H is None (of a stack, 0) when
    w_min ≤ GRAM_EIG_RATIO·w_max (κ(y) ≥ 100, rank deficiency included),
    where the caller has to form y and call msign_exact. Iterative: the
    `iters`-step Newton-Schulz multipliers, as in msign_iterative; of a
    stack, H is 0 where gram is. The caller scales y so that gram neither
    overflows nor underflows.
    """
    w, v = eigh(gram, "Gram matrix")
    if w.ndim == 1:
        if iters is not None:
            mult = _newton_schulz_multipliers(w, iters)
        elif w[0] <= GRAM_EIG_RATIO * w[-1]:
            return w, None
        else:
            mult = w**-0.5
        return w, (v * mult).dot(v.T)
    if iters is None:
        keep = (w[:, 0] > GRAM_EIG_RATIO * w[:, -1])[:, None]
        mult = np.where(keep, w, 1.0) ** -0.5 * keep  # a declined w_min ≤ 0 never reaches the power
    else:  # each matrix's multipliers, as its own call takes them
        mult = np.zeros(w.shape)
        for m, w_m in zip(mult, w):
            if w_m[-1] > 0.0:
                m[:] = _newton_schulz_multipliers(w_m, iters)
    return w, (v * mult[:, None, :]) @ v.swapaxes(1, 2)


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
    increasing and fixes 1, so u stays there. The recurrence runs on Python
    floats, each operation the IEEE one numpy would apply per element, and
    the floor below takes np.maximum only where it binds: p is small at the
    shapes the optimizers use, where numpy's per-call cost dominates
    (Manifold Muon calls this nine times a step). Σw alone stays numpy's
    sum, which is pairwise from p = 8 on, where Python's `sum` is not.

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
    values = w.tolist()
    floor = len(values) * math.ulp(1.0) * max(values[-1], 0.0)  # ε = ulp(1)
    if values[0] < floor:  # w ascends, so the floor binds nowhere when it spares w[0]
        w = np.maximum(w, floor)
        values = w.tolist()
    mult0 = 1.0 / (PRENORM * math.sqrt(float(w.sum())))
    u0 = mult0 * mult0
    mults = []
    for u in values:
        u *= u0
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
        the bits of its own call: the package's one sign dispatch."""
        return factorize(y, self.iters).sign()

    def describe(self) -> str:
        return "exact" if self.iters is None else f"iterative:{self.iters}"


EXACT = PolarMode()


def msign_exact(y) -> np.ndarray:
    """Polar factor U·diag(keep)·Vᵀ of a matrix, or of each matrix of a
    stack (k, n, p), where keep marks the singular values above
    RANK_TOL_FACTOR times the largest: UVᵀ at full column rank, and the
    partial isometry U_r·V_rᵀ (sign 0 on the null singular values) below it.
    From the Gram eigendecomposition where κ < 100, at every shape, and from
    the SVD otherwise (see factorize).
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
