"""Objectives on the Stiefel manifold: the weighted-PCA (Brockett) family.

The instance minimizes f(W) = −½ tr(WᵀCWD) over St(n, p), where C = XXᵀ is
the Gram matrix of an n×d Gaussian data matrix and D is a fixed diagonal
weight matrix with distinct decreasing entries. Distinct weights make the
minimizer unique up to column signs: the top-p eigenvectors of C ordered by
decreasing eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import ConfigurationError
from .linalg import as_2d, as_matrix, frob_inner, frob_norm
from .manifolds import StiefelManifold, StiefelPoint


@runtime_checkable
class Objective(Protocol):
    """The objective surface the optimizers consume.

    evaluate(x) returns (f(x), ∇f(x)) from one evaluation; the optimizers
    call it once per iterate. Stochastic MCSD also draws gradients through
    stochastic_grad(x, rng, noise_cfg).
    """

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]: ...


@dataclass(frozen=True)
class NoiseConfig:
    """Stochastic-gradient model: additive Gaussian entries or a column minibatch."""

    kind: str  # "gaussian" | "minibatch"
    sigma_entry: float = 0.0
    batch_size: int = 0

    @classmethod
    def additive_gaussian(cls, sigma_entry: float) -> "NoiseConfig":
        if not (0 <= sigma_entry < math.inf):
            raise ConfigurationError(f"sigma_entry must be finite and nonnegative, got {sigma_entry}")
        return cls(kind="gaussian", sigma_entry=sigma_entry)

    @classmethod
    def minibatch(cls, batch_size: int) -> "NoiseConfig":
        if batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        return cls(kind="minibatch", batch_size=batch_size)


@dataclass(frozen=True)
class SmoothnessConstants:
    """Certified bounds for the gradient on the manifold.

    grad_lipschitz bounds ‖∇f(u) − ∇f(v)‖_F / ‖u − v‖_F; grad_norm_bound
    bounds ‖∇f‖_F on the manifold; composed_lipschitz is the smoothness
    constant 4·grad_lipschitz + 25·grad_norm_bound of f composed with the
    projection, valid on a spectral-norm tube of radius 0.2 around St(n, p).
    """

    grad_lipschitz: float
    grad_norm_bound: float
    composed_lipschitz: float


@dataclass(frozen=True)
class BrockettInstance:
    """Weighted-PCA problem data with its known optimum.

    Fields are immutable after construction and their arrays are read-only
    views; evaluation methods are pure, so one instance serves every run of
    a benchmark. The n×d data matrix X is not kept: only minibatch gradients
    read it, through `samples`, which redraws it from data_seed on first use.
    """

    n: int
    p: int
    d: int
    data_seed: int
    c: np.ndarray  # Gram matrix XXᵀ, exactly symmetric
    dmat: np.ndarray  # diagonal weights, decreasing
    w_star: StiefelPoint
    eigenvalues: np.ndarray  # full spectrum of c, descending

    def __post_init__(self):
        for name in ("c", "dmat", "eigenvalues"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @cached_property
    def samples(self) -> np.ndarray:
        """The n×d data matrix X of make_brockett, read-only."""
        return _read_only(_draw_samples(self.n, self.d, self.data_seed))

    def value(self, x: np.ndarray) -> float:
        """−½ tr(xᵀ C x D)."""
        x = as_matrix(x, "objective input")
        return value_from_grad(brockett_grad_unchecked(self, x), x)

    def euclid_grad(self, x: np.ndarray) -> np.ndarray:
        return brockett_grad(self, x)

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), ∇f(x)) from one product C·x, the value read off the gradient
        as value(x) does."""
        g = self.euclid_grad(x)
        return value_from_grad(g, x), g

    def stochastic_grad(self, x, rng: np.random.Generator, noise_cfg: NoiseConfig) -> np.ndarray:
        """Unbiased stochastic estimate of the Euclidean gradient.

        Gaussian: exact gradient plus iid N(0, sigma_entry²) entries.
        Minibatch: the gradient of the objective restricted to a uniform
        column sample, rescaled by d/batch so its expectation is the full
        gradient. A non-finite entry of x makes ‖g‖_F non-finite, so x is
        scanned for one only then, and raises ConfigurationError.
        """
        x = as_2d(x, "gradient input")
        if noise_cfg.kind == "gaussian":
            g = brockett_grad_unchecked(self, x)
            if noise_cfg.sigma_entry > 0.0:
                g += noise_cfg.sigma_entry * rng.standard_normal(x.shape)
        elif noise_cfg.kind == "minibatch":
            batch = noise_cfg.batch_size
            if not (1 <= batch <= self.d):
                raise ConfigurationError(f"batch_size {batch} outside [1, {self.d}]")
            if batch == self.d:
                g = brockett_grad_unchecked(self, x)
            else:
                idx = rng.choice(self.d, size=batch, replace=False)
                xb = self.samples[:, idx]
                with np.errstate(invalid="ignore"):  # inf − inf from a non-finite x, reported below
                    g = -(self.d / batch) * (xb @ (xb.T @ x)) * self.dmat[None, :]
        else:
            raise ConfigurationError(f"unknown noise kind {noise_cfg.kind!r}")
        if not math.isfinite(frob_norm(g)) and not np.isfinite(x).all():
            raise ConfigurationError("gradient input contains non-finite entries")
        return g

    def optimum_value(self) -> float:
        """f at the known minimizer, −½ Σ dᵢ λᵢ."""
        return -0.5 * float(np.dot(self.dmat, self.eigenvalues[: self.p]))


def _read_only(a) -> np.ndarray:
    """A read-only view of `a`; the caller's array keeps its own flags."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def _draw_samples(n: int, d: int, data_seed: int) -> np.ndarray:
    """The instance's n×d standard-normal data matrix X, the first draw from data_seed."""
    return np.random.default_rng(data_seed).standard_normal((n, d))


def make_brockett(n: int, p: int, d: int, data_seed: int) -> BrockettInstance:
    """Build an instance from an n×d standard-normal data matrix.

    Weights are (p, p−1, …, 1). The reference optimum holds the top-p
    eigenvectors of C with the sign of each column fixed so its
    largest-magnitude entry is positive. The eigengap is not checked.
    X is released once C = XXᵀ exists, so the eigendecomposition's buffers
    never sit beside it.
    """
    if not (1 <= p <= n <= d):
        raise ConfigurationError(f"need 1 <= p <= n <= d, got n={n}, p={p}, d={d}")
    samples = _draw_samples(n, d, data_seed)
    c = as_matrix(samples @ samples.T, "Gram matrix")
    del samples
    # linalg.sym's (c + cᵀ)/2 bit for bit, in place: numpy buffers the
    # transpose that overlaps its output.
    c += c.T
    c *= 0.5

    evals, evecs = np.linalg.eigh(c)
    top = evecs[:, ::-1][:, :p].copy()
    for k in range(p):
        j = int(np.argmax(np.abs(top[:, k])))
        if top[j, k] < 0:
            top[:, k] = -top[:, k]

    return BrockettInstance(
        n=n, p=p, d=d, data_seed=data_seed,
        c=c, dmat=np.arange(p, 0, -1, dtype=np.float64),
        w_star=StiefelPoint(top, StiefelManifold(n, p)),
        eigenvalues=evals[::-1].copy(),
    )


def value_from_grad(g: np.ndarray, w: np.ndarray) -> float:
    """f(w) = ½⟨∇f(w), w⟩ for the quadratic f(w) = −½ tr(wᵀ C w D)."""
    return 0.5 * frob_inner(g, w)


def brockett_grad(inst: BrockettInstance, w) -> np.ndarray:
    """Euclidean gradient −C w D."""
    return brockett_grad_unchecked(inst, as_matrix(w, "gradient input"))


def brockett_grad_unchecked(inst: BrockettInstance, w: np.ndarray) -> np.ndarray:
    """−C w D for a w its caller has already scanned for finiteness, or for
    each matrix of a stack of them on leading axes."""
    g = inst.c @ w
    g *= -inst.dmat  # (−a)·b = −(a·b) exactly: the bits of −(C w)·D
    return g


def smoothness_constants(inst: BrockettInstance) -> SmoothnessConstants:
    """Certified smoothness bounds from the instance spectrum.

    ‖C(U−V)D‖_F ≤ ‖C‖₂·max(d)·‖U−V‖_F gives the gradient Lipschitz bound,
    and ‖CWD‖_F ≤ ‖C‖₂·max(d)·‖W‖_F = ‖C‖₂·max(d)·√p on the manifold gives
    the gradient norm bound.
    """
    top = float(inst.eigenvalues[0])
    dmax = float(inst.dmat.max())
    grad_lipschitz = top * dmax
    grad_norm_bound = grad_lipschitz * np.sqrt(inst.p)
    return SmoothnessConstants(
        grad_lipschitz=grad_lipschitz,
        grad_norm_bound=grad_norm_bound,
        composed_lipschitz=4.0 * grad_lipschitz + 25.0 * grad_norm_bound,
    )


def subspace_error(inst: BrockettInstance, w) -> float:
    """‖wwᵀ − w*w*ᵀ‖_F = √(2‖w − w*(w*ᵀw)‖²_F + ‖wᵀw − I‖²_F), in O(np²).

    A rotation-invariant column-space distance. The identity holds for any
    n×p w (w* has orthonormal columns); the second term vanishes when w has
    them too. A non-finite entry of w makes the norms non-finite, so w is
    scanned for one only then, and raises ConfigurationError.
    """
    w = as_2d(w, "subspace input")
    ws = inst.w_star.x
    if w.shape != ws.shape:
        raise ConfigurationError(f"subspace input shape {w.shape} does not match the optimum's {ws.shape}")
    off_range = frob_norm(w - ws @ (ws.T @ w))
    gram = w.T @ w
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    err = math.hypot(math.sqrt(2.0) * off_range, frob_norm(gram))
    if not math.isfinite(err) and not np.isfinite(w).all():
        raise ConfigurationError("subspace input contains non-finite entries")
    return err

