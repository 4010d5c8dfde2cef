"""Objectives on the Stiefel manifold: the weighted-PCA (Brockett) family.

The instance minimizes f(W) = −½ tr(WᵀCWD) over St(n, p), where C = XXᵀ is
the Gram matrix of an n×d Gaussian data matrix and D is a fixed diagonal
weight matrix with distinct decreasing entries. Distinct weights make the
minimizer unique up to column signs: the top-p eigenvectors of C ordered by
decreasing eigenvalue.

The optimizers read an objective through `evaluate(x)`, f(x) and ∇f(x) from
one evaluation (of a stack (k, n, p), the k values and gradients), and
stochastic MCSD through `stochastic_grad(x, rng, noise_cfg)`, of one matrix
with its generator or of a stack with one generator per matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError
from .linalg import as_matrix, eigh, frob_inner, frob_inners, frob_norm
from .manifolds import StiefelManifold, StiefelPoint, feasibility_violation


class NoiseConfig(NamedTuple):
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


class SmoothnessConstants(NamedTuple):
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

    def value(self, x: np.ndarray):
        """−½ tr(xᵀ C x D), or the list of each matrix's of a stack (k, n, p)."""
        x = as_matrix(x, "objective input")
        return _value_from_grad(_brockett_grad(self, x), x)

    def euclid_grad(self, x: np.ndarray) -> np.ndarray:
        """Euclidean gradient −C x D, of a matrix or of each matrix of a stack
        (k, n, p) from one broadcast product."""
        return _brockett_grad(self, as_matrix(x, "gradient input"))

    def evaluate(self, x: np.ndarray):
        """(f(x), ∇f(x)) from one product C·x, the value read off the gradient
        as value(x) does; of a stack, the list of values and the gradients."""
        g = self.euclid_grad(x)
        return _value_from_grad(g, x), g

    def stochastic_grad(self, x, rng, noise_cfg: NoiseConfig) -> np.ndarray:
        """Unbiased stochastic estimate of the Euclidean gradient, of a matrix
        with its generator `rng`, or of each matrix of a stack (k, n, p) with
        its own of a sequence of k generators.

        Gaussian: exact gradient plus iid N(0, sigma_entry²) entries.
        Minibatch: the gradient of the objective restricted to a uniform
        column sample, rescaled by d/batch so its expectation is the full
        gradient. Each matrix of a stack draws from its own generator only,
        and gets the bits, and leaves its generator in the state, of its own
        call. One ‖g‖_F certifies the whole result: a non-finite entry of x
        makes it non-finite, so x is scanned for one only then, and raises
        ConfigurationError; where the noise term σ·z itself leaves the float
        range (which depends on the draws), NumericError names the noise
        scale, with no numpy warning. Any other non-finite gradient of a
        finite x is returned for the caller to report.
        """
        x = as_matrix(x, "gradient input", finite=False)
        stack = x.reshape(-1, *x.shape[-2:])  # a matrix as a stack of one
        rngs = list(rng) if isinstance(rng, (list, tuple)) else [rng]
        if len(rngs) != len(stack):
            raise ConfigurationError(f"{len(stack)} gradient inputs need as many generators, got {len(rngs)}")
        if noise_cfg.kind == "gaussian":
            g = _brockett_grad(self, x)
            if noise_cfg.sigma_entry > 0.0:
                noise = np.empty(stack.shape)
                for r, buf in zip(rngs, noise):
                    r.standard_normal(out=buf)  # the draws of r.standard_normal(buf.shape)
                with np.errstate(over="ignore", invalid="ignore"):  # σ·z past the float range, named below
                    noise *= noise_cfg.sigma_entry
                    g += noise.reshape(g.shape)
        elif noise_cfg.kind == "minibatch":
            batch = noise_cfg.batch_size
            if not (1 <= batch <= self.d):
                raise ConfigurationError(f"batch_size {batch} outside [1, {self.d}]")
            if batch == self.d:
                g = _brockett_grad(self, x)
            else:
                g = np.empty(stack.shape)
                for r, x_i, g_i in zip(rngs, stack, g):
                    xb = self.samples[:, r.choice(self.d, size=batch, replace=False)]
                    with np.errstate(invalid="ignore"):  # inf − inf from a non-finite x, reported below
                        g_i[...] = -(self.d / batch) * (xb @ (xb.T @ x_i)) * self.dmat[None, :]
                g = g.reshape(x.shape)
        else:
            raise ConfigurationError(f"unknown noise kind {noise_cfg.kind!r}")
        if not math.isfinite(frob_norm(g)):
            as_matrix(x, "gradient input")
            if noise_cfg.kind == "gaussian" and noise_cfg.sigma_entry > 0.0:
                overflowed = ~np.isfinite(noise).all(axis=(1, 2))  # of each matrix's σ·z
                if overflowed.any():
                    index = int(np.argmax(overflowed)) if g.ndim == 3 else None
                    name = f"gaussian:{noise_cfg.sigma_entry:g}"
                    raise NumericError(f"the stochastic gradient under noise {name} has non-finite entries", index)
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
    # linalg.sym_unchecked's (c + cᵀ)/2 bit for bit, in place: numpy buffers the
    # transpose that overlaps its output.
    c += c.T
    c *= 0.5

    evals, evecs = eigh(c, "data Gram matrix")
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


def _value_from_grad(g: np.ndarray, w: np.ndarray):
    """f(w) = ½⟨∇f(w), w⟩ for the quadratic f(w) = −½ tr(wᵀ C w D), or the
    list of each matrix's value of a stack, each with its own call's bits,
    from one frob_inners product."""
    return (0.5 * frob_inners(g, w)).tolist() if g.ndim == 3 else 0.5 * frob_inner(g, w)


def _brockett_grad(inst: BrockettInstance, w: np.ndarray) -> np.ndarray:
    """−C w D for a w its caller has already scanned for finiteness, or for
    each matrix of a stack of them on leading axes."""
    g = inst.c.dot(w) if w.ndim == 2 else inst.c @ w
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
    them too. Given a StiefelPoint, the second term is the `violation` its
    constructor certified; given a matrix, feasibility_violation computes
    it, with the same bits, and a non-finite entry raises ConfigurationError
    there.
    """
    x = w.x if isinstance(w, StiefelPoint) else as_matrix(w, "subspace input", finite=False)
    ws = inst.w_star.x
    if x.shape != ws.shape:
        raise ConfigurationError(f"subspace input shape {x.shape} does not match the optimum's {ws.shape}")
    violation = w.violation if isinstance(w, StiefelPoint) else feasibility_violation(x)
    return math.hypot(math.sqrt(2.0) * frob_norm(x - ws.dot(ws.T.dot(x))), violation)

