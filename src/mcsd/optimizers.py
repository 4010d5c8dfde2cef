"""Optimizers over a common stepping interface.

Four methods share the projected-update template x ← P_M(x + α·direction),
with P_M the exact polar factor; the run's `polar_mode` picks only the
matrix sign inside a direction (the spectral LMO, Manifold Muon's inner
solve). Each method supplies only `direction(run, objective)`; the single
`step` takes the scheduled α, asks the method for its direction and projects.
`step` and `run_trace` are the one step loop, for one run or for a stack of
k runs that share a method, schedule and polar mode, stepped with one call
per operation over the stack. The objective is evaluated once per iterate:
the value and the Riemannian gradient at x are checked and cached on the
run, where the next direction and the trace's metric record both read
them. For SPEL and Manifold Muon the evaluation also holds the gradient's
one factorization (linalg.factorize): the direction reads its sign, the
record its nuclear norm. The loop names the iteration of any NumericError
(`_named`).

* MCSD picks the direction with a norm-ball LMO applied to the Riemannian
  gradient; the spectral-norm case on the Stiefel manifold is SPEL,
  msign(x − α·msign(∇_M f)).
* RGD is MCSD with the Frobenius norm (the normalized-gradient step): a
  subclass of Mcsd whose norm is fixed.
* Stochastic MCSD adds heavy-ball momentum over sampled gradients and
  applies the LMO to the tangent-projected momentum.
* Manifold Muon solves the tangent-constrained spectral LMO with a dual
  subgradient ascent inner loop, then hard-projects the direction so the
  executed step is always feasible.

Step sizes come from StepSchedule: constants, periodic decay, or the
horizon-dependent prescriptions matching the deterministic and stochastic
convergence bounds (which also pins the momentum β = 1 − T^(−1/2)).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Union

import numpy as np

from .errors import ConfigurationError, NumericError
from .linalg import (
    EXACT, PolarMode, Spectrum, as_matrix, eigh, factorize, frob_inner, frob_norm, frob_norms, gram_polar_factor,
    msign_exact, sym_unchecked,
)
from .lmo import NormKind, dual_norm, lmo, zero_tolerance
from .manifolds import StiefelPoint, tangent_component
from .objectives import NoiseConfig
from .trace import TraceRecord

# Spectral-norm tube radius around the Stiefel manifold on which the
# composed-smoothness constant is valid; bound-matching schedules cap their
# steps at this value.
STEP_RADIUS = 0.2

# Manifold Muon's inner solve must beat the normalized gradient −g/‖g‖₂ by
# ⟨g, d⟩ ≤ −‖g‖_F²/‖g‖₂ + MUON_QUALITY_TOL·‖g‖_F, or the step falls back to it.
MUON_QUALITY_TOL = 1e-3


# ---------------------------------------------------------------------------
# Step-size schedules


@dataclass(frozen=True)
class StepSchedule:
    """Deterministic step-size sequence α_t.

    kinds: "constant", "periodic_decay", "deterministic_bound",
    "stochastic_bound". The bound kinds produce the constant step matching
    the corresponding convergence guarantee for a horizon of `horizon`
    steps; the stochastic kind additionally pins the momentum parameter.
    ConfigurationError rejects an unknown kind, a base step that is not
    finite and positive (named as its kind's constructor names it) and, for
    periodic decay, such a factor, a factor above 1 (whose powers overflow)
    or a period below 1.
    """

    kind: str
    base: float
    factor: float = 1.0
    period: int = 0
    horizon: int = 0
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in _BASE_NAMES:
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        _require_positive(**{_BASE_NAMES[self.kind]: self.base})
        if self.kind == "periodic_decay":
            _require_positive(factor=self.factor)
            if self.factor > 1:
                raise ConfigurationError(f"factor must be at most 1, got {self.factor}")
            if self.period < 1:
                raise ConfigurationError(f"period must be at least 1, got {self.period}")

    def alpha(self, t: int) -> float:
        if self.kind == "periodic_decay":
            return self.base * self.factor ** (t // self.period)
        return self.base

    @property
    def momentum_beta(self) -> float:
        if self.beta is None:
            raise ConfigurationError(f"schedule kind {self.kind!r} does not define a momentum parameter")
        return self.beta

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant:{self.base:g}"
        if self.kind == "periodic_decay":
            return f"periodic_decay:{self.base:g},{self.factor:g},{self.period}"
        return f"{self.kind}:T={self.horizon}"


# Each kind's name for its base step in StepSchedule's error messages.
_BASE_NAMES = {"constant": "step_size", "periodic_decay": "alpha0", "deterministic_bound": "step_size",
               "stochastic_bound": "step_size"}


def constant_schedule(alpha: float) -> StepSchedule:
    return StepSchedule(kind="constant", base=alpha)


def periodic_decay_schedule(alpha0: float, factor: float, period: int) -> StepSchedule:
    return StepSchedule(kind="periodic_decay", base=alpha0, factor=factor, period=period)


def deterministic_bound_schedule(gap: float, lipschitz: float, norm_equiv: float, horizon: int) -> StepSchedule:
    """Constant step sqrt(2Δ/(T·L·N²)), valid once T ≥ 2Δ/(r²LN²) with r = STEP_RADIUS."""
    _require_positive(gap=gap, lipschitz=lipschitz, norm_equiv=norm_equiv)
    t_min = 2.0 * gap / (STEP_RADIUS**2 * lipschitz * norm_equiv**2)
    if horizon < t_min:
        raise ConfigurationError(
            f"horizon T={horizon} below the minimum {t_min:.6g} required for the step to stay within {STEP_RADIUS}"
        )
    alpha = math.sqrt(2.0 * gap / (horizon * lipschitz * norm_equiv**2))
    return StepSchedule(kind="deterministic_bound", base=alpha, horizon=horizon)


def stochastic_bound_schedule(gap: float, lipschitz: float, norm_equiv: float, horizon: int) -> StepSchedule:
    """Constant step sqrt(2Δ/(L·N²·T·(8√T−7))) with β = 1 − T^(−1/2)."""
    _require_positive(gap=gap, lipschitz=lipschitz, norm_equiv=norm_equiv)
    t_min = max(4.0, (gap / (2.0 * lipschitz * norm_equiv**2 * STEP_RADIUS**2)) ** (2.0 / 3.0))
    if horizon < t_min:
        raise ConfigurationError(
            f"horizon T={horizon} below the minimum {t_min:.6g} required by the stochastic step rule"
        )
    root_t = math.sqrt(horizon)
    alpha = math.sqrt(2.0 * gap / (lipschitz * norm_equiv**2 * horizon * (8.0 * root_t - 7.0)))
    return StepSchedule(kind="stochastic_bound", base=alpha, horizon=horizon, beta=1.0 - 1.0 / root_t)


def _require_positive(**named) -> None:
    """Each value must be finite and > 0; NaN fails both tests."""
    for name, value in named.items():
        if not (0 < value < math.inf):
            raise ConfigurationError(f"{name} must be finite and positive, got {value}")


# ---------------------------------------------------------------------------
# Methods: each supplies the direction of one step


# A method's choice for one step: the direction, of the run or of each run of
# a stack (zero, or a zero slice, holds its run), the inner-iteration count
# and the number of runs whose direction fell back.
Direction = tuple[np.ndarray, int, int]


@dataclass(frozen=True)
class Mcsd:
    """Deterministic LMO steepest descent under the chosen norm."""

    # The direction consumes the true gradient, so `step` evaluates each new
    # iterate ahead, inside the step, where its check fires.
    evaluates_ahead: ClassVar[bool] = True
    norm: NormKind = NormKind.SPECTRAL

    def direction(self, run: OptimizerRun, objective) -> Direction:
        """LMO(∇_M f(x)), the spectral one from the evaluation's spectrum; a
        zero gradient holds."""
        ev = _evaluation(run, objective)
        return lmo(self.norm, ev.grad, run.polar_mode, ev.spectrum), 0, 0


@dataclass(frozen=True)
class Rgd(Mcsd):
    """Riemannian gradient descent: the Frobenius-norm MCSD step,
    x ← P_M(x − α·∇_M f/‖∇_M f‖_F)."""

    norm: NormKind = field(default=NormKind.FROBENIUS, init=False)


@dataclass(frozen=True)
class StochasticMcsd:
    """Stochastic MCSD with heavy-ball momentum."""

    evaluates_ahead: ClassVar[bool] = False
    norm: NormKind = NormKind.SPECTRAL
    beta: float = 0.9
    noise: NoiseConfig = NoiseConfig("gaussian")

    def __post_init__(self):
        if not (0.0 <= self.beta < 1.0):
            raise ConfigurationError(f"beta must lie in [0, 1), got {self.beta}")

    def direction(self, run: OptimizerRun, objective) -> Direction:
        """Sample a gradient (one stochastic_grad call, of a stack with each
        run's own stream), update the momentum (m₀ = g₀) and take the LMO of
        its tangent projection; a zero projection holds."""
        if run.rng is None:
            raise ConfigurationError("stochastic runs need an RNG stream")
        x = run.x.x
        g = _checked_gradient(objective.stochastic_grad(x, run.rng, self.noise), x)
        run.momentum = g if run.momentum is None else self.beta * run.momentum + (1.0 - self.beta) * g
        return lmo(self.norm, tangent_component(x, run.momentum), run.polar_mode), 0, 0


@dataclass(frozen=True)
class ManifoldMuon:
    """Tangent-constrained spectral LMO with a dual-ascent inner solver."""

    norm: ClassVar[NormKind] = NormKind.SPECTRAL
    evaluates_ahead: ClassVar[bool] = True
    inner_iters: int = 10
    inner_lr: float = 0.1

    def __post_init__(self):
        if self.inner_iters < 1:
            raise ConfigurationError("inner_iters must be at least 1")
        _require_positive(inner_lr=self.inner_lr)

    def direction(self, run: OptimizerRun, objective) -> Direction:
        """d from the tangent-constrained inner solver, run by run (a single
        run's is the solver's own result); a zero gradient holds."""
        ev = _evaluation(run, objective)
        moves = frob_norms(ev.grad, "Riemannian gradient") > zero_tolerance(*ev.grad.shape[-2:])
        if not run.stacked:
            if not moves:
                return np.zeros_like(ev.grad), self.inner_iters, 0
            result = manifold_muon_direction(run.x, ev.grad, self.inner_iters, self.inner_lr, run.polar_mode,
                                             ev.spectrum)
            return result.direction, self.inner_iters, int(result.fallback)
        d, fallbacks = np.zeros_like(ev.grad), 0
        for x, g_m, spec, d_m, move in zip(run.x, ev.grad, ev.spectrum.matrices(), d, moves):
            if move:
                result = manifold_muon_direction(x, g_m, self.inner_iters, self.inner_lr, run.polar_mode, spec)
                d_m[...] = result.direction
                fallbacks += result.fallback
        return d, self.inner_iters, fallbacks


Method = Union[Mcsd, Rgd, StochasticMcsd, ManifoldMuon]


# ---------------------------------------------------------------------------
# Run state and the step


class Evaluation(NamedTuple):
    """The value and the Riemannian gradient of one objective at a point, or
    of each point of a stack, all finite (a non-finite one raises where it
    is evaluated, see _evaluation), as the NamedTuple each step builds.

    For a spectral method that evaluates ahead (SPEL, Manifold Muon),
    `spectrum` is the gradient's one factorization under the run's polar
    mode (of a stack, the stack's), which the direction's sign and the
    record's nuclear norm share; else None.
    """

    point: StiefelPoint
    objective: object
    value: float | list[float]
    grad: np.ndarray
    spectrum: Spectrum | None = None


@dataclass
class OptimizerRun:
    """Single-owner state of one optimization trajectory (x an n×p point,
    `rng` its stream), or of a stack of k that share a method, schedule and
    polar mode (x a (k, n, p) stack of points, `rng` the list of k streams).

    A (seed, config) pair yields a bitwise-identical trajectory, alone or in
    a stack; distinct runs own distinct RNG streams. `evaluation` caches the
    objective at x, keyed by the identity of the StiefelPoint, so assigning
    a new x invalidates it.
    """

    method: Method
    schedule: StepSchedule
    x: StiefelPoint
    rng: np.random.Generator | list[np.random.Generator] | None = None
    polar_mode: PolarMode = EXACT
    momentum: np.ndarray | None = field(default=None, init=False)
    t: int = field(default=0, init=False)
    fallback_count: int = field(default=0, init=False)
    evaluation: Evaluation | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def manifold(self):
        return self.x.manifold

    @property
    def stacked(self) -> bool:
        return self.x.x.ndim == 3


def _named(run: OptimizerRun, exc: NumericError) -> NumericError:
    """exc, of its type, prefixed with where it arose: `iteration t: `, or in
    a stack `iteration t, seed i: ` when it names run i (its `index`)."""
    at = f"iteration {run.t}" if exc.index is None or not run.stacked else f"iteration {run.t}, seed {exc.index}"
    return type(exc)(f"{at}: {exc}", exc.index)


class StepInfo(NamedTuple):
    """What a single step did, as the NamedTuple each step returns: its size,
    inner work, and special outcomes (held: no run moved, as every direction
    was zero; fallback: a run's direction fell back)."""

    alpha: float
    inner_iters: int = 0
    held: bool = False
    fallback: bool = False


def step(run: OptimizerRun, objective) -> StepInfo:
    """x ← P_M(x + α·d) with d from the run's method, of one run or of every
    run of a stack in one call per operation. The one hold rule: a run whose
    direction is zero holds, as P_M(x + α·0) = x, and when no run moves the
    run keeps its StiefelPoint. The new StiefelPoint certifies each run's
    feasibility. For a method that `evaluates_ahead`, a step that moves then
    evaluates the objective at the new x, so each step holds exactly one
    evaluation.

    Any NumericError of the step (a non-finite gradient or value, a failed
    factorization in the direction, a FeasibilityError of P_M, as from a
    rank-deficient x + α·d, whose polar factor is a partial isometry) is
    re-raised as its type, naming the iteration at which it arose (t, or
    t + 1 for the evaluation at the new x, with run.t == t + 1), and in a
    stack the run at fault.
    """
    try:
        alpha = run.schedule.alpha(run.t)
        d, inner_iters, fallbacks = run.method.direction(run, objective)
        run.fallback_count += fallbacks
        moved = d.any()
        if moved:
            x = run.x.x
            y = msign_exact(x + alpha * d)
            if x.ndim == 3:  # a zero slice holds its run
                held = ~d.any(axis=(1, 2))
                y[held] = x[held]
            run.x = StiefelPoint(y, run.manifold)
        run.t += 1
        if moved and run.method.evaluates_ahead:
            _evaluation(run, objective)
    except NumericError as exc:
        raise _named(run, exc) from exc
    return StepInfo(alpha=alpha, inner_iters=inner_iters, held=not moved, fallback=fallbacks > 0)


# `step` as defined here, for run_seeds: a wrapper installed on the module
# attribute, which run_trace looks up at each call, then sees its steps alone.
_STEP = step


def _checked_gradient(g, x: np.ndarray) -> np.ndarray:
    """g as a float64 array of x's shape, else ConfigurationError; a
    non-finite entry, which ‖g‖_F reveals before any scan, raises
    NumericError, whose `index` is the first run of a stack at fault."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape:
        raise ConfigurationError(f"gradient shape {g.shape} does not match point shape {x.shape}")
    if not math.isfinite(frob_norm(g)) and not np.isfinite(g).all():
        index = int(np.argmin(np.isfinite(g).all(axis=(-2, -1))))
        raise NumericError("the objective's gradient has non-finite entries", index)
    return g


def _evaluation(run: OptimizerRun, objective) -> Evaluation:
    """The objective at run.x: the cached evaluation if it is of this point
    and objective, else a new one (one `evaluate` call and, for a spectral
    method that evaluates ahead, the gradient's factorization), which is cached.
    A non-finite gradient, then a value that is not finite, raises
    NumericError here, whose `index` is the first run of a stack at fault."""
    ev = run.evaluation
    if ev is None or ev.point is not run.x or ev.objective is not objective:
        x = run.x.x
        value, g = objective.evaluate(x)
        g = tangent_component(x, _checked_gradient(g, x))
        if not (np.isfinite(value).all() if x.ndim == 3 else math.isfinite(value)):
            raise NumericError("the objective value is not finite", int(np.argmin(np.isfinite(value))))
        spectrum = None
        if run.method.norm is NormKind.SPECTRAL and run.method.evaluates_ahead:
            spectrum = factorize(g, run.polar_mode.iters)
        ev = run.evaluation = Evaluation(run.x, objective, value, g, spectrum)
    return ev


class MuonDirectionResult(NamedTuple):
    """Outcome of the tangent-constrained LMO inner solve, a NamedTuple."""

    direction: np.ndarray
    fallback: bool


@np.errstate(over="raise", invalid="raise")  # one scope per solve: the ascent's overflow raises where it arises
def manifold_muon_direction(
    x: StiefelPoint,
    g_m: np.ndarray,
    inner_iters: int,
    inner_lr: float,
    polar_mode: PolarMode = EXACT,
    spectrum: Spectrum | None = None,
) -> MuonDirectionResult:
    """Approximately minimize ⟨g_m, d⟩ over {‖d‖₂ ≤ 1} ∩ T_x.

    Dual subgradient ascent on the symmetric multiplier Λ:
    d ← −msign(Y) with Y = g_m + xΛ, Λ ← Λ − lr·sym(xᵀd). The final d is
    then hard-projected (tangent projection followed by a spectral-norm
    clip, ‖d‖₂ from linalg.eigh's values of dᵀd) so the returned direction
    is always feasible. It must beat the always feasible direction
    −g_m/‖g_m‖₂ up to MUON_QUALITY_TOL·‖g_m‖_F; otherwise that fallback is
    returned and flagged.

    The ascent runs on p×p matrices. msign(Y) = Y·H for the p×p factor H
    that gram_polar_factor computes from YᵀY alone. The first iteration runs at
    Λ = 0, where YᵀY = g_mᵀg_m and xᵀd = −A·H with A = xᵀg_m, so it reads
    g_m's Spectrum: `spectrum`, as the step passes the evaluation's (of a
    stack, its run's), which must be factorize(g_m, polar_mode.iters), or
    else that call's; its spectral_norm gives ‖g_m‖₂. Each later
    iteration first ascends, Λ ← Λ + (lr/2)(Q + Qᵀ) from the previous
    Q = P·H = −xᵀd (so the last Q updates nothing), then forms P = A + BΛ
    once, with B = xᵀx, and uses it twice: YᵀY = g_mᵀg_m + (ΛA)ᵀ + ΛP and
    the next Q. Only the final d is formed as an n×p matrix.
    g_m is first divided by max|g_m| (Λ in proportion), which keeps the
    Gram matrices in range. Where the exact route declines (κ(Y) ≥ 100, or
    Y rank-deficient, as at n == p with p odd), the sign comes from the SVD:
    the spectrum's at Λ = 0, and later msign_exact of Y, formed for it. A
    zero g_m gets the zero direction, with no fallback.

    An overflow or invalid operation of the ascent or of the final d, or a
    failed factorization while Λ or the inner Gram matrix is not finite, is
    the ascent's divergence (as from an inner_lr too large for the
    gradient's scale): NumericError naming Manifold Muon's dual ascent and
    the inner iteration k (from 0). A factorization that fails on finite
    input raises its own error.
    """
    if inner_iters < 1:
        raise ConfigurationError("inner_iters must be at least 1")
    g_m = as_matrix(g_m, "Riemannian gradient", finite=False)
    xm = x.x
    if g_m.shape != xm.shape:
        raise ConfigurationError(f"gradient shape {g_m.shape} does not match point shape {xm.shape}")
    if spectrum is None:
        spectrum = factorize(g_m, polar_mode.iters, name="Riemannian gradient")
    scale = spectrum.scale
    if scale == 0.0:
        return MuonDirectionResult(np.zeros(g_m.shape), False)
    g, gram_g, h = spectrum.x, spectrum.gram, spectrum.h
    # Every operand is 2-D, so every product takes ndarray.dot (see linalg).
    a = xm.T.dot(g)
    b = xm.T.dot(xm)
    half_lr = 0.5 * inner_lr / scale
    g_spec = spectrum.spectral_norm()
    lam, p_lam, gram = np.zeros_like(b), a, gram_g
    msign_y = spectrum.sign() if h is None else None
    try:
        for k in range(inner_iters):
            if k:
                lam = lam + half_lr * (q + q.T)
                p_lam = a + b.dot(lam)
                gram = gram_g + lam.dot(a).T + lam.dot(p_lam)
                h = gram_polar_factor(gram, polar_mode.iters)[1]
                if h is None:
                    msign_y = msign_exact(g + xm.dot(lam))
            q = xm.T.dot(msign_y) if h is None else p_lam.dot(h)

        neg_tangency = sym_unchecked(q)  # −sym(xᵀd)
        # d − x·sym(xᵀd), with d = −(g + xΛ)·H on the p×p route
        d = xm.dot(neg_tangency) - msign_y if h is None else -g.dot(h) - xm.dot(lam.dot(h) - neg_tangency)
        d_spec = math.sqrt(max(float(eigh(d.T.dot(d), "direction Gram matrix", vectors=False)[-1]), 0.0))
    except (FloatingPointError, NumericError) as exc:
        if isinstance(exc, NumericError) and np.isfinite(lam).all() and np.isfinite(gram).all():
            raise  # a factorization that fails on finite input
        raise NumericError(
            f"Manifold Muon's dual ascent diverged at inner iteration #{k}: "
            "the multiplier or a matrix formed from it is not finite"
        ) from exc
    d = d / max(1.0, d_spec)  # ‖d‖₂ ≤ 1

    g_fro = scale * math.sqrt(float(gram_g.trace()))
    target = -(g_fro**2) / g_spec
    value = scale * frob_inner(g, d)
    if value <= target + MUON_QUALITY_TOL * g_fro:
        return MuonDirectionResult(d, False)
    return MuonDirectionResult(-g_m / g_spec, True)


# ---------------------------------------------------------------------------
# Trace driver


def run_trace(
    run: OptimizerRun,
    objective,
    steps: int,
    subspace_fn: Callable[[StiefelPoint], float] | None = None,
) -> list[TraceRecord] | list[list[TraceRecord]]:
    """Step `steps` times, recording metrics at every iterate x_0 … x_T: the
    run's list of records, or of a stack the list of each run's.

    elapsed_s accumulates the wall time of the optimizer steps only, so
    per-step costs of different methods compare cleanly; each run of a stack
    of k accrues 1/k of each step's time, and a single run (k = 1) the whole
    of it. A step whose method uses the true gradient evaluates the
    objective at the new iterate inside that time, and for SPEL and Manifold
    Muon factors its gradient there, so each method's step time holds its
    own factorization. The record of the iterate (objective value, subspace
    error, feasibility, dual norm of the true Riemannian gradient) reads
    that evaluation, the dual norm from the factorization where there is
    one, and computes the rest outside the timer. The records of x_0, and of
    every iterate of a stochastic method, evaluate the objective themselves.
    `subspace_fn` receives the iterate's StiefelPoint.

    A NumericError from a step or a metric record (a feasibility abort, a
    non-finite value or gradient, a failed factorization) names its
    iteration, as `step` does, and carries the records accumulated so far,
    shaped as the return value, in its `records` attribute, so callers can
    flush a partial trace.
    """
    return _trace(run, objective, steps, subspace_fn, step)


def _trace(run: OptimizerRun, objective, steps: int, subspace_fn, step_fn):
    """run_trace, stepping with step_fn."""
    k = len(run.x.x) if run.stacked else 1
    traces: list[list[TraceRecord]] = [[] for _ in range(k)]
    out = traces if run.stacked else traces[0]
    elapsed = 0.0
    try:
        for t in range(steps + 1):
            alpha = run.schedule.alpha(run.t) if t < steps else 0.0
            try:
                records = _records(run, objective, subspace_fn, t, elapsed, alpha)
            except NumericError as exc:
                raise _named(run, exc) from exc
            for trace, rec in zip(traces, records):
                trace.append(rec)
            if t == steps:
                break
            tic = time.perf_counter()
            info = step_fn(run, objective)
            elapsed += (time.perf_counter() - tic) / k
            if info.inner_iters:
                for trace in traces:
                    trace[-1] = trace[-1]._replace(inner_iters=info.inner_iters)
    except NumericError as exc:
        exc.records = out
        raise
    return out


def _records(run: OptimizerRun, objective, subspace_fn, t: int, elapsed: float, step_size: float) -> list[TraceRecord]:
    """The record of the current iterate of each run, from the run's
    evaluation: the gradient's dual norm from its spectrum where the
    evaluation has one (Spectrum.nuclear_norm), else from dual_norm. The
    records are zipped from columns, a single run's of one entry each."""
    ev = _evaluation(run, objective)
    dual = dual_norm(run.method.norm, ev.grad) if ev.spectrum is None else ev.spectrum.nuclear_norm()
    if run.stacked:
        points, values, violations, duals = run.x, map(float, ev.value), run.x.violation, dual.tolist()
    else:
        points, values, violations, duals = (run.x,), [float(ev.value)], [run.x.violation], [float(dual)]
    errors = map(subspace_fn, points) if subspace_fn is not None else itertools.repeat(math.nan)
    return [
        TraceRecord(t, value, error, violation, norm, step_size, 0, elapsed)
        for value, error, violation, norm in zip(values, errors, violations, duals)
    ]


def run_seeds(
    method: StochasticMcsd,
    schedule: StepSchedule,
    x0: StiefelPoint,
    rngs: list[np.random.Generator],
    objective,
    steps: int,
) -> list[list[TraceRecord]]:
    """run_trace, without a subspace_fn, of the stack of stochastic-MCSD runs
    from x0 with one generator of `rngs` each. Seed i's trace equals, field
    for field except elapsed_s, run_trace's of OptimizerRun(method, schedule,
    x0, rngs[i]): a stack's operations give each run its own call's bits."""
    if not isinstance(method, StochasticMcsd):
        raise ConfigurationError(f"run_seeds steps stochastic MCSD, got {type(method).__name__}")
    if not rngs:
        raise ConfigurationError("run_seeds needs at least one RNG stream")
    run = OptimizerRun(method, schedule, StiefelPoint(np.stack([x0.x] * len(rngs)), x0.manifold), list(rngs))
    return _trace(run, objective, steps, None, _STEP)
