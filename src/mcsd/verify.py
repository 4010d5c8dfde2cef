"""Run-time verification of the optimizer's descent and convergence bounds.

Each checker reduces to a single inequality lhs ≤ rhs + slack packaged as a
BoundReport: the per-step descent inequality sampled over random points and
directions, the telescoped trace audit, the min-gradient rate bounds under
the matching step schedules, and a brute-force net cross-validation of the
LMO. Checkers are read-only consumers of traces and are reproducible from
their (seed, config) inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FeasibilityError
from .linalg import frob_inners, frob_norms, gram_eigenvalues, msign_exact, svd
from .lmo import NormKind, lmo
from .manifolds import StiefelManifold, StiefelPoint, tangent_component
from .objectives import BrockettInstance, brockett_grad_unchecked, smoothness_constants, value_from_grad
from .optimizers import STEP_RADIUS, StepSchedule
from .trace import TraceRecord

# Slack on one evaluation of the per-step descent inequality, sampled
# (check_descent_lemma) or read off a trace (audit_per_step_descent).
DESCENT_SLACK = 1e-8

# Per-step slack of the telescoped trace audit: a T-step trace gets
# TELESCOPED_SLACK·T for floating-point accumulation.
TELESCOPED_SLACK = 1e-6

# Slack of the deterministic min-gradient rate check.
RATE_SLACK = 1e-6

# check_descent_lemma scores its samples this many at a time. On the 50x3
# verify instance a chunk array is 37.5 KiB and the check's working set
# 0.5 MiB, below the brute-force nets' (1.1–1.8 MiB); at most 64 keeps it
# there. Below 32 the stacked calls' per-call cost is no longer amortized,
# and above it the per-matrix cost stops falling. Each sample is scored on
# its own, so lhs and rhs are the same floats at any chunk size.
DESCENT_CHUNK = 32

# The brute-force LMO check allows the oracle LMO_NET_TOL·‖s‖_F above the
# net minimum.
LMO_NET_TOL = 1e-2

# The brute-force net is drawn and scored this many directions at a time.
# At 16 384 a chunk array of a 2x2, 3x2 or 3x3 net is 0.5–1.1 MiB, so the
# few arrays alive at once stay cache-sized and the check's working set is
# a few MiB whatever the net's size. Every direction is drawn in sequence
# and scored on its own, so the net minima do not depend on this value.
NET_CHUNK = 16_384

@dataclass
class BoundReport:
    """One verified inequality lhs ≤ rhs + slack.

    `passed` is derived from the three numbers and from nothing else, so the
    machine line, the human line and the CLI's exit code cannot disagree. A
    check over many rows reports the row with the largest lhs − rhs − slack
    (see _WorstRow), so it passes exactly when every row does.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    constants: dict[str, float] = field(default_factory=dict)
    detail: str = ""
    witness: tuple | None = None
    seconds: float | None = None  # wall time of the check, set by run_verify

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.slack

    def machine_line(self) -> str:
        return f"{self.name},{self.lhs:.17g},{self.rhs:.17g},{self.slack:.17g},{str(self.passed).lower()}"

    def human_lines(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        consts = ", ".join(f"{k}={v:.6g}" for k, v in self.constants.items())
        timing = "" if self.seconds is None else f" ({self.seconds:.3g} s)"
        lines = [
            f"[{status}] {self.name}: lhs={self.lhs:.6e} <= rhs={self.rhs:.6e} + slack={self.slack:.3e}{timing}"
        ]
        if consts:
            lines.append(f"       constants: {consts}")
        if self.detail:
            lines.append(f"       {self.detail}")
        return "\n".join(lines)


class _WorstRow:
    """The row with the largest margin lhs − rhs − slack among those offered
    one at a time, so no check holds more than this one row. The first of
    equal margins is kept, and a NaN margin is worse than any other."""

    def __init__(self) -> None:
        self.margin = -math.inf
        self.row: tuple = ()

    def offer(self, lhs: float, rhs: float, slack: float, *context) -> None:
        margin = lhs - rhs - slack
        if not (margin <= self.margin or math.isnan(self.margin)):
            self.margin, self.row = margin, (lhs, rhs, slack, *context)


def gap_with_headroom(inst: BrockettInstance, x0: np.ndarray) -> float:
    """Objective gap f(x0) − f(w*) with 10% headroom.

    The Brockett infimum is known exactly from the eigendecomposition, so
    any inflation keeps the gap a valid upper bound.
    """
    return 1.1 * (inst.value(x0) - inst.optimum_value())


def check_descent_lemma(inst: BrockettInstance, samples: int, rng: np.random.Generator) -> BoundReport:
    """Sample the per-step descent inequality of the projected update.

    Draws Haar-random x and directions d with ‖d‖₂ uniform in
    (0, STEP_RADIUS] (Gaussian direction rescaled to a uniform spectral
    radius) and checks f(P_M(x+d)) ≤ f(x) + ⟨∇_M f(x), d⟩ + (L/2)‖d‖_F² with
    the certified composed-smoothness constant L. Reports the worst margin
    and, beside L, the largest observed curvature
    2·(f(P_M(x+d)) − f(x) − ⟨∇_M f(x), d⟩)/‖d‖_F²; a violation beyond
    DESCENT_SLACK fails the report and carries the witness (x, d).

    Each sample draws its Gaussian y (x is the polar factor of y), its
    Gaussian direction and its radius in turn. The samples are then scored
    DESCENT_CHUNK at a time with stacked calls, each of which gives every
    sample the bits its own call would: lhs and rhs are those of
    random_point, gram_eigenvalues' spectral norm, evaluate, msign_exact,
    riemannian_grad and value called sample by sample. The per-sample
    reductions are stacked too: f(x), f(P_M(x+d)) and ⟨∇_M f(x), d⟩ are each
    one frob_inners product, and ‖d‖_F² one row sum. Each chunk's x is one
    StiefelPoint, so a rank-deficient y (probability 0), whose factor is a
    partial isometry, raises its FeasibilityError, naming the sample.
    """
    if samples < 1:
        raise ConfigurationError("samples must be at least 1")
    lip = smoothness_constants(inst).composed_lipschitz
    shape = (inst.n, inst.p)
    manifold = StiefelManifold(*shape)

    worst = _WorstRow()
    curvature = -math.inf
    for start in range(0, samples, DESCENT_CHUNK):
        size = min(DESCENT_CHUNK, samples - start)
        y = np.empty((size,) + shape)
        d = np.empty((size,) + shape)
        rho = np.empty(size)
        for k in range(size):
            y[k] = rng.standard_normal(shape)
            d[k] = rng.standard_normal(shape)
            rho[k] = STEP_RADIUS * (1.0 - rng.uniform(0.0, 1.0))  # uniform in (0, STEP_RADIUS]
        try:
            x = StiefelPoint(msign_exact(y), manifold).x
        except FeasibilityError as exc:
            raise FeasibilityError(f"descent-lemma sample {start + exc.index}: {exc}") from exc
        d *= (rho / gram_eigenvalues(d, "descent-lemma direction").spectral_norm())[:, None, None]
        egrad = brockett_grad_unchecked(inst, x)
        rgrad = tangent_component(x, egrad)
        w = msign_exact(x + d)
        wgrad = brockett_grad_unchecked(inst, w)
        rows = zip(
            value_from_grad(egrad, x), value_from_grad(wgrad, w), frob_inners(rgrad, d).tolist(),
            (d * d).reshape(size, -1).sum(axis=1).tolist(),
        )
        for k, (fx, lhs, slope, sq) in enumerate(rows):
            rhs = fx + slope + 0.5 * lip * sq
            curvature = max(curvature, 2.0 * (lhs - fx - slope) / sq)
            worst.offer(lhs, rhs, DESCENT_SLACK, start + k, x[k], d[k])

    lhs, rhs, slack, idx, x_w, d_w = worst.row
    report = BoundReport(
        name="descent_lemma",
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        constants={"L": lip, "r": STEP_RADIUS},
        detail=(
            f"worst margin {lhs - rhs:.3e} over {samples} samples (sample {idx}); "
            f"largest observed curvature {curvature:.6g} against L = {lip:.6g}"
        ),
    )
    if not report.passed:
        report.witness = (x_w, d_w)
    return report


def audit_deterministic_bound(records: list[TraceRecord], lipschitz: float, norm_equiv: float) -> BoundReport:
    """Telescoped audit of a deterministic MCSD trace.

    Recomputes Σ α_t·‖∇_M f(x_t)‖_* ≤ f(x_0) − f(x_T) + (LN²/2)·Σ α_t² from
    the trace rows, with slack TELESCOPED_SLACK·T for floating-point
    accumulation.
    """
    _require_dual_norms(records)
    horizon = len(records) - 1
    steps = records[:horizon]
    lhs = sum(r.step_size * r.grad_dual_norm for r in steps)
    sq = sum(r.step_size**2 for r in steps)
    rhs = records[0].objective - records[horizon].objective + 0.5 * lipschitz * norm_equiv**2 * sq
    return BoundReport(
        name="telescoped_descent",
        lhs=lhs,
        rhs=rhs,
        slack=TELESCOPED_SLACK * horizon,
        constants={"L": lipschitz, "N": norm_equiv, "T": float(horizon)},
    )


def audit_per_step_descent(records: list[TraceRecord], lipschitz: float, norm_equiv: float) -> BoundReport:
    """Worst single-step check of f(x_{t+1}) ≤ f(x_t) − α_t‖∇_M f‖_* + (L/2)α_t²N²."""
    _require_dual_norms(records)
    worst = _WorstRow()
    for t in range(len(records) - 1):
        r = records[t]
        rhs = r.objective - r.step_size * r.grad_dual_norm + 0.5 * lipschitz * r.step_size**2 * norm_equiv**2
        worst.offer(records[t + 1].objective, rhs, DESCENT_SLACK, t)
    lhs, rhs, slack, t = worst.row
    return BoundReport(
        name="per_step_descent",
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        constants={"L": lipschitz, "N": norm_equiv},
        detail=f"worst step t={t}, margin {lhs - rhs:.3e}",
    )


def check_min_grad_rate(
    traces: list[list[TraceRecord]],
    gap: float,
    lipschitz: float,
    norm_equiv: float,
    schedule: StepSchedule,
    sigma: float = 0.0,
) -> BoundReport:
    """Rate check on the smallest recorded gradient dual norm.

    Deterministic schedule: min_t ‖∇_M f(x_t)‖_* ≤ sqrt(2ΔLN²/T) + RATE_SLACK
    on a single trace. Stochastic schedule: the seed-mean of per-seed minima must
    stay below 4N(√(LΔ)+σ)·T^(−1/4) plus a 3-standard-error Monte-Carlo
    slack, over at least 20 seeds (the guarantee bounds an expectation); the
    detail names the iterate at which each seed's minimum falls.
    """
    if schedule.kind not in ("deterministic_bound", "stochastic_bound"):
        raise ConfigurationError(f"rate check requires a bound-matching schedule, got {schedule.kind!r}")
    horizon = schedule.horizon
    for tr in traces:
        _require_dual_norms(tr)
        if len(tr) - 1 != horizon:
            raise ConfigurationError(
                f"trace length {len(tr) - 1} does not match the schedule horizon {horizon}"
            )

    if schedule.kind == "deterministic_bound":
        if len(traces) != 1:
            raise ConfigurationError("deterministic rate check takes exactly one trace")
        lhs = min(r.grad_dual_norm for r in traces[0][:horizon])
        rhs = math.sqrt(2.0 * gap * lipschitz * norm_equiv**2 / horizon)
        slack = RATE_SLACK
        name = "min_grad_rate_deterministic"
        detail = ""
    else:
        if len(traces) < 20:
            raise ConfigurationError(f"stochastic rate check needs >= 20 seeds, got {len(traces)}")
        columns = [[r.grad_dual_norm for r in tr[:horizon]] for tr in traces]
        minima = np.array([min(column) for column in columns])
        argmins = [column.index(m) for column, m in zip(columns, minima.tolist())]  # the first of equal minima
        lhs = float(minima.mean())
        rhs = 4.0 * norm_equiv * (math.sqrt(lipschitz * gap) + sigma) * horizon**-0.25
        slack = 3.0 * float(minima.std(ddof=1)) / math.sqrt(len(minima))
        name = "min_grad_rate_stochastic"
        detail = (
            f"{len(traces)} seeds, per-seed minima in [{minima.min():.4g}, {minima.max():.4g}], "
            f"attained at t = {', '.join(map(str, argmins))}"
        )

    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        constants={"gap": gap, "L": lipschitz, "N": norm_equiv, "T": float(horizon), "sigma": sigma},
        detail=detail,
    )


def brute_force_lmo_check(
    norm: NormKind,
    dims: tuple[int, int],
    net_size: int,
    rng: np.random.Generator,
    inputs: int = 20,
) -> BoundReport:
    """Cross-validate the LMO value against a random net of the unit ball.

    Draws `inputs` random matrices s, then one net of `net_size` unit-norm
    directions, drawn after the inputs in cache-sized chunks of NET_CHUNK
    directions and shared by every input, and asserts ⟨s, lmo(s)⟩ ≤ net
    minimum + LMO_NET_TOL·‖s‖_F for each s. The net minimum is an upper bound on the
    true optimum, so this certifies the oracle is at least as good as brute
    force. Each input is held to its own slack, and the report is the input
    with the largest lhs − rhs − slack. The inputs are one stack, whose LMO,
    inner products and norms give each input its own call's bits.
    """
    if dims[0] > 3 or dims[1] > 3:
        raise ConfigurationError("net oracle is only tractable for dims up to 3x3")
    if net_size < 10**5:
        raise ConfigurationError("net_size must be at least 1e5 for meaningful resolution")
    if inputs < 1:
        raise ConfigurationError(f"the check needs at least one input, got {inputs}")

    targets = rng.standard_normal((inputs, *dims))  # the draws of one matrix at a time
    net_minima = _net_minima(norm, tuple(dims), targets, net_size, rng)
    values = frob_inners(targets, lmo(norm, targets)).tolist()
    slacks = (LMO_NET_TOL * frob_norms(targets, "lmo input")).tolist()
    worst = _WorstRow()
    for k, row in enumerate(zip(values, net_minima, slacks)):
        worst.offer(*row, k)

    lhs, rhs, slack, idx = worst.row
    return BoundReport(
        name=f"lmo_net_{norm.value}",
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        constants={"net_size": float(net_size), "inputs": float(inputs)},
        detail=f"worst input {idx}: oracle {lhs:.6g} vs net {rhs:.6g}",
    )


def _net_minima(
    norm: NormKind, dims: tuple[int, int], targets: np.ndarray, net_size: int, rng: np.random.Generator
) -> list[float]:
    """min ⟨s, d⟩ for each s in `targets` over one net of `net_size` directions
    d with norm(d) = 1, drawn, normalized in place and scored NET_CHUNK at a
    time, so no array outgrows one cache-sized chunk however large the net
    or however many targets share it. The minima are the same floats at any
    NET_CHUNK: the draws are sequential and each direction is scored alone."""
    best = [math.inf] * len(targets)
    remaining = net_size
    while remaining > 0:
        size = min(NET_CHUNK, remaining)
        remaining -= size
        g = rng.standard_normal((size,) + dims)
        if norm is NormKind.FROBENIUS:
            scale = np.sqrt(np.sum(g * g, axis=(1, 2)))
        elif dims == (2, 2):
            scale = _spectral_norms_2x2(g)
        else:
            scale = svd(g, "net direction", compute_uv=False)[:, 0]
        g /= scale[:, None, None]
        for k, s in enumerate(targets):
            best[k] = min(best[k], float(np.tensordot(g, s, axes=([1, 2], [0, 1])).min()))
    return best


def _spectral_norms_2x2(g: np.ndarray) -> np.ndarray:
    """Closed-form largest singular value of stacked 2x2 matrices."""
    a, b = g[:, 0, 0], g[:, 0, 1]
    c, d = g[:, 1, 0], g[:, 1, 1]
    q1 = np.sqrt((a + d) ** 2 + (b - c) ** 2)
    q2 = np.sqrt((a - d) ** 2 + (b + c) ** 2)
    return 0.5 * (q1 + q2)


def _require_dual_norms(records: list[TraceRecord]) -> None:
    if len(records) < 2:
        raise ConfigurationError(f"a trace of {len(records)} records holds no step")
    if any(not math.isfinite(r.grad_dual_norm) for r in records):
        raise ConfigurationError("trace is missing gradient dual-norm values")
