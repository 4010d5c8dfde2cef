"""Non-finite values: what each public entry point raises on outside input,
and how a run reports a gradient or an objective value that turns
non-finite mid-way."""

import numpy as np
import pytest

from mcsd import (
    EXACT,
    ConfigurationError,
    NoiseConfig,
    NormKind,
    NumericError,
    PolarMode,
    StiefelPoint,
    dual_norm,
    feasibility_violation,
    lmo,
    make_brockett,
    msign_exact,
    msign_iterative,
    project,
    riemannian_grad,
)
from mcsd.linalg import frob_norms
from mcsd.optimizers import (
    ManifoldMuon,
    Mcsd,
    OptimizerRun,
    Rgd,
    StochasticMcsd,
    constant_schedule,
    manifold_muon_direction,
    run_trace,
    step,
)
from tests.conftest import haar

ITERATIVE = PolarMode(iters=8)
POINT = haar(200, 5, seed=0)
MANIFOLD = POINT.manifold

# Each entry maps a (200, 5) matrix to one public call, and names the input
# it is fed: a Gaussian draw, or the orthonormal point itself.
CALLS = {
    "msign_exact": (lambda a: msign_exact(a), "gaussian"),
    "msign_exact_svd_route": (lambda a: msign_exact(a[:12, :4]), "gaussian"),
    "msign_iterative": (lambda a: msign_iterative(a), "gaussian"),
    "lmo_frobenius": (lambda a: lmo(NormKind.FROBENIUS, a), "gaussian"),
    "lmo_spectral_exact": (lambda a: lmo(NormKind.SPECTRAL, a), "gaussian"),
    "lmo_spectral_iterative": (lambda a: lmo(NormKind.SPECTRAL, a, ITERATIVE), "gaussian"),
    "dual_norm_frobenius": (lambda a: dual_norm(NormKind.FROBENIUS, a), "gaussian"),
    "dual_norm_spectral": (lambda a: dual_norm(NormKind.SPECTRAL, a), "gaussian"),
    "project_exact": (lambda a: project(MANIFOLD, a), "gaussian"),
    "riemannian_grad": (lambda a: riemannian_grad(POINT, a), "gaussian"),
    "StiefelPoint": (lambda a: StiefelPoint(a, MANIFOLD), "point"),
    "feasibility_violation": (lambda a: feasibility_violation(a), "point"),
    "frob_norms": (lambda a: frob_norms(a, "norm input"), "gaussian"),
    "frob_norms_stack": (lambda a: frob_norms(a.reshape(8, 25, 5), "norm input"), "gaussian"),  # slice 0 or 7
    "manifold_muon_direction_exact": (lambda a: manifold_muon_direction(POINT, a, 10, 0.1), "gaussian"),
    "manifold_muon_direction_iterative": (
        lambda a: manifold_muon_direction(POINT, a, 10, 0.1, polar_mode=ITERATIVE),
        "gaussian",
    ),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "last"])
def test_nonfinite_input_is_a_configuration_error(name, value, where):
    call, kind = CALLS[name]
    a = POINT.x.copy() if kind == "point" else np.random.default_rng(1).standard_normal((200, 5))
    if name == "msign_exact_svd_route":
        a[:12, :4][(0, 0) if where == "first" else (-1, -1)] = value
    else:
        a[(0, 0) if where == "first" else (-1, -1)] = value
    with pytest.raises(ConfigurationError, match="non-finite"):
        call(a)


class PoisonedObjective:
    """A weighted-PCA objective whose gradients are NaN while run.t == 3."""

    def __init__(self, inst):
        self.inst = inst
        self.run = None

    def _poison(self, g):
        return np.full_like(g, np.nan) if self.run.t == 3 else g

    def value(self, x):
        return self.inst.value(x)

    def euclid_grad(self, x):
        return self._poison(self.inst.euclid_grad(x))

    def evaluate(self, x):
        return self.value(x), self.euclid_grad(x)

    def stochastic_grad(self, x, rng, noise):
        return self._poison(self.inst.stochastic_grad(x, rng, noise))


METHODS = {
    "rgd": Rgd(),
    "spel": Mcsd(NormKind.SPECTRAL),
    "mcsd_frobenius": Mcsd(NormKind.FROBENIUS),
    "mm": ManifoldMuon(),
    "smcsd": StochasticMcsd(NormKind.SPECTRAL, beta=0.9, noise=NoiseConfig.additive_gaussian(0.01)),
}


def poisoned_run(method_name, polar_mode, poisoned=PoisonedObjective):
    objective = poisoned(make_brockett(20, 3, 60, data_seed=2))
    run = OptimizerRun(
        method=METHODS[method_name], schedule=constant_schedule(0.05), x=haar(20, 3, seed=3),
        rng=np.random.default_rng(4), polar_mode=polar_mode,
    )
    objective.run = run
    return run, objective


@pytest.mark.parametrize("method_name", sorted(METHODS))
@pytest.mark.parametrize("polar_mode", [EXACT, ITERATIVE], ids=["exact", "iterative"])
def test_nonfinite_gradient_in_step_names_the_iteration(method_name, polar_mode):
    # a true-gradient method evaluates x_3 ahead, inside its 3rd step; the
    # stochastic one samples its gradient at x_3 in its 4th
    run, objective = poisoned_run(method_name, polar_mode)
    clean_steps = 3 if method_name == "smcsd" else 2
    for _ in range(clean_steps):
        step(run, objective)
    with pytest.raises(NumericError, match="iteration 3"):
        step(run, objective)
    assert run.t == 3


@pytest.mark.parametrize("method_name", sorted(METHODS))
def test_nonfinite_gradient_in_run_trace_names_the_iteration(method_name):
    # run_trace evaluates the gradient for the metric record of x_3 first
    run, objective = poisoned_run(method_name, ITERATIVE)
    with pytest.raises(NumericError, match="iteration 3"):
        run_trace(run, objective, 10)


class PoisonedValue(PoisonedObjective):
    """Finite gradients, but an objective value that is NaN while run.t == 3."""

    def _poison(self, g):
        return g

    def value(self, x):
        return float("nan") if self.run.t == 3 else self.inst.value(x)


@pytest.mark.parametrize("method_name", sorted(METHODS))
def test_nonfinite_value_in_run_trace_names_the_iteration(method_name):
    run, objective = poisoned_run(method_name, ITERATIVE, PoisonedValue)
    with pytest.raises(NumericError, match="iteration 3"):
        run_trace(run, objective, 10)
    assert run.t == 3


@pytest.mark.parametrize("poison", [PoisonedObjective, PoisonedValue], ids=["gradient", "value"])
def test_run_trace_numeric_abort_carries_the_partial_trace(poison):
    # the metric record of x_3 raises: x_0 … x_2 are on the error
    run, objective = poisoned_run("spel", ITERATIVE, poison)
    with pytest.raises(NumericError) as raised:
        run_trace(run, objective, 10)
    assert [r.iter for r in raised.value.records] == [0, 1, 2]
