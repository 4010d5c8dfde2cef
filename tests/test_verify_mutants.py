"""Seeded bugs run through `run_verify("full")`: which reports catch each one.

Each bug is applied by monkeypatch to the names the battery and the
optimizers call, and the battery runs once per bug with its own checks,
bounds, slacks, seeds and net sizes. The table pins today's catch matrix:
the exact set of reports that fail, or the typed error the battery raises.
A bug that no report catches is pinned with the empty set, so a check that
learns to catch it must change its row here. The stochastic bugs are also
shown to reach the lockstep driver (`run_seeds`) that the stochastic rate
check steps its seeds with.
"""

import numpy as np
import pytest

import mcsd.bench
import mcsd.optimizers
import mcsd.verify
from mcsd import NormKind, StiefelManifold, make_brockett, norm_equiv_constant, smoothness_constants
from mcsd.errors import FeasibilityError
from mcsd.objectives import BrockettInstance
from mcsd.optimizers import StochasticMcsd


def scaled_lmo(factor):
    def apply(monkeypatch):
        exact = mcsd.optimizers.lmo

        def lmo(norm, s, *args):
            return factor * exact(norm, s, *args)

        for module in (mcsd.optimizers, mcsd.verify):
            monkeypatch.setattr(module, "lmo", lmo)

    return apply


def mapped_stochastic_grad(fn):
    def apply(monkeypatch):
        exact = BrockettInstance.stochastic_grad
        monkeypatch.setattr(
            BrockettInstance, "stochastic_grad", lambda self, x, rng, noise: fn(exact(self, x, rng, noise))
        )

    return apply


def dropped_momentum(monkeypatch):
    exact = StochasticMcsd.direction

    def direction(self, run, objective):
        run.momentum = None  # every step restarts from m = g
        return exact(self, run, objective)

    monkeypatch.setattr(StochasticMcsd, "direction", direction)


def skipped_tangent_component(monkeypatch):
    monkeypatch.setattr(mcsd.optimizers, "tangent_component", lambda x, g: g)


def skipped_retraction(monkeypatch):
    monkeypatch.setattr(mcsd.optimizers, "msign_exact", lambda y: y)


def shrunken_lipschitz(monkeypatch):
    exact = mcsd.bench.smoothness_constants

    def shrunken(inst):
        consts = exact(inst)
        return consts._replace(composed_lipschitz=0.1 * consts.composed_lipschitz)

    for module in (mcsd.bench, mcsd.verify):
        monkeypatch.setattr(module, "smoothness_constants", shrunken)


# bug → (how to apply it, the names of the reports that fail or the error
# the battery raises). An empty set means no report catches the bug today.
MUTANTS = {
    "negated-lmo": (scaled_lmo(-1.0), {"lmo_net_spectral", "lmo_net_frobenius", "per_step_descent"}),
    "lmo-x2": (scaled_lmo(2.0), set()),
    "lmo-x0.1": (scaled_lmo(0.1), {"lmo_net_spectral", "lmo_net_frobenius"}),
    "sign-flipped-stochastic-grad": (mapped_stochastic_grad(lambda g: -g), set()),
    # every entry offset by the sample's mean absolute entry
    "biased-stochastic-grad": (
        mapped_stochastic_grad(lambda g: g + np.abs(g).mean(axis=(-2, -1), keepdims=True)), set()),
    "dropped-momentum": (dropped_momentum, set()),
    "skipped-tangent-projection": (skipped_tangent_component, {"per_step_descent", "telescoped_descent"}),
    "skipped-retraction": (skipped_retraction, FeasibilityError),
    "shrunken-lipschitz": (shrunken_lipschitz, set()),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_catch_matrix(monkeypatch, name):
    apply, caught = MUTANTS[name]
    apply(monkeypatch)
    if isinstance(caught, type):
        with pytest.raises(caught):
            mcsd.bench.run_verify("full")
    else:
        reports = mcsd.bench.run_verify("full")
        assert {r.name for r in reports if not r.passed} == caught


STOCHASTIC_BUGS = ("sign-flipped-stochastic-grad", "biased-stochastic-grad", "dropped-momentum")


def stochastic_rate_run(monkeypatch):
    """The battery's stochastic rate report and the lockstep traces it read."""
    seen = []
    lockstep = mcsd.bench.run_seeds
    monkeypatch.setattr(mcsd.bench, "run_seeds", lambda *args: seen.append(lockstep(*args)) or seen[-1])
    inst = make_brockett(50, 3, 200, data_seed=7)
    report = mcsd.bench._stochastic_rate_report(
        inst, StiefelManifold(50, 3), smoothness_constants(inst).composed_lipschitz,
        norm_equiv_constant(NormKind.SPECTRAL, 50, 3),
    )
    (traces,) = seen
    return report, traces


@pytest.fixture(scope="module")
def clean_stochastic_run():
    with pytest.MonkeyPatch.context() as mp:
        return stochastic_rate_run(mp)


@pytest.mark.parametrize("name", STOCHASTIC_BUGS)
def test_stochastic_bug_reaches_the_lockstep_path(monkeypatch, clean_stochastic_run, name):
    clean_report, clean_traces = clean_stochastic_run
    MUTANTS[name][0](monkeypatch)
    report, traces = stochastic_rate_run(monkeypatch)
    # every seed's trajectory moves
    assert all(a[-1].objective != b[-1].objective for a, b in zip(traces, clean_traces))
    # Every seed's minimum dual norm sits at t = 0, the record of the shared
    # x0, in the clean run and under the biased gradient and dropped
    # momentum, so only the flipped gradient moves the report's lhs.
    assert (report.lhs != clean_report.lhs) == (name == "sign-flipped-stochastic-grad")
