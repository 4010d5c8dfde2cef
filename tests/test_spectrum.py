"""One factorization of each gradient: factorize's Spectrum feeds the
spectral LMO, the record's nuclear norm and Manifold Muon's first inner
iteration, each with the bits of the one-shot call it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import EXACT, NormKind, PolarMode, StiefelPoint, dual_norm, lmo, make_brockett, riemannian_grad
from mcsd import optimizers
from mcsd.linalg import factorize
from mcsd.optimizers import ManifoldMuon, Mcsd, OptimizerRun, constant_schedule, run_trace
from tests.conftest import haar, patch_lapack

MODES = [EXACT, PolarMode(iters=1), PolarMode(iters=8)]
MODE_IDS = ["exact", "iterative1", "iterative8"]


@st.composite
def gradients(draw):
    """(g, kind): an n×p matrix with 1 <= p <= n <= 40 (p == 1 and n == p
    drawn often), of one of the kinds below, at a scale 1e-150, 1 or 1e150."""
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([1, 40])))
    p = draw(st.one_of(st.integers(1, n), st.sampled_from([1, n])))
    kind = draw(st.sampled_from(["gaussian", "kappa_below_100", "kappa_above_100", "rank_deficient", "zero"]))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        return scale * rng.standard_normal((n, p)), kind
    u = np.linalg.qr(rng.standard_normal((n, p)))[0]
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    sigma = {
        "kappa_below_100": np.geomspace(1.0, 1 / 99.9, p),
        "kappa_above_100": np.geomspace(1.0, 1 / 100.1, p),
        "rank_deficient": np.r_[rng.uniform(1.0, 10.0, p - p // 2), np.zeros(p // 2)],
        "zero": np.zeros(p),
    }[kind]
    return scale * (u * sigma) @ v.T, kind


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gradients(), st.sampled_from(MODES))
def test_property_spectrum_feeds_the_lmo_and_the_nuclear_norm(case, mode):
    g, kind = case
    spec = factorize(g, mode.iters)
    assert np.array_equal(lmo(NormKind.SPECTRAL, g, mode, spec), lmo(NormKind.SPECTRAL, g, mode))
    nuclear = spec.nuclear_norm()
    values = np.linalg.svd(g, compute_uv=False)
    if spec.conditioned:
        assert abs(nuclear - values.sum()) <= 1e-12 * values.sum()
    elif spec.usv is not None:  # the exact route's own SVD
        assert nuclear == np.linalg.svd(g, full_matrices=False)[1].sum()
        assert abs(nuclear - values.sum()) <= 1e-12 * values.sum()
    else:
        assert nuclear == dual_norm(NormKind.SPECTRAL, g)
    if kind == "kappa_below_100" and g.shape[1] > 1 and spec.w is not None:
        assert spec.conditioned
    if kind in ("kappa_above_100", "rank_deficient") and g.shape[1] > 1:
        assert not spec.conditioned
    if kind == "zero":
        assert nuclear == 0.0 and not spec.sign().any()


class LapackSpy:
    """Records the input of every call of the package's LAPACK factorizations."""

    NAMES = ("eigh", "eigvalsh", "svd")

    def __init__(self, monkeypatch):
        self.calls = []
        for name in self.NAMES:
            def wrap(original, _name=name):
                def spy(a, *args, **kwargs):
                    self.calls.append((_name, np.array(a, copy=True), kwargs))
                    return original(a, *args, **kwargs)

                return spy

            patch_lapack(monkeypatch, name, wrap)


class RecordingInstance:
    """An instance's objective that keeps every point it evaluates."""

    def __init__(self, inst):
        self.inst, self.points = inst, []

    def evaluate(self, x):
        self.points.append(x.copy())
        return self.inst.evaluate(x)


class TestOneFactorizationPerIterate:
    """A SPEL or Manifold Muon run at 200x5 factors each iterate's gradient
    once: the direction's sign and the record's nuclear norm share it, and
    where κ < 100 no record runs an SVD."""

    STEPS = 8

    @pytest.mark.parametrize("mode", [EXACT, PolarMode(iters=8)], ids=["exact", "iterative8"])
    @pytest.mark.parametrize("method", [Mcsd(NormKind.SPECTRAL), ManifoldMuon()], ids=["spel", "mm"])
    def test_each_gradient_is_factored_once(self, monkeypatch, method, mode):
        inst = make_brockett(200, 5, 1000, data_seed=7)
        objective = RecordingInstance(inst)
        run = OptimizerRun(method=method, schedule=constant_schedule(0.05), x=haar(200, 5, seed=11), polar_mode=mode)
        with monkeypatch.context() as mp:
            spy = LapackSpy(mp)
            run_trace(run, objective, self.STEPS)
        assert len(objective.points) == self.STEPS + 1
        for x in objective.points:
            g = riemannian_grad(StiefelPoint(x, run.manifold), inst.euclid_grad(x))
            assert np.linalg.cond(g) < 100
            scaled = g / np.abs(g).max()
            gram = scaled.T @ scaled
            of_g = [name for name, a, _ in spy.calls
                    if (name == "eigh" and np.array_equal(a, gram)) or (name == "svd" and np.array_equal(a, g))]
            assert of_g == ["eigh"]
        assert not [name for name, _, _ in spy.calls if name == "svd"]


class TestManifoldMuonFedTheSpectrum:
    """Each step hands manifold_muon_direction the evaluation's spectrum; the
    result is the one-shot call's, bit for bit, direction and fallback."""

    @pytest.mark.parametrize("mode", [EXACT, PolarMode(iters=8)], ids=["exact", "iterative8"])
    @pytest.mark.parametrize("inner_lr", [0.1, 1e9], ids=["stock", "fallback"])
    def test_trajectory_matches_the_one_shot_call(self, monkeypatch, mode, inner_lr):
        inst = make_brockett(200, 5, 1000, data_seed=7)
        original = optimizers.manifold_muon_direction
        fed, fallbacks = [], []

        def compare(x, g_m, inner_iters, lr, polar_mode, spectrum=None):
            result = original(x, g_m, inner_iters, lr, polar_mode, spectrum)
            one_shot = original(x, g_m, inner_iters, lr, polar_mode)
            fed.append(spectrum is not None and spectrum.y is g_m)
            assert np.array_equal(result.direction, one_shot.direction)
            assert result.fallback == one_shot.fallback
            fallbacks.append(result.fallback)
            return result

        monkeypatch.setattr(optimizers, "manifold_muon_direction", compare)
        run = OptimizerRun(method=ManifoldMuon(inner_lr=inner_lr), schedule=constant_schedule(0.05),
                           x=haar(200, 5, seed=11), polar_mode=mode)
        run_trace(run, inst, 30)
        assert fed == [True] * 30
        assert any(fallbacks) == (inner_lr > 1)

    @pytest.mark.parametrize("mode", [EXACT, PolarMode(iters=8)], ids=["exact", "iterative8"])
    def test_ill_conditioned_gradient_matches_the_one_shot_call(self, mode):
        # κ(g) = 1e3: the exact route declines the first iteration's Gram
        x = haar(200, 5, seed=7)
        rng = np.random.default_rng(8)
        complement = np.linalg.qr(np.hstack([x.x, rng.standard_normal((200, 5))]))[0][:, 5:]
        g = complement @ np.diag(np.geomspace(1e3, 1.0, 5)) @ np.linalg.qr(rng.standard_normal((5, 5)))[0]
        spec = factorize(g, mode.iters)
        assert spec.conditioned is False and (spec.usv is not None) == (mode.iters is None)
        fed = optimizers.manifold_muon_direction(x, g, 10, 0.1, mode, spec)
        one_shot = optimizers.manifold_muon_direction(x, g, 10, 0.1, mode)
        assert np.array_equal(fed.direction, one_shot.direction) and fed.fallback == one_shot.fallback
