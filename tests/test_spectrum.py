"""One factorization of each gradient: factorize's Spectrum feeds the
spectral LMO, the record's nuclear norm and Manifold Muon's first inner
iteration, each with the bits of the one-shot call it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import (
    EXACT, ConfigurationError, NoiseConfig, NormKind, PolarMode, StiefelPoint, StochasticMcsd, dual_norm, lmo,
    make_brockett, optimizers, riemannian_grad,
)
from mcsd.linalg import factorize, gram_eigenvalues
from mcsd.optimizers import ManifoldMuon, Mcsd, OptimizerRun, constant_schedule, run_trace
from tests.conftest import haar, patch_lapack

MODES = [EXACT, PolarMode(iters=1), PolarMode(iters=8)]
MODE_IDS = ["exact", "iterative1", "iterative8"]
KINDS = ["gaussian", "kappa_below_100", "kappa_above_100", "rank_deficient", "zero"]


def matrix_of_kind(rng, n, p, kind, scale):
    """An n×p matrix of `kind` at `scale`: Gaussian, or u·diag(σ)·vᵀ with σ
    spread over κ = 99.9 or 100.1, half of them 0, or all 0."""
    if kind == "gaussian":
        return scale * rng.standard_normal((n, p))
    u = np.linalg.qr(rng.standard_normal((n, p)))[0]
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    sigma = {
        "kappa_below_100": np.geomspace(1.0, 1 / 99.9, p),
        "kappa_above_100": np.geomspace(1.0, 1 / 100.1, p),
        "rank_deficient": np.r_[rng.uniform(1.0, 10.0, p - p // 2), np.zeros(p // 2)],
        "zero": np.zeros(p),
    }[kind]
    return scale * (u * sigma) @ v.T


@st.composite
def gradients(draw):
    """(g, kind): an n×p matrix with 1 <= p <= n <= 40 (p == 1 and n == p
    drawn often), of one of KINDS, at a scale 1e-150, 1 or 1e150."""
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([1, 40])))
    p = draw(st.one_of(st.integers(1, n), st.sampled_from([1, n])))
    kind = draw(st.sampled_from(KINDS))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return matrix_of_kind(rng, n, p, kind, scale), kind


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


@st.composite
def dual_norm_stacks(draw):
    """A stack (k, n, p) of 1 to 4 matrices of gradients()' kinds, each at
    its own scale, transposed to wide (k, p, n) when drawn so."""
    n = draw(st.one_of(st.integers(1, 30), st.sampled_from([1, 30])))
    p = draw(st.one_of(st.integers(1, n), st.sampled_from([1, n])))
    k = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=k, max_size=k))
    scales = draw(st.lists(st.sampled_from([1e-150, 1.0, 1e150]), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([matrix_of_kind(rng, n, p, kind, scale) for kind, scale in zip(kinds, scales)])
    return stack.swapaxes(1, 2).copy() if draw(st.booleans()) else stack


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dual_norm_stacks(), st.sampled_from(MODES), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_property_dual_norm_takes_the_one_nuclear_norm_rule(stack, mode, bad):
    # LAPACK's values-only and vectors eigensolvers round w differently from
    # p = 3 on, so the Gram figure is factorize's bit for bit only at p <= 2
    # or where both take the values-only SVD; elsewhere both are Σσ to 1e-12.
    # The same Gram eigenvalues give each matrix's σ_max to 1e-12 at any κ.
    norms = dual_norm(NormKind.SPECTRAL, stack)
    spectral = gram_eigenvalues(stack, "input").spectral_norm()
    assert norms.shape == spectral.shape == (len(stack),)
    for norm, largest, s in zip(norms.tolist(), spectral.tolist(), stack):
        assert norm == dual_norm(NormKind.SPECTRAL, s)
        assert largest == gram_eigenvalues(s, "input").spectral_norm()
        values = np.linalg.svd(s, compute_uv=False)
        sigma = float(values.sum())
        assert abs(norm - sigma) <= 1e-12 * sigma
        assert abs(largest - values[0]) <= 1e-12 * values[0]
        spec = factorize(s, mode.iters)
        if (spec.conditioned and min(s.shape) <= 2) or (not spec.conditioned and spec.usv is None):
            assert norm == spec.nuclear_norm()
        else:
            assert abs(norm - spec.nuclear_norm()) <= 1e-12 * sigma
    corrupt = stack.copy()
    corrupt[-1].flat[7 % corrupt[-1].size] = bad
    with pytest.raises(ConfigurationError, match="^dual-norm input contains non-finite entries$"):
        dual_norm(NormKind.SPECTRAL, corrupt)
    with pytest.raises(ConfigurationError, match="^dual-norm input contains non-finite entries$"):
        dual_norm(NormKind.SPECTRAL, corrupt[-1])


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

    def stochastic_grad(self, x, rng, noise):
        return self.inst.stochastic_grad(x, rng, noise)


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


class TestStochasticRecords:
    """A stochastic run has no factorization of its true gradient: each
    record takes the nuclear norm from one values-only eigendecomposition of
    the gradient's Gram matrix (lmo.dual_norm), and where κ < 100 no SVD."""

    STEPS = 8

    def test_records_call_no_svd_where_conditioned(self, monkeypatch):
        inst = make_brockett(200, 5, 1000, data_seed=7)
        objective = RecordingInstance(inst)
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.9, noise=NoiseConfig.additive_gaussian(0.1))
        # the iterative sign takes no SVD, so any SVD call would be a record's
        run = OptimizerRun(method=method, schedule=constant_schedule(0.05), x=haar(200, 5, seed=11),
                           rng=np.random.default_rng(12), polar_mode=PolarMode(iters=8))
        with monkeypatch.context() as mp:
            spy = LapackSpy(mp)
            records = run_trace(run, objective, self.STEPS)
        assert len(objective.points) == self.STEPS + 1
        for x, record in zip(objective.points, records):
            g = riemannian_grad(StiefelPoint(x, run.manifold), inst.euclid_grad(x))
            assert np.linalg.cond(g) < 100
            scaled = g / np.abs(g).max()
            gram = scaled.T @ scaled
            assert [name for name, a, _ in spy.calls if np.array_equal(a, gram)] == ["eigvalsh"]
            assert record.grad_dual_norm == dual_norm(NormKind.SPECTRAL, g)
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
