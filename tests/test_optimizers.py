import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcsd import (
    EXACT,
    BrockettInstance,
    ConfigurationError,
    FeasibilityError,
    NoiseConfig,
    NormKind,
    NumericError,
    PolarMode,
    StiefelManifold,
    StiefelPoint,
    frob_inner,
    make_brockett,
    msign_exact,
    msign_iterative,
    project,
    random_point,
    riemannian_grad,
    subspace_error,
)
from mcsd import optimizers
from mcsd.linalg import sym_unchecked
from mcsd.manifolds import tangent_component
from mcsd.optimizers import (
    STEP_RADIUS,
    ManifoldMuon,
    Mcsd,
    OptimizerRun,
    Rgd,
    StepSchedule,
    StochasticMcsd,
    constant_schedule,
    deterministic_bound_schedule,
    manifold_muon_direction,
    periodic_decay_schedule,
    run_seeds,
    run_trace,
    step,
    stochastic_bound_schedule,
)
from mcsd.trace import TraceRecord
from tests.conftest import haar, patch_lapack


class ZeroObjective:
    """Constant objective: zero gradient everywhere."""

    def evaluate(self, x):
        return 1.5, np.zeros_like(x)


class RecordingObjective:
    """Wraps an instance and logs every stochastic gradient drawn."""

    def __init__(self, inst):
        self.inst = inst
        self.drawn = []

    def evaluate(self, x):
        return self.inst.evaluate(x)

    def stochastic_grad(self, x, rng, noise):
        g = self.inst.stochastic_grad(x, rng, noise)
        self.drawn.append(g.copy())
        return g


class TestSchedules:
    def test_periodic_decay_values(self):
        s = periodic_decay_schedule(0.1, 0.5, 30)
        assert s.alpha(0) == 0.1
        assert s.alpha(29) == 0.1
        assert s.alpha(30) == 0.05
        assert s.alpha(60) == 0.025

    def test_constant(self):
        s = constant_schedule(0.001)
        assert s.alpha(0) == s.alpha(999) == 0.001

    def test_deterministic_bound_step_value(self):
        s = deterministic_bound_schedule(gap=1.0, lipschitz=1.0, norm_equiv=1.0, horizon=50)
        assert abs(s.alpha(0) - math.sqrt(2.0 / 50.0)) < 1e-15
        assert abs(s.alpha(0) - 0.2) < 1e-15

    def test_deterministic_bound_minimum_horizon(self):
        with pytest.raises(ConfigurationError, match="minimum"):
            deterministic_bound_schedule(gap=1.0, lipschitz=1.0, norm_equiv=1.0, horizon=49)

    def test_stochastic_bound_beta(self):
        s = stochastic_bound_schedule(gap=0.01, lipschitz=1.0, norm_equiv=1.0, horizon=4)
        assert abs(s.momentum_beta - 0.5) < 1e-15
        expected = math.sqrt(2 * 0.01 / (1.0 * 4 * (8 * 2 - 7)))
        assert abs(s.alpha(0) - expected) < 1e-15

    def test_stochastic_bound_minimum_horizon(self):
        with pytest.raises(ConfigurationError):
            stochastic_bound_schedule(gap=0.01, lipschitz=1.0, norm_equiv=1.0, horizon=3)

    def test_bound_schedules_respect_radius_cap(self):
        for horizon in (50, 100, 1000):
            s = deterministic_bound_schedule(gap=1.0, lipschitz=1.0, norm_equiv=1.0, horizon=horizon)
            assert 0.0 < s.alpha(0) <= STEP_RADIUS + 1e-15
        s = stochastic_bound_schedule(gap=1.0, lipschitz=1.0, norm_equiv=1.0, horizon=100)
        assert 0.0 < s.alpha(0) <= STEP_RADIUS + 1e-15

    def test_positive_params_required(self):
        with pytest.raises(ConfigurationError):
            constant_schedule(-1.0)
        with pytest.raises(ConfigurationError):
            periodic_decay_schedule(0.1, 0.5, 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_finite_positive_values_required(self, bad):
        # NaN fails every comparison, so a bare `<= 0` test lets it through
        makers = {
            "step_size": lambda: constant_schedule(bad),
            "alpha0": lambda: periodic_decay_schedule(bad, 0.5, 30),
            "factor": lambda: periodic_decay_schedule(0.1, bad, 30),
            "inner_lr": lambda: ManifoldMuon(inner_lr=bad),
            "gap": lambda: deterministic_bound_schedule(gap=bad, lipschitz=1.0, norm_equiv=1.0, horizon=100),
        }
        for name, make in makers.items():
            with pytest.raises(ConfigurationError, match=f"{name} must be finite and positive"):
                make()


    def test_schedule_validates_its_own_fields(self):
        # the checks sit in StepSchedule, so a schedule built directly gets them too
        with pytest.raises(ConfigurationError, match="period must be at least 1, got 0"):
            StepSchedule(kind="periodic_decay", base=0.1, factor=0.5, period=0)
        with pytest.raises(ConfigurationError, match="unknown schedule kind 'cosine'"):
            StepSchedule(kind="cosine", base=0.1)

    def test_periodic_decay_factor_at_most_one(self):
        # a larger factor grows α_t until factor ** (t // period) overflows
        with pytest.raises(ConfigurationError, match="factor must be at most 1, got 2.0"):
            periodic_decay_schedule(0.1, 2.0, 1)
        assert periodic_decay_schedule(0.1, 1.0, 1).alpha(10**6) == 0.1

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 0.0, math.inf])
    @pytest.mark.parametrize("kind, name", [("constant", "step_size"), ("periodic_decay", "alpha0")])
    def test_schedule_base_must_be_finite_and_positive(self, kind, name, bad):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite and positive"):
            StepSchedule(kind=kind, base=bad, factor=0.5, period=10)


class TestMcsdStep:
    def test_zero_gradient_holds(self):
        x0 = haar(6, 2, seed=0)
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.1), x=x0)
        info = step(run, ZeroObjective())
        assert info.held and run.x is x0
        assert np.array_equal(run.x.x, x0.x)
        assert run.t == 1

    def test_spectral_step_closed_form(self, small_instance):
        # one spectral step must equal msign(x - alpha * msign(grad))
        x0 = haar(50, 3, seed=1)
        alpha = 0.05
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(alpha), x=x0)
        step(run, small_instance)
        g = riemannian_grad(x0, small_instance.euclid_grad(x0.x))
        expected = msign_exact(x0.x - alpha * msign_exact(g))
        assert np.array_equal(run.x.x, expected)

    def test_sphere_spectral_equals_frobenius_one_step(self, rng):
        from mcsd import make_brockett

        inst = make_brockett(30, 1, 90, data_seed=3)
        x0 = haar(30, 1, seed=2)
        runs = [
            OptimizerRun(method=Mcsd(norm), schedule=constant_schedule(0.01), x=x0)
            for norm in (NormKind.SPECTRAL, NormKind.FROBENIUS)
        ]
        for run in runs:
            step(run, inst)
        assert np.abs(runs[0].x.x - runs[1].x.x).max() < 1e-12

    def test_square_spectral_exact_runs(self):
        # skew gradients of odd order are singular: every step needs the
        # rank-revealing spectral LMO
        from mcsd import make_brockett

        inst = make_brockett(5, 5, 20, data_seed=1)
        x0 = haar(5, 5, seed=0)
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.05), x=x0)
        recs = run_trace(run, inst, 50)
        assert len(recs) == 51 and run.t == 50
        assert max(r.orth_violation for r in recs) <= 1e-10
        assert recs[-1].objective < recs[0].objective


class TestRgdStep:
    def test_trajectory_identical_to_frobenius_mcsd(self, small_instance):
        # against the normalized-gradient formula P_M(x − α·g/‖g‖_F), written
        # out independently of the LMO
        x = haar(50, 3, seed=4)
        alpha = 0.02
        run = OptimizerRun(method=Rgd(), schedule=constant_schedule(alpha), x=x)
        for _ in range(100):
            g = riemannian_grad(x, small_instance.euclid_grad(x.x))
            x = project(x.manifold, x.x - alpha * g / np.linalg.norm(g))
            step(run, small_instance)
            assert np.abs(run.x.x - x.x).max() <= 1e-12

    def test_norm_fixed_to_frobenius(self):
        assert isinstance(Rgd(), Mcsd) and Rgd().norm is NormKind.FROBENIUS
        with pytest.raises(TypeError):
            Rgd(NormKind.SPECTRAL)

    def test_zero_gradient_holds(self):
        x0 = haar(6, 2, seed=5)
        run = OptimizerRun(method=Rgd(), schedule=constant_schedule(0.1), x=x0)
        info = step(run, ZeroObjective())
        assert info.held and run.x is x0

    def test_small_constant_step_decreases_subspace_error(self, pca_instance):
        x0 = random_point(StiefelManifold(200, 5), np.random.default_rng(11))
        run = OptimizerRun(method=Rgd(), schedule=constant_schedule(0.001), x=x0)
        recs = run_trace(run, pca_instance, 50, subspace_fn=lambda w: subspace_error(pca_instance, w))
        errs = [r.subspace_error for r in recs]
        assert all(b <= a for a, b in zip(errs, errs[1:]))


class TestStochasticMcsdStep:
    def test_noiseless_memoryless_matches_deterministic(self, small_instance):
        x0 = haar(50, 3, seed=6)
        sched = constant_schedule(0.05)
        noise = NoiseConfig.additive_gaussian(0.0)
        r_sto = OptimizerRun(
            method=StochasticMcsd(NormKind.SPECTRAL, beta=0.0, noise=noise),
            schedule=sched, x=x0, rng=np.random.default_rng(0),
        )
        r_det = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=sched, x=x0)
        for _ in range(50):
            step(r_sto, small_instance)
            step(r_det, small_instance)
            assert np.abs(r_sto.x.x - r_det.x.x).max() <= 1e-12

    def test_beta_zero_momentum_equals_gradient(self, small_instance):
        inst = RecordingObjective(small_instance)
        run = OptimizerRun(
            method=StochasticMcsd(NormKind.SPECTRAL, beta=0.0, noise=NoiseConfig.additive_gaussian(0.1)),
            schedule=constant_schedule(0.01), x=haar(50, 3, seed=7), rng=np.random.default_rng(1),
        )
        for _ in range(10):
            step(run, inst)
            assert np.array_equal(run.momentum, inst.drawn[-1])

    def test_momentum_matches_unrolled_sum(self, small_instance):
        # m_t must equal (1-b) * sum b^(t-i) g_i + b^t g_0 from the logged draws
        beta = 0.7
        inst = RecordingObjective(small_instance)
        run = OptimizerRun(
            method=StochasticMcsd(NormKind.SPECTRAL, beta=beta, noise=NoiseConfig.additive_gaussian(0.5)),
            schedule=constant_schedule(0.01), x=haar(50, 3, seed=8), rng=np.random.default_rng(2),
        )
        for t in range(21):
            step(run, inst)
            g = inst.drawn
            expected = (beta**t) * g[0]
            for i in range(1, t + 1):
                expected = expected + (1 - beta) * beta ** (t - i) * g[i]
            assert np.abs(run.momentum - expected).max() < 1e-10

    def test_momentum_absent_until_first_step(self, small_instance):
        run = OptimizerRun(
            method=StochasticMcsd(NormKind.SPECTRAL, beta=0.9, noise=NoiseConfig.additive_gaussian(0.0)),
            schedule=constant_schedule(0.01), x=haar(50, 3, seed=9), rng=np.random.default_rng(3),
        )
        assert run.momentum is None
        step(run, small_instance)
        assert run.momentum is not None

    def test_requires_rng(self, small_instance):
        run = OptimizerRun(
            method=StochasticMcsd(NormKind.SPECTRAL, beta=0.9, noise=NoiseConfig.additive_gaussian(0.0)),
            schedule=constant_schedule(0.01), x=haar(50, 3, seed=10),
        )
        with pytest.raises(ConfigurationError):
            step(run, small_instance)

    def test_beta_validated(self):
        with pytest.raises(ConfigurationError):
            StochasticMcsd(NormKind.SPECTRAL, beta=1.0, noise=NoiseConfig.additive_gaussian(0.0))

    def test_zero_projected_momentum_holds_position(self):
        class ZeroStochastic(ZeroObjective):
            def stochastic_grad(self, x, rng, noise):
                return np.zeros_like(x)

        x0 = haar(6, 2, seed=23)
        run = OptimizerRun(
            method=StochasticMcsd(NormKind.SPECTRAL, beta=0.5, noise=NoiseConfig.additive_gaussian(0.0)),
            schedule=constant_schedule(0.1), x=x0, rng=np.random.default_rng(0),
        )
        info = step(run, ZeroStochastic())
        assert info.held
        assert np.array_equal(run.x.x, x0.x)
        assert run.momentum is not None and run.t == 1


class TestManifoldMuonDirection:
    def test_square_orthogonal_tangent_after_one_iteration(self):
        # on the square orthogonal manifold the first inner iterate is
        # already tangent (msign of a skew matrix is skew)
        rng = np.random.default_rng(4)
        x = haar(4, 4, seed=11)
        a = rng.standard_normal((4, 4))
        skew = a - a.T
        g = x.x @ skew  # tangent at a square orthogonal point
        res = manifold_muon_direction(x, g, inner_iters=1, inner_lr=0.1)
        # the hard projection and the clip leave −msign(g) as it is
        assert not res.fallback
        assert np.linalg.norm(res.direction + msign_exact(g)) <= 1e-8
        z = res.direction
        assert np.linalg.norm(x.x.T @ z + z.T @ x.x) <= 1e-8

    def test_sphere_direction_is_normalized_gradient(self, rng):
        x = haar(12, 1, seed=12)
        g = rng.standard_normal((12, 1))
        g = g - x.x * float((x.x.T @ g)[0, 0])  # tangent
        res = manifold_muon_direction(x, g, inner_iters=10, inner_lr=0.1)
        expected = -g / np.linalg.norm(g)
        assert np.linalg.norm(res.direction - expected) < 1e-12
        assert not res.fallback

    def test_dominates_normalized_gradient(self, pca_instance, rng):
        m = StiefelManifold(200, 5)
        for _ in range(10):
            x = random_point(m, rng)
            g = riemannian_grad(x, pca_instance.euclid_grad(x.x))
            res = manifold_muon_direction(x, g, inner_iters=10, inner_lr=0.1)
            g_fro = np.linalg.norm(g)
            target = -(g_fro**2) / np.linalg.norm(g, 2)
            assert frob_inner(g, res.direction) <= target + 1e-3 * g_fro
            assert not res.fallback

    def test_feasible_after_hard_projection(self, small_instance, rng):
        m = StiefelManifold(50, 3)
        x = random_point(m, rng)
        g = riemannian_grad(x, small_instance.euclid_grad(x.x))
        res = manifold_muon_direction(x, g, inner_iters=10, inner_lr=0.1)
        d = res.direction
        assert np.linalg.norm(x.x.T @ d + d.T @ x.x) <= 1e-8
        assert np.linalg.norm(d, 2) <= 1.0 + 1e-8

    def test_fallback_engages_on_broken_inner_solve(self, small_instance, rng):
        # an absurd inner step size wrecks the multiplier; the guard must
        # substitute the always-feasible normalized gradient
        m = StiefelManifold(50, 3)
        x = random_point(m, rng)
        g = riemannian_grad(x, small_instance.euclid_grad(x.x))
        res = manifold_muon_direction(x, g, inner_iters=3, inner_lr=1e9)
        assert res.fallback
        assert np.allclose(res.direction, -g / np.linalg.norm(g, 2))

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning would raise
    @pytest.mark.parametrize("mode", [EXACT, PolarMode(8)], ids=["exact", "iterative_8"])
    def test_diverging_ascent_is_named(self, mode):
        # x is the polar factor of the same Gaussian draw, so g, its tangent
        # part, is rounding-level: max|g| ≈ 1.4e-165 makes the scaled dual
        # step 0.5·inner_lr/max|g| overflow the multiplier at the first
        # ascent, where LAPACK would then fail on the non-finite Gram matrix
        x = haar(3, 3, seed=0)
        g = tangent_component(x.x, np.random.default_rng(0).standard_normal((3, 3)) * 1e-150)
        message = r"^Manifold Muon's dual ascent diverged at inner iteration #1: "
        with pytest.raises(NumericError, match=message):
            manifold_muon_direction(x, g, inner_iters=10, inner_lr=0.1, polar_mode=mode)


def reference_muon_direction(x, g_m, inner_iters, inner_lr, polar_mode=EXACT):
    """The inner solve on n×p iterates: d ← −msign(g_m + xΛ), Λ ← Λ − lr·sym(xᵀd)."""
    lam = np.zeros((x.manifold.p, x.manifold.p))
    for _ in range(inner_iters):
        d = -polar_mode.apply(g_m + x.x @ lam)
        lam = lam - inner_lr * sym_unchecked(x.x.T @ d)
    d = riemannian_grad(x, d)
    d = d / max(1.0, np.linalg.norm(d, 2))
    g_fro = np.linalg.norm(g_m)
    g_spec = np.linalg.norm(g_m, 2)
    if frob_inner(g_m, d) <= -(g_fro**2) / g_spec + 1e-3 * g_fro:
        return d, False
    return -g_m / g_spec, True


def tangent_gradient(x, rng, sigma=None):
    """A tangent vector at x; with `sigma`, one with exactly those singular
    values and xᵀg = 0."""
    n, p = x.x.shape
    if sigma is None:
        return riemannian_grad(x, rng.standard_normal((n, p)))
    complement = np.linalg.qr(np.hstack([x.x, rng.standard_normal((n, p))]))[0][:, p:]
    return complement @ np.diag(sigma) @ msign_exact(rng.standard_normal((p, p)))


class TestManifoldMuonGramEquivalence:
    """manifold_muon_direction runs the ascent on p×p Gram matrices; it must
    agree with the n×p loop."""

    MODES = [EXACT, PolarMode(iters=8)]

    @pytest.mark.parametrize("shape", [(200, 5), (1000, 50), (50, 3), (4, 4), (12, 1)])
    @pytest.mark.parametrize("mode", MODES, ids=["exact", "iterative"])
    @pytest.mark.parametrize("inner_lr", [0.1, 1e9])
    def test_matches_reference_loop(self, shape, mode, inner_lr):
        rng = np.random.default_rng(shape[0] + shape[1])
        x = haar(*shape, seed=shape[1])
        g = tangent_gradient(x, rng)
        res = manifold_muon_direction(x, g, 10, inner_lr, polar_mode=mode)
        ref, ref_fallback = reference_muon_direction(x, g, 10, inner_lr, polar_mode=mode)
        assert res.fallback == ref_fallback
        assert np.linalg.norm(res.direction - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_exact_route_declines_ill_conditioned(self, monkeypatch):
        # κ(g) = 1e3: the first iterations form Y and call msign_exact
        calls = []
        monkeypatch.setattr(optimizers, "msign_exact", lambda y: calls.append(y) or msign_exact(y))
        x = haar(200, 5, seed=7)
        g = tangent_gradient(x, np.random.default_rng(8), sigma=np.geomspace(1e3, 1.0, 5))
        res = manifold_muon_direction(x, g, 10, 0.1)
        ref, ref_fallback = reference_muon_direction(x, g, 10, 0.1)
        assert calls
        assert res.fallback == ref_fallback
        assert np.linalg.norm(res.direction - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("mode", MODES, ids=["exact", "iterative"])
    def test_extreme_gradient_scales(self, scale, mode):
        x = haar(200, 5, seed=9)
        g = scale * tangent_gradient(x, np.random.default_rng(10))
        res = manifold_muon_direction(x, g, 10, 0.1, polar_mode=mode)
        ref, ref_fallback = reference_muon_direction(x, g, 10, 0.1, polar_mode=mode)
        assert res.fallback == ref_fallback
        assert np.linalg.norm(res.direction - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_zero_gradient_gives_the_zero_direction(self):
        res = manifold_muon_direction(haar(20, 3, seed=13), np.zeros((20, 3)), 10, 0.1)
        assert res.direction.shape == (20, 3) and not res.direction.any() and not res.fallback

    @pytest.mark.parametrize("mode", MODES, ids=["exact", "iterative"])
    @pytest.mark.parametrize("inner_iters", [1, 10])
    def test_one_eigh_per_inner_iteration(self, mode, inner_iters, monkeypatch):
        # ‖g‖₂ comes from the first iteration's eigenvalues; the only other
        # eigen call is the final clip's
        x = haar(200, 5, seed=14)
        g = tangent_gradient(x, np.random.default_rng(15))
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def wrap(original, _name=name):
                def counted(a):
                    calls[_name] += 1
                    return original(a)

                return counted

            patch_lapack(monkeypatch, name, wrap)
        res = manifold_muon_direction(x, g, inner_iters, 0.1, polar_mode=mode)
        assert not res.fallback
        assert calls == {"eigh": inner_iters, "eigvalsh": 1}


class TestManifoldMuonStep:
    def test_zero_gradient_holds(self):
        x0 = haar(6, 2, seed=13)
        run = OptimizerRun(method=ManifoldMuon(), schedule=constant_schedule(0.1), x=x0)
        info = step(run, ZeroObjective())
        assert info.held and run.x is x0

    def test_value_non_increasing_first_20_steps(self, pca_instance):
        x0 = random_point(StiefelManifold(200, 5), np.random.default_rng(11))
        run = OptimizerRun(
            method=ManifoldMuon(), schedule=periodic_decay_schedule(0.1, 0.5, 30), x=x0
        )
        recs = run_trace(run, pca_instance, 20)
        objs = [r.objective for r in recs]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        assert run.fallback_count == 0

    def test_inner_iters_in_step_info(self, small_instance):
        run = OptimizerRun(
            method=ManifoldMuon(inner_iters=7), schedule=constant_schedule(0.05), x=haar(50, 3, seed=14)
        )
        info = step(run, small_instance)
        assert info.inner_iters == 7

    def test_hyperparameters_validated(self):
        with pytest.raises(ConfigurationError):
            ManifoldMuon(inner_iters=0)
        with pytest.raises(ConfigurationError):
            ManifoldMuon(inner_lr=-0.1)
        # the public entry point keeps its own guard: with no inner iteration
        # it would have no direction to return
        x = haar(20, 3, seed=16)
        with pytest.raises(ConfigurationError, match="inner_iters must be at least 1"):
            manifold_muon_direction(x, np.ones((20, 3)), 0, 0.1)


class TestDispatchAndState:
    def test_step_dispatch(self, small_instance):
        for method in (Mcsd(NormKind.SPECTRAL), Rgd(), ManifoldMuon()):
            run = OptimizerRun(method=method, schedule=constant_schedule(0.01), x=haar(50, 3, seed=15))
            info = step(run, small_instance)
            assert run.t == 1 and info.alpha == 0.01

    def test_method_norms(self):
        assert Rgd().norm is NormKind.FROBENIUS
        assert ManifoldMuon().norm is NormKind.SPECTRAL
        assert Mcsd(NormKind.FROBENIUS).norm is NormKind.FROBENIUS

    def test_feasibility_guard_aborts_underresolved_projection(self, small_instance, underresolved_retraction):
        # one polar iteration cannot reach the manifold tolerance
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.1), x=haar(50, 3, seed=16))
        with pytest.raises(FeasibilityError, match="iteration 0"):
            step(run, small_instance)


class RankOneDirection:
    """Stub method whose direction −x + u·vᵀ makes x + 1·d the rank-1 u·vᵀ."""

    evaluates_ahead = False
    norm = NormKind.SPECTRAL

    def direction(self, run, objective):
        n, p = run.x.x.shape
        return -run.x.x + np.outer(np.arange(1.0, n + 1), np.ones(p)), 0, False


def failing_at(run, t, fn):
    """fn, raising LinAlgError instead while run.t == t."""

    def call(*args, **kwargs):
        if run.t == t:
            raise np.linalg.LinAlgError("forced")
        return fn(*args, **kwargs)

    return call


def failing_slice(nth, index):
    """A patch_lapack wrap: the matrix at `index` of the `nth` stacked
    (3-D) call, picked by its content, then fails in every call that holds
    it, alone or in a stack; every other input factors as LAPACK does."""
    stacks, picked = itertools.count(1), []

    def wrap(factor):
        def call(a, **kwargs):
            if a.ndim == 3 and next(stacks) == nth:
                picked.append(a[index].copy())
            if picked and any(np.array_equal(m, picked[0]) for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("forced")
            return factor(a, **kwargs)

        return call

    return wrap


class AlternateFallback:
    """Stub method that reports a fallback on every even step and moves along
    the negated tangent gradient."""

    evaluates_ahead = True
    norm = NormKind.FROBENIUS

    def direction(self, run, objective):
        g = objective.euclid_grad(run.x.x)
        d = -(g - run.x.x @ sym_unchecked(run.x.x.T @ g))
        return d / np.linalg.norm(d), 0, run.t % 2 == 0


class TestFallbackCount:
    @pytest.mark.parametrize("horizon", [1, 4, 7])
    def test_step_counts_each_reported_fallback(self, small_instance, horizon):
        run = OptimizerRun(method=AlternateFallback(), schedule=constant_schedule(0.01), x=haar(50, 3, seed=24))
        flags = [step(run, small_instance).fallback for _ in range(horizon)]
        assert run.fallback_count == sum(flags) == math.ceil(horizon / 2)


class TestRetraction:
    def test_rank_deficient_retraction_names_the_iteration(self, small_instance):
        run = OptimizerRun(method=RankOneDirection(), schedule=constant_schedule(1.0), x=haar(50, 3, seed=23))
        # x + 1·d has rank one: its factor u·vᵀ has |x'x - I|_F = sqrt(3 - 1)
        with pytest.raises(FeasibilityError, match=r"^iteration 0: .*\|x'x - I\|_F = 1\.414e\+00") as excinfo:
            run_trace(run, small_instance, 5)
        assert len(excinfo.value.records) == 1

    def test_direction_failure_names_the_iteration(self, small_instance, monkeypatch):
        # Manifold Muon's inner eigendecompositions fail at x_3, after the
        # first, x_3's gradient spectrum, which the step reaching x_3 computes:
        # the step from x_3 raises after x_3's record
        run = OptimizerRun(method=ManifoldMuon(), schedule=constant_schedule(0.05), x=haar(50, 3, seed=23))
        at_x3 = itertools.count()

        def wrap(eigh):
            failing = failing_at(run, 3, eigh)
            return lambda a: (failing if run.t == 3 and next(at_x3) else eigh)(a)

        patch_lapack(monkeypatch, "eigh", wrap)
        message = r"^iteration 3: eigendecomposition of the 3x3 Gram matrix failed: forced$"
        with pytest.raises(NumericError, match=message) as excinfo:
            run_trace(run, small_instance, 5)
        assert [r.iter for r in excinfo.value.records] == [0, 1, 2, 3]

    def test_stacked_eigh_failure_names_the_iteration(self, small_instance, monkeypatch):
        # each run_seeds step diagonalises one (20, 3, 3) stack of Gram
        # matrices for the LMO's sign and one for the retraction, so the 5th
        # is the LMO's at x_2; seed 7's matrix there fails, alone or in a
        # stack, so the error names one 3x3 Gram matrix and its seed
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        patch_lapack(monkeypatch, "eigh", failing_slice(5, 7))
        message = r"^iteration 2, seed 7: eigendecomposition of the 3x3 Gram matrix failed: forced$"
        with pytest.raises(NumericError, match=message) as excinfo:
            run_seeds(method, constant_schedule(0.05), haar(50, 3, seed=38), seed_rngs(20), small_instance, 5)
        assert [len(tr) for tr in excinfo.value.records] == [3] * 20

    def test_stacked_record_failure_names_the_iteration(self, small_instance, monkeypatch):
        # each record of a stochastic stack takes one values-only
        # eigendecomposition of the (20, 3, 3) Gram matrices of the true
        # gradients for their nuclear norms, the stack's only one, so the 4th
        # is x_3's; seed 11's matrix there fails, alone or in a stack
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        patch_lapack(monkeypatch, "eigvalsh", failing_slice(4, 11))
        message = (r"^iteration 3, seed 11: eigendecomposition of the 3x3 Gram matrix of the dual-norm input "
                   r"failed: forced$")
        with pytest.raises(NumericError, match=message) as excinfo:
            run_seeds(method, constant_schedule(0.05), haar(50, 3, seed=38), seed_rngs(20), small_instance, 5)
        assert [len(tr) for tr in excinfo.value.records] == [3] * 20

    def test_record_failure_names_the_iteration(self, small_instance, monkeypatch):
        # the values-only eigendecomposition of the dual norm's Gram matrix
        # fails in the record of x_4 (a stochastic run's record factors the
        # true gradient itself, and takes the run's only values-only one)
        method = StochasticMcsd(NormKind.SPECTRAL, 0.9, NoiseConfig.additive_gaussian(0.1))
        run = OptimizerRun(method=method, schedule=constant_schedule(0.05), x=haar(50, 3, seed=23),
                           rng=np.random.default_rng(24))
        patch_lapack(monkeypatch, "eigvalsh", lambda eigvalsh: failing_at(run, 4, eigvalsh))
        message = r"^iteration 4: eigendecomposition of the 3x3 Gram matrix of the dual-norm input failed: forced$"
        with pytest.raises(NumericError, match=message) as excinfo:
            run_trace(run, small_instance, 5)
        assert [r.iter for r in excinfo.value.records] == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        polar_mode=st.sampled_from([EXACT, PolarMode(iters=1), PolarMode(iters=8)]),
        method=st.sampled_from(
            [Mcsd(NormKind.SPECTRAL), Rgd(), ManifoldMuon(),
             StochasticMcsd(NormKind.SPECTRAL, 0.9, NoiseConfig.additive_gaussian(0.1))]
        ),
        alpha=st.floats(1e-3, STEP_RADIUS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=(40, 40), polar_mode=PolarMode(iters=1), method=Mcsd(NormKind.SPECTRAL), alpha=0.2, seed=0)
    @example(sizes=(40, 1), polar_mode=PolarMode(iters=1), method=ManifoldMuon(), alpha=0.2, seed=0)
    @example(sizes=(3, 3), polar_mode=EXACT, method=ManifoldMuon(), alpha=0.1, seed=0)  # rank-2 gradient
    def test_property_every_polar_mode_retracts_at_every_shape(self, sizes, polar_mode, method, alpha, seed):
        # the retraction is exact whatever polar_mode picks for the direction
        n, p = max(sizes), min(sizes)
        inst = make_brockett(n, p, n + 2, data_seed=seed % 1000)
        rng = np.random.default_rng(seed)
        run = OptimizerRun(method=method, schedule=constant_schedule(alpha),
                           x=random_point(StiefelManifold(n, p), rng), rng=rng, polar_mode=polar_mode)
        step(run, inst)
        assert run.x.violation <= 1e-12


class TestRunTrace:
    def test_record_count_and_monotonicity(self, small_instance):
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.05), x=haar(50, 3, seed=17))
        recs = run_trace(run, small_instance, 25, subspace_fn=lambda w: subspace_error(small_instance, w))
        assert len(recs) == 26
        assert [r.iter for r in recs] == list(range(26))
        assert all(b.elapsed_s >= a.elapsed_s for a, b in zip(recs, recs[1:]))
        assert recs[-1].step_size == 0.0

    def test_zero_steps_single_record(self, small_instance):
        run = OptimizerRun(method=Rgd(), schedule=constant_schedule(0.05), x=haar(50, 3, seed=18))
        recs = run_trace(run, small_instance, 0)
        assert len(recs) == 1 and recs[0].iter == 0

    def test_step_sizes_follow_schedule(self, small_instance):
        run = OptimizerRun(
            method=Mcsd(NormKind.SPECTRAL), schedule=periodic_decay_schedule(0.1, 0.5, 2), x=haar(50, 3, seed=19)
        )
        recs = run_trace(run, small_instance, 5)
        assert [r.step_size for r in recs[:5]] == [0.1, 0.1, 0.05, 0.05, 0.025]

    def test_deterministic_trace_modulo_timing(self, small_instance):
        def one():
            run = OptimizerRun(
                method=StochasticMcsd(NormKind.SPECTRAL, 0.9, NoiseConfig.additive_gaussian(0.1)),
                schedule=constant_schedule(0.05),
                x=haar(50, 3, seed=20),
                rng=np.random.default_rng(77),
            )
            return run_trace(run, small_instance, 30)

        a, b = one(), one()
        for ra, rb in zip(a, b):
            assert ra.objective == rb.objective
            assert ra.grad_dual_norm == rb.grad_dual_norm
            assert ra.orth_violation == rb.orth_violation

    def test_partial_records_attached_on_abort(self, small_instance, underresolved_retraction):
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.1), x=haar(50, 3, seed=21))
        with pytest.raises(FeasibilityError) as excinfo:
            run_trace(run, small_instance, 10)
        assert len(excinfo.value.records) == 1

    def test_feasibility_of_all_iterates(self, small_instance):
        run = OptimizerRun(
            method=Mcsd(NormKind.SPECTRAL),
            schedule=periodic_decay_schedule(0.1, 0.5, 30),
            x=haar(50, 3, seed=22),
            polar_mode=PolarMode(iters=8),
        )
        recs = run_trace(run, small_instance, 100)
        assert max(r.orth_violation for r in recs) <= 1e-6


@pytest.fixture
def grad_calls(monkeypatch):
    """Spy on BrockettInstance.euclid_grad: one (inside_step, x) per call,
    where inside_step tells whether `optimizers.step` made the call."""
    calls = []
    inside = [False]
    original_grad, original_step = BrockettInstance.euclid_grad, optimizers.step

    def euclid_grad(inst, x):
        calls.append((inside[0], x))
        return original_grad(inst, x)

    def step(run, objective):
        inside[0] = True
        try:
            return original_step(run, objective)
        finally:
            inside[0] = False

    monkeypatch.setattr(BrockettInstance, "euclid_grad", euclid_grad)
    monkeypatch.setattr(optimizers, "step", step)
    return calls


_NONFINITE = "the objective's gradient has non-finite entries"


def seed_rngs(k):
    return [np.random.default_rng(np.random.SeedSequence(31, spawn_key=(i,))) for i in range(k)]


def fields(records):
    """Every field but elapsed_s, with NaN comparing equal to NaN."""
    return [repr(replace(r, elapsed_s=0.0)) for r in records]


class SeedStub:
    """Wraps an instance: seed `seed`'s sampled gradients at the given
    iterations are filled with `value` (0 or NaN), all others are the
    instance's draws. Of a stack, only the slice whose generator is the
    seed's is filled."""

    def __init__(self, inst, seed, iterations, value):
        self.inst, self.seed, self.iterations, self.value = inst, seed, iterations, value
        self.drawn = 0

    def evaluate(self, x):
        return self.inst.evaluate(x)

    def stochastic_grad(self, x, rng, noise):
        g = self.inst.stochastic_grad(x, rng, noise)
        stacked = g.ndim == 3
        for g_i, r in zip(g if stacked else (g,), rng if stacked else (rng,)):
            if r.bit_generator.seed_seq.spawn_key == (self.seed,):
                if self.drawn in self.iterations:
                    g_i[...] = self.value
                self.drawn += 1
        return g


def per_seed_traces(method, schedule, x0, objective_of, k, steps):
    """run_trace of each seed on its own, with a fresh objective from objective_of()."""
    return [
        run_trace(OptimizerRun(method=method, schedule=schedule, x=x0, rng=rng), objective_of(), steps)
        for rng in seed_rngs(k)
    ]


class TestRunSeeds:
    NOISES = {"gaussian": NoiseConfig.additive_gaussian(0.3), "minibatch": NoiseConfig.minibatch(4)}

    @pytest.mark.parametrize("noise", list(NOISES))
    # 200x5 is on msign_exact's Gram route, which a stack takes slice by slice
    @pytest.mark.parametrize("shape", [(50, 3), (7, 1), (5, 5), (200, 5)])
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_equals_per_seed_run_trace(self, k, shape, noise):
        n, p = shape
        inst = make_brockett(n, p, 4 * n, data_seed=3)
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=self.NOISES[noise])
        schedule = constant_schedule(0.05)
        x0 = haar(n, p, seed=29)
        traces = run_seeds(method, schedule, x0, seed_rngs(k), inst, 12)
        expected = per_seed_traces(method, schedule, x0, lambda: inst, k, 12)
        assert [fields(tr) for tr in traces] == [fields(tr) for tr in expected]
        if k > 1:  # the seeds draw their own gradients, so their trajectories differ
            assert traces[0][-1].objective != traces[1][-1].objective

    def test_frobenius_norm_equals_per_seed_run_trace(self, small_instance):
        method = StochasticMcsd(NormKind.FROBENIUS, beta=0.5, noise=NoiseConfig.additive_gaussian(0.3))
        x0 = haar(50, 3, seed=30)
        traces = run_seeds(method, constant_schedule(0.02), x0, seed_rngs(3), small_instance, 10)
        expected = per_seed_traces(method, constant_schedule(0.02), x0, lambda: small_instance, 3, 10)
        assert [fields(tr) for tr in traces] == [fields(tr) for tr in expected]

    def test_zero_projected_momentum_holds_one_seed(self, small_instance):
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        x0 = haar(50, 3, seed=32)

        def stub():  # seed 1 draws zero gradients at iterations 0-3
            return SeedStub(small_instance, 1, range(4), 0.0)

        traces = run_seeds(method, constant_schedule(0.05), x0, seed_rngs(3), stub(), 8)
        expected = per_seed_traces(method, constant_schedule(0.05), x0, stub, 3, 8)
        assert [fields(tr) for tr in traces] == [fields(tr) for tr in expected]
        held = [r.objective for r in traces[1]]
        assert held[:5] == [held[0]] * 5 and held[5] != held[0]  # holds 4 steps, then moves
        assert len({r.objective for r in traces[0][:5]}) == 5  # the others step on

    @pytest.mark.parametrize("iteration", [0, 5])
    def test_nonfinite_sampled_gradient_names_iteration_and_seed(self, small_instance, iteration):
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        x0 = haar(50, 3, seed=33)
        stub = SeedStub(small_instance, 2, {iteration}, math.nan)
        with pytest.raises(NumericError, match=rf"^iteration {iteration}, seed 2: {_NONFINITE}") as excinfo:
            run_seeds(method, constant_schedule(0.05), x0, seed_rngs(4), stub, 8)
        partial = excinfo.value.records
        clean = run_seeds(method, constant_schedule(0.05), x0, seed_rngs(4), small_instance, 8)
        assert [fields(tr) for tr in partial] == [fields(tr[: iteration + 1]) for tr in clean]

    def test_infeasible_retraction_names_iteration_and_seed(self, small_instance, monkeypatch):
        # one Newton-Schulz iteration cannot reach FEAS_TOL (see underresolved_retraction)
        monkeypatch.setattr(optimizers, "msign_exact", lambda y: np.stack([msign_iterative(m, 1) for m in y]))
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        with pytest.raises(FeasibilityError, match=r"^iteration 0, seed 0: matrix violates") as excinfo:
            run_seeds(method, constant_schedule(0.1), haar(50, 3, seed=36), seed_rngs(3), small_instance, 5)
        assert [len(tr) for tr in excinfo.value.records] == [1, 1, 1]

    def test_each_seed_records_its_share_of_the_step_time(self, small_instance, monkeypatch):
        # a clock that advances 0.25 s per read: each lockstep step reads it twice
        ticks = iter(0.25 * i for i in range(10**6))
        monkeypatch.setattr(optimizers, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        traces = run_seeds(method, constant_schedule(0.05), haar(50, 3, seed=34), seed_rngs(4), small_instance, 10)
        step_loop_s = 10 * 0.25
        for trace in traces:
            assert [r.elapsed_s for r in trace] == [t * 0.25 / 4 for t in range(11)]
        assert sum(trace[-1].elapsed_s for trace in traces) == step_loop_s

    def test_one_sampled_gradient_call_per_step(self, small_instance):
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        recorder = RecordingObjective(small_instance)
        run_seeds(method, constant_schedule(0.05), haar(50, 3, seed=37), seed_rngs(20), recorder, 12)
        assert [g.shape for g in recorder.drawn] == [(20, 50, 3)] * 12

    def test_needs_stochastic_mcsd_and_a_seed(self, small_instance):
        with pytest.raises(ConfigurationError, match="steps stochastic MCSD, got Mcsd"):
            run_seeds(Mcsd(), constant_schedule(0.05), haar(50, 3, seed=35), seed_rngs(2), small_instance, 3)
        method = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        with pytest.raises(ConfigurationError, match="at least one RNG stream"):
            run_seeds(method, constant_schedule(0.05), haar(50, 3, seed=35), [], small_instance, 3)


class HoldAt:
    """Wraps an instance: the gradient is zero at the matrix `at`, so a run
    there holds, of a single point or of a stack."""

    def __init__(self, inst, at):
        self.inst, self.at = inst, at

    def evaluate(self, x):
        values, g = self.inst.evaluate(x)
        for x_i, g_i in zip(x.reshape((-1,) + x.shape[-2:]), g.reshape((-1,) + g.shape[-2:])):
            if np.array_equal(x_i, self.at):
                g_i[...] = 0.0
        return values, g


class TestStackEqualsItsRuns:
    """run_trace of a stack of 3 runs gives each run the trace of its own
    run_trace, for every deterministic method: the single step loop relies
    on the runs of a stack being independent."""

    METHODS = {
        "rgd": (Rgd(), EXACT),
        "spel-exact": (Mcsd(NormKind.SPECTRAL), EXACT),
        "spel-iterative8": (Mcsd(NormKind.SPECTRAL), PolarMode(iters=8)),
        "mm": (ManifoldMuon(), PolarMode(iters=8)),
    }

    # at 5x5 (n == p, p odd) Manifold Muon's Y is rank-deficient, so a stack
    # mixes slices on the Gram route and slices the SVD takes
    @pytest.mark.parametrize("shape", [(50, 3), (200, 5), (5, 5)])
    @pytest.mark.parametrize("name", list(METHODS))
    def test_stack_of_three_equals_three_runs(self, name, shape):
        method, mode = self.METHODS[name]
        n, p = shape
        inst = make_brockett(n, p, 4 * n, data_seed=5)
        points = [haar(n, p, seed=40 + i) for i in range(3)]
        objective = HoldAt(inst, points[1].x)  # the middle run holds throughout
        schedule = periodic_decay_schedule(0.1, 0.5, 5)

        def trace(x):
            run = OptimizerRun(method=method, schedule=schedule, x=x, polar_mode=mode)
            return run, run_trace(run, objective, 12, subspace_fn=lambda w: subspace_error(inst, w))

        stack, traces = trace(StiefelPoint(np.stack([x.x for x in points]), points[0].manifold))
        singles = [trace(x) for x in points]
        assert [fields(tr) for tr in traces] == [fields(tr) for _, tr in singles]
        assert stack.fallback_count == sum(run.fallback_count for run, _ in singles)
        assert len({r.objective for r in traces[1]}) == 1
        assert len({r.objective for r in traces[0]}) == 13


class TestWhatProfilersRead:
    """perfbench names its step spans by wrapping the module attribute
    `optimizers.step` and reading the run's method, and reads the step-loop
    time from records[-1].elapsed_s of what `bench.run_trace` returns."""

    def test_each_step_of_a_run_passes_through_the_module_step(self, small_instance, monkeypatch):
        from mcsd import bench

        methods = []
        original = optimizers.step

        def spy(run, objective):
            methods.append(run.method)
            return original(run, objective)

        monkeypatch.setattr(optimizers, "step", spy)
        run = OptimizerRun(method=ManifoldMuon(), schedule=constant_schedule(0.05), x=haar(50, 3, seed=42))
        records = bench.run_trace(run, small_instance, 7)
        assert bench.run_trace is run_trace
        assert type(records) is list and all(type(r) is TraceRecord for r in records)
        assert methods == [run.method] * 7
        assert records[-1].elapsed_s > 0.0
        # the stochastic check's stack steps stay outside the wrapped name
        stochastic = StochasticMcsd(NormKind.SPECTRAL, beta=0.8, noise=NoiseConfig.additive_gaussian(0.3))
        run_seeds(stochastic, constant_schedule(0.05), haar(50, 3, seed=43), seed_rngs(3), small_instance, 4)
        assert len(methods) == 7


class TestEvaluationCount:
    """One objective evaluation per iterate, shared by the step and the
    trace's metric record."""

    STEPS = 6

    @pytest.mark.parametrize("method", [Rgd(), Mcsd(NormKind.SPECTRAL), ManifoldMuon()], ids=["rgd", "spel", "mm"])
    def test_deterministic_run_evaluates_each_iterate_once_in_its_step(self, grad_calls, small_instance, method):
        run = OptimizerRun(method=method, schedule=constant_schedule(0.05), x=haar(50, 3, seed=23))
        run_trace(run, small_instance, self.STEPS, subspace_fn=lambda w: subspace_error(small_instance, w))
        # x_0 in its metric record, x_1 … x_T inside the step that reaches them
        assert [inside for inside, _ in grad_calls] == [False] + [True] * self.STEPS

    def test_stochastic_run_evaluates_the_true_gradient_outside_the_step(self, grad_calls, small_instance):
        method = StochasticMcsd(NormKind.SPECTRAL, 0.9, NoiseConfig.additive_gaussian(0.1))
        run = OptimizerRun(method=method, schedule=constant_schedule(0.05), x=haar(50, 3, seed=24),
                           rng=np.random.default_rng(25))
        run_trace(run, small_instance, self.STEPS)
        assert [inside for inside, _ in grad_calls] == [False] * (self.STEPS + 1)

    def test_feasibility_is_computed_once_per_iterate(self, monkeypatch, small_instance):
        from mcsd import manifolds

        x0 = haar(50, 3, seed=28)
        violations = [x0.violation]
        real = manifolds.feasibility_violation
        monkeypatch.setattr(manifolds, "feasibility_violation", lambda x: violations.append(real(x)) or violations[-1])
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.05), x=x0)
        recs = run_trace(run, small_instance, self.STEPS)
        # each record reads the violation its point's constructor certified
        assert [r.orth_violation for r in recs] == violations

    def test_assigning_a_new_point_invalidates_the_cache(self, grad_calls, small_instance):
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.05), x=haar(50, 3, seed=26))
        optimizers.step(run, small_instance)  # evaluates x_0, then x_1
        assert len(grad_calls) == 2
        x1 = run.x = StiefelPoint(run.x.x, run.manifold)  # the same matrix in a new point
        optimizers.step(run, small_instance)  # evaluates x1, then x_2
        assert len(grad_calls) == 4 and grad_calls[2][1] is x1.x
        optimizers.step(run, replace(small_instance))  # another objective at the same point
        assert len(grad_calls) == 6

    @pytest.mark.parametrize("method", [Rgd(), Mcsd(NormKind.SPECTRAL), ManifoldMuon()], ids=["rgd", "spel", "mm"])
    def test_held_step_reuses_the_cache(self, grad_calls, small_instance, method):
        flat = replace(small_instance, c=np.zeros_like(small_instance.c))  # zero gradient everywhere
        x0 = haar(50, 3, seed=27)
        run = OptimizerRun(method=method, schedule=constant_schedule(0.05), x=x0)
        recs = run_trace(run, flat, self.STEPS)
        assert run.x is x0 and len(recs) == self.STEPS + 1
        assert [inside for inside, _ in grad_calls] == [False]
