import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mcsd import (
    ConfigurationError,
    NoiseConfig,
    NumericError,
    StiefelManifold,
    StiefelPoint,
    make_brockett,
    msign_exact,
    random_point,
    smoothness_constants,
    subspace_error,
)
from mcsd.linalg import sym_unchecked
from mcsd.objectives import brockett_grad_unchecked
from tests.conftest import haar


def extended_subspace_error(w, ws):
    """‖wwᵀ − ws wsᵀ‖_F from the n×n matrices in np.longdouble."""
    wl, sl = w.astype(np.longdouble), ws.astype(np.longdouble)
    return float(np.sqrt(np.sum((wl @ wl.T - sl @ sl.T) ** 2)))


def point_at_angle(ws, err, rng):
    """A point with orthonormal columns whose every principal angle θ to
    range(ws) has √(2p)·sin θ = err, so its subspace error is err."""
    v = rng.standard_normal(ws.shape)
    v = msign_exact(v - ws @ (ws.T @ v))
    theta = math.asin(err / math.sqrt(2 * ws.shape[1]))
    return (math.cos(theta) * ws + math.sin(theta) * v) @ msign_exact(rng.standard_normal((ws.shape[1],) * 2))


NO_LONGDOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than float64 here"
)


def central_diff_grad(value_fn, w, h=1e-5):
    """Entrywise central-difference oracle for the Euclidean gradient."""
    g = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        e = np.zeros_like(w)
        e[idx] = h
        g[idx] = (value_fn(w + e) - value_fn(w - e)) / (2.0 * h)
    return g


def reference_brockett(n, p, d, data_seed):
    """(X, C, w*, spectrum) from the plain formulas: X the first draw from
    data_seed, sym(XXᵀ), a full eigh, a reversed copy of every eigenvector,
    then the sign fix on the top p."""
    x = np.random.default_rng(data_seed).standard_normal((n, d))
    c = sym_unchecked(x @ x.T)
    evals, evecs = np.linalg.eigh(c)
    evals, evecs = evals[::-1].copy(), evecs[:, ::-1].copy()
    for k in range(p):
        j = int(np.argmax(np.abs(evecs[:, k])))
        if evecs[j, k] < 0:
            evecs[:, k] = -evecs[:, k]
    return x, c, evecs[:, :p], evals


REFERENCE_SHAPES = [(20, 3, 60), (50, 3, 200), (200, 5, 1000), (6, 6, 12), (30, 1, 40)]


@pytest.fixture(scope="module")
def tiny():
    return make_brockett(10, 2, 30, data_seed=5)


class TestMakeBrockett:
    def test_requires_ordered_dims(self):
        with pytest.raises(ConfigurationError):
            make_brockett(10, 12, 30, data_seed=0)
        with pytest.raises(ConfigurationError):
            make_brockett(40, 3, 30, data_seed=0)

    def test_deterministic(self):
        a = make_brockett(8, 2, 20, data_seed=3)
        b = make_brockett(8, 2, 20, data_seed=3)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.w_star.x, b.w_star.x)

    def test_covariance_symmetric(self, tiny):
        assert np.array_equal(tiny.c, tiny.c.T)

    def test_weights_decreasing_positive(self, tiny):
        assert np.array_equal(tiny.dmat, [2.0, 1.0])

    def test_square_case_full_eigenbasis(self):
        inst = make_brockett(6, 6, 20, data_seed=4)
        w = inst.w_star.x
        assert np.linalg.norm(w.T @ w - np.eye(6)) < 1e-10
        expected = -0.5 * float(np.dot(inst.dmat, inst.eigenvalues))
        assert abs(inst.value(w) - expected) < 1e-8 * abs(expected)

    def test_optimum_value_from_eigendecomposition(self, tiny):
        expected = -0.5 * float(np.dot(tiny.dmat, tiny.eigenvalues[:2]))
        assert abs(tiny.value(tiny.w_star.x) - expected) < 1e-10 * abs(expected)

    def test_rotation_invariance_with_equal_weights(self, rng):
        # equal diagonal weights make the cost a pure subspace functional
        inst = make_brockett(10, 3, 30, data_seed=6)
        equal = inst.dmat * 0 + 1.0
        w = haar(10, 3, seed=7).x
        q = msign_exact(rng.standard_normal((3, 3)))

        def value(m):
            return -0.5 * float(np.tensordot((inst.c @ m) * equal[None, :], m, axes=2))

        assert abs(value(w @ q) - value(w)) < 1e-9 * max(abs(value(w)), 1.0)

    def test_sign_convention(self, tiny):
        for k in range(tiny.p):
            col = tiny.w_star.x[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    @pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=["x".join(map(str, s)) for s in REFERENCE_SHAPES])
    def test_matches_the_reference_construction_bit_for_bit(self, shape):
        inst = make_brockett(*shape, data_seed=7)
        x, c, w_star, evals = reference_brockett(*shape, data_seed=7)
        assert np.array_equal(inst.c, c)
        assert np.array_equal(inst.w_star.x, w_star)
        assert np.array_equal(inst.eigenvalues, evals)
        assert np.array_equal(inst.samples, x)

    def test_minibatch_gradient_matches_the_reference_bit_for_bit(self, small_instance):
        x = reference_brockett(50, 3, 200, data_seed=7)[0]
        w = haar(50, 3, seed=25).x
        g = small_instance.stochastic_grad(w, np.random.default_rng(26), NoiseConfig.minibatch(20))
        idx = np.random.default_rng(26).choice(200, size=20, replace=False)
        xb = x[:, idx]
        assert np.array_equal(g, -(200 / 20) * (xb @ (xb.T @ w)) * small_instance.dmat[None, :])

    @pytest.mark.parametrize("field", ["c", "dmat", "eigenvalues", "samples"])
    def test_arrays_are_read_only(self, field):
        arr = getattr(make_brockett(10, 2, 30, data_seed=5), field)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0

    def test_a_replaced_array_is_read_only_and_the_callers_is_not(self, tiny):
        c = np.eye(10)
        inst = replace(tiny, c=c)
        with pytest.raises(ValueError, match="read-only"):
            inst.c[0, 0] = 2.0
        c[0, 0] = 2.0
        assert inst.c[0, 0] == 2.0

    def test_keeps_c_not_the_data_matrix(self):
        """Tracemalloc sees numpy's arrays but not the work buffers LAPACK's
        eigh allocates inside numpy, so the peak bounds the arrays alone.

        Kept: C plus O(np), where keeping X too would add 2.56 MB. Peak:
        X + C while C = XXᵀ is formed, below X + 2·C plus the finiteness
        scan's n×n bool mask and O(np); holding X through the
        eigendecomposition peaks near X + 3·C.
        """
        n, p, d = 400, 10, 800
        make_brockett(6, 2, 8, data_seed=0)  # lazy imports and caches outside the trace
        tracemalloc.start()
        try:
            inst = make_brockett(n, p, d, data_seed=7)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        x_bytes, c_bytes, np_bytes = 8 * n * d, inst.c.nbytes, 8 * n * (p + 1)
        assert kept <= c_bytes + 8 * np_bytes
        assert peak <= x_bytes + 2 * c_bytes + n * n + 8 * np_bytes


class TestValueAndGrad:
    def test_value_at_optimum(self, tiny):
        v = tiny.value(tiny.w_star.x)
        assert v <= tiny.value(haar(10, 2, seed=8).x)

    def test_identity_covariance(self):
        inst = make_brockett(6, 2, 12, data_seed=9)
        c_eye = np.eye(6)
        w = haar(6, 2, seed=10).x
        value = -0.5 * float(np.tensordot((c_eye @ w) * inst.dmat[None, :], w, axes=2))
        assert abs(value + 0.5 * inst.dmat.sum()) < 1e-12

    def test_zero_weights_give_zero(self, tiny):
        w = haar(10, 2, seed=11).x
        scaled = -0.5 * float(np.tensordot((tiny.c @ w) * 0.0, w, axes=2))
        assert scaled == 0.0

    def test_grad_at_zero(self, tiny):
        assert np.abs(tiny.euclid_grad(np.zeros((10, 2)))).max() == 0.0

    def test_grad_closed_form(self, tiny):
        w = haar(10, 2, seed=12).x
        assert np.allclose(tiny.euclid_grad(w), -(tiny.c @ w) * tiny.dmat[None, :])

    def test_grad_matches_finite_differences(self, tiny):
        for seed in range(5):
            w = haar(10, 2, seed=100 + seed).x
            fd = central_diff_grad(tiny.value, w)
            g = tiny.euclid_grad(w)
            assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)

    def test_grad_of_a_stack_is_each_matrix_bit_for_bit(self, tiny, rng):
        ws = rng.standard_normal((6, 10, 2))
        stacked = brockett_grad_unchecked(tiny, ws)
        for w, g in zip(ws, stacked):
            assert np.array_equal(g, tiny.euclid_grad(w))
            assert np.array_equal(g, -(tiny.c @ w) * tiny.dmat[None, :])

    def test_evaluate_of_a_stack_is_each_matrix_bit_for_bit(self, tiny, rng):
        ws = rng.standard_normal((6, 10, 2))
        values, grads = tiny.evaluate(ws)
        assert values == tiny.value(ws) == [tiny.value(w) for w in ws]
        for w, g in zip(ws, grads):
            assert np.array_equal(g, tiny.euclid_grad(w))
        # a stack given as nested lists is converted once, as value converts it
        listed_values, listed_grads = tiny.evaluate(ws.tolist())
        assert listed_values == values and np.array_equal(listed_grads, grads)

    def test_evaluate_of_a_stack_scans_it_once(self, tiny, rng, monkeypatch):
        import mcsd.objectives

        names = []
        scan = mcsd.objectives.as_matrix
        # counts only the calls that scan: finite=False validates the shape alone
        monkeypatch.setattr(mcsd.objectives, "as_matrix",
                            lambda a, name, finite=True: names.extend([name] * finite) or scan(a, name, finite))
        ws = rng.standard_normal((6, 10, 2))
        tiny.evaluate(ws)
        assert names == ["gradient input"]
        ws[4, 3, 1] = np.nan
        with pytest.raises(ConfigurationError, match="gradient input contains non-finite"):
            tiny.evaluate(ws)

    def test_evaluate_is_value_and_grad_bit_for_bit(self, pca_instance):
        for seed in range(5):
            w = haar(200, 5, seed=110 + seed).x
            value, g = pca_instance.evaluate(w)
            assert value == pca_instance.value(w)
            assert np.array_equal(g, pca_instance.euclid_grad(w))

    @pytest.mark.parametrize(
        "call, scans",
        [
            (lambda inst, w: inst.value(w), 1),
            (lambda inst, w: inst.euclid_grad(w), 1),
            (lambda inst, w: inst.evaluate(w), 1),
            # stochastic_grad certifies x through ‖g‖_F and scans it only when that is not finite
            (lambda inst, w: inst.stochastic_grad(w, np.random.default_rng(0), NoiseConfig.additive_gaussian(0.5)), 0),
            (lambda inst, w: inst.stochastic_grad(w, np.random.default_rng(0), NoiseConfig.minibatch(inst.d)), 0),
            (lambda inst, w: inst.stochastic_grad(w, np.random.default_rng(0), NoiseConfig.minibatch(5)), 0),
        ],
        ids=["value", "euclid_grad", "evaluate", "gaussian", "full_batch", "minibatch"],
    )
    def test_one_finiteness_scan_per_call(self, tiny, monkeypatch, call, scans):
        import mcsd.objectives

        names = []
        scan = mcsd.objectives.as_matrix
        # counts only the calls that scan: finite=False validates the shape alone
        monkeypatch.setattr(mcsd.objectives, "as_matrix",
                            lambda a, name, finite=True: names.extend([name] * finite) or scan(a, name, finite))
        call(tiny, haar(10, 2, seed=23).x)
        assert len(names) == scans

    @pytest.mark.parametrize(
        "noise",
        [NoiseConfig.additive_gaussian(0.5), NoiseConfig.additive_gaussian(0.0), NoiseConfig.minibatch(5)],
        ids=["gaussian", "noiseless", "minibatch"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stochastic_grad_rejects_a_nonfinite_input(self, tiny, noise, value):
        w = haar(10, 2, seed=24).x.copy()
        w[-1, -1] = value
        with pytest.raises(ConfigurationError, match="gradient input contains non-finite"):
            tiny.stochastic_grad(w, np.random.default_rng(0), noise)


class TestSmoothnessConstants:
    def test_scaling_homogeneity(self, tiny):
        from dataclasses import replace

        scaled = replace(tiny, c=10.0 * tiny.c, eigenvalues=10.0 * tiny.eigenvalues)
        base = smoothness_constants(tiny)
        big = smoothness_constants(scaled)
        assert np.allclose(
            [big.grad_lipschitz, big.grad_norm_bound, big.composed_lipschitz],
            [10 * base.grad_lipschitz, 10 * base.grad_norm_bound, 10 * base.composed_lipschitz],
        )

    def test_sphere_identity_covariance_case(self):
        # top eigenvalue 1, single unit weight: constants (1, 1, 29)
        from dataclasses import replace

        inst = make_brockett(5, 1, 10, data_seed=13)
        unit = replace(inst, c=np.eye(5), eigenvalues=np.ones(5), dmat=np.ones(1))
        consts = smoothness_constants(unit)
        assert consts.grad_lipschitz == 1.0
        assert consts.grad_norm_bound == 1.0
        assert consts.composed_lipschitz == 29.0

    def test_lipschitz_certificate_on_samples(self, tiny, rng):
        lip = smoothness_constants(tiny).grad_lipschitz
        for _ in range(1000):
            u = rng.standard_normal((10, 2))
            v = rng.standard_normal((10, 2))
            lhs = np.linalg.norm(tiny.euclid_grad(u) - tiny.euclid_grad(v))
            assert lhs <= lip * np.linalg.norm(u - v) + 1e-9

    def test_grad_norm_bound_on_manifold(self, tiny, rng):
        bound = smoothness_constants(tiny).grad_norm_bound
        m = StiefelManifold(10, 2)
        for _ in range(200):
            w = random_point(m, rng)
            assert np.linalg.norm(tiny.euclid_grad(w.x)) <= bound + 1e-9


class TestSubspaceError:
    def test_zero_at_optimum(self, tiny):
        assert subspace_error(tiny, tiny.w_star.x) < 1e-12

    def test_rotation_invariant(self, tiny, rng):
        q = msign_exact(rng.standard_normal((2, 2)))
        assert subspace_error(tiny, tiny.w_star.x @ q) < 1e-10

    def test_orthogonal_ranges(self):
        inst = make_brockett(10, 2, 30, data_seed=14)
        ws = inst.w_star.x
        # build a Stiefel point orthogonal to the reference columns
        basis, _ = np.linalg.qr(np.hstack([ws, np.random.default_rng(0).standard_normal((10, 2))]))
        w_perp = basis[:, 2:4]
        assert abs(subspace_error(inst, w_perp) - np.sqrt(4.0)) < 1e-10

    def test_nonzero_away_from_optimum(self, tiny):
        assert subspace_error(tiny, haar(10, 2, seed=15).x) > 0.1

    @pytest.mark.parametrize("shape", [(10, 2), (200, 5), (1000, 50), (7, 7), (9, 1)])
    def test_a_point_reads_its_certified_violation(self, shape, rng):
        # the ‖wᵀw − I‖_F term is the point's `violation`, with the bits of
        # forming wᵀw again, alone or as a slice of a stack
        inst = make_brockett(shape[0], shape[1], shape[0] + 3, data_seed=16)
        m = StiefelManifold(*shape)
        point = random_point(m, rng)
        assert point.violation > 0.0 or shape[1] == 1
        assert subspace_error(inst, point) == subspace_error(inst, point.x)
        stack = StiefelPoint(np.stack([random_point(m, rng).x for _ in range(3)]), m)
        assert [subspace_error(inst, stack[k]) for k in range(3)] == [subspace_error(inst, w) for w in stack.x]

    def test_nonfinite_input_is_a_configuration_error(self, tiny):
        w = haar(10, 2, seed=15).x.copy()
        w[-1, -1] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            subspace_error(tiny, w)

    @NO_LONGDOUBLE
    @pytest.mark.parametrize("err", [1.0, 1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("shape", [(200, 5), (1000, 50)], ids=["200x5", "1000x50"])
    def test_matches_an_extended_precision_reference(self, shape, err):
        # subspace_error reads only the reference point of the instance
        ws = haar(*shape, seed=30).x
        inst = SimpleNamespace(w_star=SimpleNamespace(x=ws))
        w = point_at_angle(ws, err, np.random.default_rng(31))
        reference = extended_subspace_error(w, ws)
        assert reference == pytest.approx(err, rel=1e-6)
        # Rounding leaves an absolute error near 2e-17 (the n×n float64 form:
        # near 4e-18), so agreement is 1e-12 relative for errors down to 1e-4
        # and within 1e-16 below that.
        assert abs(subspace_error(inst, w) - reference) <= 1e-12 * reference + 1e-16

    @NO_LONGDOUBLE
    def test_counts_columns_orthonormal_only_to_1e9(self):
        # Iterates are orthonormal only to the feasibility tolerance. Right-
        # multiplying by I + E keeps the range but makes ‖wᵀw − I‖₂ ≈ 1e-9,
        # which the n×n distance counts.
        ws = haar(200, 5, seed=30).x
        inst = SimpleNamespace(w_star=SimpleNamespace(x=ws))
        rng = np.random.default_rng(33)
        e = rng.standard_normal((5, 5))
        w = point_at_angle(ws, 1e-6, rng) @ (np.eye(5) + 0.5e-9 * (e + e.T) / np.linalg.norm(e + e.T, 2))
        assert 5e-10 < np.linalg.norm(w.T @ w - np.eye(5), 2) < 2e-9
        reference = extended_subspace_error(w, ws)
        # the range term alone misses the drift by far more than the tolerance
        range_term = math.sqrt(2.0) * float(np.linalg.norm(w - ws @ (ws.T @ w)))
        assert abs(range_term - reference) > 1e-9 * reference
        assert abs(subspace_error(inst, w) - reference) <= 1e-12 * reference + 1e-16


class TestStochasticGrad:
    def test_zero_sigma_exact(self, tiny, rng):
        w = haar(10, 2, seed=16).x
        g = tiny.stochastic_grad(w, rng, NoiseConfig.additive_gaussian(0.0))
        assert np.array_equal(g, tiny.euclid_grad(w))

    def test_full_batch_exact(self, tiny, rng):
        w = haar(10, 2, seed=17).x
        g = tiny.stochastic_grad(w, rng, NoiseConfig.minibatch(tiny.d))
        assert np.array_equal(g, tiny.euclid_grad(w))

    def test_gaussian_unbiased(self, tiny):
        w = haar(10, 2, seed=18).x
        rng = np.random.default_rng(19)
        cfg = NoiseConfig.additive_gaussian(0.5)
        draws = np.stack([tiny.stochastic_grad(w, rng, cfg) for _ in range(10_000)])
        exact = tiny.euclid_grad(w)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 3 * se)

    def test_minibatch_unbiased(self, tiny):
        w = haar(10, 2, seed=20).x
        rng = np.random.default_rng(21)
        cfg = NoiseConfig.minibatch(5)
        draws = np.stack([tiny.stochastic_grad(w, rng, cfg) for _ in range(10_000)])
        exact = tiny.euclid_grad(w)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 3 * se + 1e-12)

    STACK_NOISES = {
        "gaussian": NoiseConfig.additive_gaussian(0.5),
        "noiseless": NoiseConfig.additive_gaussian(0.0),
        "minibatch": NoiseConfig.minibatch(5),
        "full-batch": NoiseConfig.minibatch(30),
    }

    @pytest.mark.parametrize("noise", list(STACK_NOISES))
    def test_stack_equals_per_matrix_calls(self, tiny, noise):
        cfg = self.STACK_NOISES[noise]
        x = np.stack([haar(10, 2, seed=40 + i).x for i in range(4)])
        stacked, single = ([np.random.default_rng(50 + i) for i in range(4)] for _ in range(2))
        for _ in range(2):  # the second draw starts from the states the first left
            g = tiny.stochastic_grad(x, stacked, cfg)
            expected = np.stack([tiny.stochastic_grad(x_i, r, cfg) for x_i, r in zip(x, single)])
            assert g.shape == x.shape and g.tobytes() == expected.tobytes()
            assert [r.bit_generator.state for r in stacked] == [r.bit_generator.state for r in single]

    def test_stack_needs_one_generator_per_matrix(self, tiny):
        x = np.stack([haar(10, 2, seed=44 + i).x for i in range(3)])
        rngs = [np.random.default_rng(i) for i in range(3)]
        for wrong in (rngs[:2], rngs + [np.random.default_rng(3)], rngs[0]):
            with pytest.raises(ConfigurationError, match="3 gradient inputs need as many generators, got"):
                tiny.stochastic_grad(x, wrong, NoiseConfig.additive_gaussian(0.5))

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning would raise
    def test_gaussian_overflow_names_the_noise(self, tiny):
        # σ = 1e308 takes σ·z past the float range wherever |z| > 1.797...;
        # the error names the first matrix whose noise term overflowed
        x = np.stack([haar(10, 2, seed=60 + i).x for i in range(3)])
        rngs = [np.random.default_rng(70 + i) for i in range(3)]
        draws = [np.random.default_rng(70 + i).standard_normal((10, 2)) for i in range(3)]
        first = next(i for i, z in enumerate(draws) if (np.abs(z) > np.finfo(float).max / 1e308).any())
        with pytest.raises(NumericError, match=r"^the stochastic gradient under noise gaussian:1e\+308 ") as excinfo:
            tiny.stochastic_grad(x, rngs, NoiseConfig.additive_gaussian(1e308))
        assert excinfo.value.index == first

    def test_overflowing_gradient_is_not_blamed_on_the_noise(self, tiny):
        # a finite x far off the manifold overflows the noiseless gradient C x D
        # (numpy warns there); σ·z is finite, so the non-finite gradient is
        # returned as at σ = 0, for the caller to report
        x = np.full((10, 2), 1e307)
        for sigma in (0.5, 0.0):
            with pytest.warns(RuntimeWarning, match="^overflow encountered"):
                g = tiny.stochastic_grad(x, np.random.default_rng(0), NoiseConfig.additive_gaussian(sigma))
            assert not np.isfinite(g).all()

    def test_batch_bounds_checked(self, tiny, rng):
        w = haar(10, 2, seed=22).x
        with pytest.raises(ConfigurationError):
            tiny.stochastic_grad(w, rng, NoiseConfig.minibatch(tiny.d + 1))

    def test_noise_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig.additive_gaussian(-1.0)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="finite and nonnegative"):
                NoiseConfig.additive_gaussian(sigma)
        with pytest.raises(ConfigurationError):
            NoiseConfig.minibatch(0)


class TestGlobalOptimumWitness:
    def test_reference_beats_random_sample(self, tiny):
        rng = np.random.default_rng(23)
        best = tiny.value(tiny.w_star.x)
        m = StiefelManifold(10, 2)
        for _ in range(10_000):
            w = random_point(m, rng)
            assert best <= tiny.value(w.x) + 1e-9
