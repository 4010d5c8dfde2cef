import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import (
    EXACT,
    ConfigurationError,
    NormKind,
    NumericError,
    PolarMode,
    dual_norm,
    frob_inner,
    lmo,
    norm_equiv_constant,
    zero_tolerance,
)
from tests.conftest import haar

BOTH = (NormKind.FROBENIUS, NormKind.SPECTRAL)


def ball_norm(norm, d):
    return np.linalg.norm(d) if norm is NormKind.FROBENIUS else np.linalg.norm(d, 2)


class TestLmo:
    def test_frobenius_single_entry(self):
        s = np.zeros((3, 3))
        s[0, 0] = 1.0
        d = lmo(NormKind.FROBENIUS, s)
        assert np.allclose(d, -s)
        assert abs(frob_inner(s, d) + 1.0) < 1e-12

    def test_spectral_on_stiefel_input(self):
        s = haar(6, 3, seed=0).x
        d = lmo(NormKind.SPECTRAL, s)
        assert np.linalg.norm(d + s) < 1e-10
        assert abs(frob_inner(s, d) + 3.0) < 1e-10

    def test_zero_input_gives_the_zero_direction(self):
        for norm in BOTH:
            d = lmo(norm, np.zeros((4, 2)))
            assert d.shape == (4, 2) and not d.any()

    def test_output_on_unit_sphere(self, rng):
        for norm in BOTH:
            for _ in range(10):
                d = lmo(norm, rng.standard_normal((5, 3)))
                assert abs(ball_norm(norm, d) - 1.0) < 1e-9

    def test_positive_scale_invariance(self, rng):
        s = rng.standard_normal((4, 3))
        for norm in BOTH:
            for c in (0.5, 3.0, 1e6):
                assert np.linalg.norm(lmo(norm, c * s) - lmo(norm, s)) < 1e-10

    def test_duality_identity(self, rng):
        for norm in BOTH:
            for _ in range(20):
                s = rng.standard_normal((5, 4))
                val = frob_inner(s, lmo(norm, s))
                assert abs(val + dual_norm(norm, s)) < 1e-8 * dual_norm(norm, s)

    def test_spectral_iterative_mode(self, rng):
        s = rng.standard_normal((30, 4))
        d_exact = lmo(NormKind.SPECTRAL, s)
        d_iter = lmo(NormKind.SPECTRAL, s, PolarMode(iters=8))
        assert np.linalg.norm(d_exact - d_iter) < 1e-6

    def test_spectral_matches_small_net(self, rng):
        # brute-force net over the 2x2 spectral ball
        s = rng.standard_normal((2, 2))
        g = rng.standard_normal((10**5, 2, 2))
        scale = np.linalg.svd(g, compute_uv=False)[:, 0]
        net = g / scale[:, None, None]
        net_min = float(np.tensordot(net, s, axes=([1, 2], [0, 1])).min())
        assert frob_inner(s, lmo(NormKind.SPECTRAL, s)) <= net_min + 1e-2 * np.linalg.norm(s)

    def test_one_by_one(self):
        for norm in BOTH:
            d = lmo(norm, np.array([[-4.0]]))
            assert np.allclose(d, [[1.0]])

    def test_spectral_rank_deficient(self, rng):
        # sign(0) = 0: the oracle is -u·vᵀ on the single nonzero singular pair
        u = rng.standard_normal(6)
        v = rng.standard_normal(3)
        s = 2.5 * np.outer(u, v)
        expected = -np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        d = lmo(NormKind.SPECTRAL, s)
        assert np.linalg.norm(d - expected) < 1e-12
        assert abs(frob_inner(s, d) + dual_norm(NormKind.SPECTRAL, s)) < 1e-10
        assert np.linalg.norm(lmo(NormKind.SPECTRAL, s, PolarMode(iters=8)) - expected) < 1e-6

    # 200x5 is the Gram route's shape, which declines a rank-deficient
    # input; 6x3 goes to the SVD at once
    @pytest.mark.parametrize("shape", [(200, 5), (6, 3)])
    def test_exact_spectral_rank_deficient_takes_one_svd(self, shape, rng, monkeypatch):
        import mcsd.linalg as linalg

        n, p = shape
        u, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((p, 2)))
        s = (u * [3.0, 1.0]) @ v.T  # rank two
        calls = []
        real_svd = linalg.svd

        def spy(y):
            calls.append(y.shape)
            return real_svd(y)

        monkeypatch.setattr(linalg, "svd", spy)
        # the module, not the package attribute `mcsd.lmo`, which is the function
        monkeypatch.setattr(sys.modules["mcsd.lmo"], "svd", spy, raising=False)
        d = lmo(NormKind.SPECTRAL, s)
        assert calls == [shape]
        assert np.linalg.norm(d + u @ v.T) <= 1e-10


class TestDualNorm:
    def test_zero(self):
        for norm in BOTH:
            assert dual_norm(norm, np.zeros((3, 2))) == 0.0

    def test_spectral_dual_of_diagonal(self):
        assert abs(dual_norm(NormKind.SPECTRAL, np.diag([2.0, 3.0])) - 5.0) < 1e-12

    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    def test_spectral_svd_failure_on_finite_input_is_numeric_error(self, rng, monkeypatch, stacked):
        # κ = 1e3: the Gram route declines the matrix, whose nuclear norm then
        # takes the values-only SVD; of a stack, only slice 1 is declined
        u = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        s = (u * [1.0, 0.1, 1e-3]) @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
        if stacked:
            s = np.stack([rng.standard_normal((6, 3)), s, rng.standard_normal((6, 3))])

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericError, match="^SVD of the 6x3 dual-norm input failed") as excinfo:
            dual_norm(NormKind.SPECTRAL, s)
        assert excinfo.value.index == (1 if stacked else None)

    def test_frobenius_self_dual(self, rng):
        s = rng.standard_normal((4, 4))
        assert abs(dual_norm(NormKind.FROBENIUS, s) - np.linalg.norm(s)) < 1e-12


class TestStacks:
    """A stack (k, n, p) gives each matrix the bits of its own call."""

    @pytest.mark.parametrize("norm", BOTH)
    @pytest.mark.parametrize("shape", [(50, 3), (7, 1), (5, 5)])
    def test_lmo_slices_are_their_own_calls(self, norm, shape, rng):
        s = rng.standard_normal((6,) + shape)
        s[1] = 0.0
        s[4] *= 1e-16  # nonzero, below zero_tolerance
        d = lmo(norm, s)
        for k in range(6):
            if k in (1, 4):
                assert not lmo(norm, s[k]).any()
                assert not d[k].any()
            else:
                assert np.array_equal(d[k], lmo(norm, s[k]))

    def test_lmo_stack_takes_the_iterative_sign(self, rng):
        s = rng.standard_normal((3, 6, 2))
        s[1] = 0.0
        d = lmo(NormKind.SPECTRAL, s, PolarMode(8))
        assert not d[1].any()
        assert all(np.array_equal(d[k], lmo(NormKind.SPECTRAL, s[k], PolarMode(8))) for k in (0, 2))

    @pytest.mark.parametrize("norm", BOTH)
    def test_lmo_stack_rejects_a_nonfinite_slice(self, norm, rng):
        s = rng.standard_normal((3, 6, 2))
        s[2, 0, 0] = np.nan
        with pytest.raises(ConfigurationError, match="lmo input contains non-finite"):
            lmo(norm, s)

    @pytest.mark.parametrize("norm", BOTH)
    @pytest.mark.parametrize("shape", [(50, 3), (7, 1), (5, 5)])
    def test_dual_norm_slices_are_their_own_calls(self, norm, shape, rng):
        s = rng.standard_normal((5,) + shape)
        s[3] = 0.0
        totals = dual_norm(norm, s)
        assert totals.shape == (5,)
        assert [float(v) for v in totals] == [dual_norm(norm, m) for m in s]

    @pytest.mark.parametrize("norm", BOTH)
    def test_dual_norm_stack_rejects_a_nonfinite_slice(self, norm, rng):
        s = rng.standard_normal((3, 6, 2))
        s[1, 2, 1] = np.inf
        with pytest.raises(ConfigurationError, match="dual-norm input contains non-finite"):
            dual_norm(norm, s)


class TestNormEquivConstant:
    def test_frobenius(self):
        assert norm_equiv_constant(NormKind.FROBENIUS, 200, 5) == 1.0

    def test_spectral(self):
        assert abs(norm_equiv_constant(NormKind.SPECTRAL, 200, 5) - math.sqrt(5)) < 1e-15

    def test_bound_holds_on_samples(self, rng):
        n_const = norm_equiv_constant(NormKind.SPECTRAL, 8, 3)
        for _ in range(1000):
            x = rng.standard_normal((8, 3))
            assert np.linalg.norm(x) <= n_const * np.linalg.norm(x, 2) + 1e-12

    def test_tightness_witness(self):
        x = haar(8, 3, seed=1).x  # all singular values equal one
        assert abs(np.linalg.norm(x) - norm_equiv_constant(NormKind.SPECTRAL, 8, 3)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 1000.0), st.sampled_from(BOTH))
def test_property_lmo_scale_invariant_and_unit(seed, scale, norm):
    s = np.random.default_rng(seed).standard_normal((4, 3))
    d = lmo(norm, s)
    assert abs(ball_norm(norm, d) - 1.0) < 1e-9
    assert np.linalg.norm(lmo(norm, scale * s) - d) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BOTH))
def test_property_duality_identity(seed, norm):
    s = np.random.default_rng(seed).standard_normal((5, 2))
    assert abs(frob_inner(s, lmo(norm, s)) + dual_norm(norm, s)) <= 1e-8 * dual_norm(norm, s)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(-150, 200),
    st.sampled_from([(1, 1), (4, 3), (3, 7), (200, 5)]),
)
def test_property_frobenius_scale_safe(seed, exponent, shape):
    # Σ s_ij² over- or underflows outside ~1e±150; the norm must not
    base = np.random.default_rng(seed).standard_normal(shape)
    s = 10.0**exponent * base
    fro = 10.0**exponent * np.linalg.norm(base)
    assert abs(dual_norm(NormKind.FROBENIUS, s) - fro) <= 1e-12 * fro
    if fro <= zero_tolerance(*shape):
        assert not lmo(NormKind.FROBENIUS, s).any()
        return
    d = lmo(NormKind.FROBENIUS, s)
    assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
    assert np.linalg.norm(d + base / np.linalg.norm(base)) <= 1e-12


# Slice scales: zero, below zero_tolerance, far below and above it, and a
# hair (a relative 1e-6) below and above it in Frobenius norm.
SCALES = [0.0, 1e-16, 1e-150, 1.0, 1e150, "below", "above"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.sampled_from(BOTH),
    st.sampled_from([EXACT, PolarMode(8)]),
    st.lists(st.sampled_from(SCALES), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_property_lmo_is_total(shape, norm, mode, scales, seed):
    # lmo(s) is exactly zero if and only if ‖s‖_F <= zero_tolerance, else a
    # unit-ball element; a stack equals its per-slice calls bit for bit
    tol = zero_tolerance(*shape)
    rng = np.random.default_rng(seed)
    s = np.empty((len(scales),) + shape)
    fro = []
    for k, scale in enumerate(scales):
        base = rng.standard_normal(shape)
        if isinstance(scale, str):
            scale = tol * (1.0 - 1e-6 if scale == "below" else 1.0 + 1e-6) / np.linalg.norm(base)
        s[k] = scale * base
        fro.append(scale * np.linalg.norm(base))
    stacked = lmo(norm, s, mode)
    for k in range(len(scales)):
        d = lmo(norm, s[k], mode)
        assert np.array_equal(stacked[k], d)
        assert d.shape == shape and (not d.any()) == (fro[k] <= tol)
        if fro[k] > tol:
            assert ball_norm(norm, d) <= 1.0 + 1e-12


def test_frobenius_lmo_at_overflowing_scale():
    s = 1e160 * np.ones((2, 2))
    assert np.allclose(lmo(NormKind.FROBENIUS, s), -0.5)
    assert abs(dual_norm(NormKind.FROBENIUS, s) - 2e160) <= 1e-12 * 2e160
