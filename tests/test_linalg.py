import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import (
    EXACT,
    ConfigurationError,
    NumericError,
    PolarMode,
    StiefelManifold,
    frob_inner,
    msign_exact,
    msign_iterative,
    random_point,
    svd,
)
from mcsd.linalg import (
    GRAM_EIG_RATIO, PRENORM, _newton_schulz_multipliers, eigh, factorize, frob_inners, frob_norm, frob_norms,
    gram_polar_factor, sym_unchecked,
)
from mcsd.objectives import value_from_grad
from tests.conftest import haar, patch_lapack

def direct_polar_iteration(y, iters=8):
    """Reference: cubic Newton-Schulz X ← 1.5·X − 0.5·X(XᵀX) applied to full
    n×p iterates, from X_0 = y/(1.01·‖y‖_F)."""
    n, p = y.shape
    transposed = n < p
    if transposed:
        y = y.T
    x = y / (1.01 * np.sqrt(np.sum(y * y)))
    for _ in range(iters):
        x = 1.5 * x + x @ (-0.5 * (x.T @ x))
    return x.T if transposed else x


def reference_gram_factor(gram, h):
    """V·diag(h(w))·Vᵀ for the eigendecomposition of `gram`, or None when h
    declines: the polar kernel as a composition of a scalar map h."""
    w, v = np.linalg.eigh(gram)
    mult = h(w)
    return None if mult is None else (v * mult) @ v.T


def reference_inverse_sqrt(w):
    return None if w[0] <= GRAM_EIG_RATIO * w[-1] else w**-0.5


def reference_newton_schulz(iters):
    """h for `iters` cubic Newton-Schulz steps, all eigenvalues per step,
    each eigenvalue raised to at least its rounding level p·ε·w_max."""

    def h(w):
        w = np.maximum(w, len(w) * np.finfo(np.float64).eps * max(w[-1], 0.0))
        mult0 = 1.0 / (1.01 * np.sqrt(float(np.sum(w))))
        us = (w * (mult0 * mult0)).tolist()
        mults = [mult0] * len(us)
        for _ in range(iters):
            for i, u in enumerate(us):
                f = 1.5 - 0.5 * u
                mults[i] *= f
                us[i] = u * f * f
        return np.array(mults)

    return h


def reference_gram_polar(y, h):
    scale = np.abs(y).max()
    transposed = y.shape[0] < y.shape[1]
    x = (y.T if transposed else y) / scale
    f = reference_gram_factor(x.T @ x, h)
    if f is None:
        return None
    return (x @ f).T if transposed else x @ f


def reference_msign_exact(y):
    out = reference_gram_polar(y, reference_inverse_sqrt)
    if out is not None:
        return out
    u, _, vt = np.linalg.svd(y, full_matrices=False)
    return u @ vt


def with_spectrum(n, sigma, seed):
    """n×len(sigma) matrix with singular values sigma and Haar factors."""
    p = len(sigma)
    return haar(n, p, seed=seed).x @ np.diag(sigma) @ haar(p, p, seed=seed + 1).x


def orth_error(m):
    return np.linalg.norm(m.T @ m - np.eye(m.shape[1]))


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])

    def test_orthonormal_columns_give_unit_singular_values(self):
        x = haar(7, 3, seed=2).x
        _, s, _ = svd(x)
        assert np.abs(s - 1.0).max() < 1e-10

    def test_reconstruction(self, rng):
        y = rng.standard_normal((5, 3))
        u, s, vt = svd(y)
        err = np.linalg.norm(u @ np.diag(s) @ vt - y)
        assert err <= 1e-10 * np.linalg.norm(y)

    def test_descending(self, rng):
        _, s, _ = svd(rng.standard_normal((6, 4)))
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_factor_orthonormality(self, rng):
        u, _, vt = svd(rng.standard_normal((6, 4)))
        k = 4
        assert np.linalg.norm(u.T @ u - np.eye(k)) < 1e-10
        assert np.linalg.norm(vt @ vt.T - np.eye(k)) < 1e-10


class TestSym:
    def test_symmetric_fixed_point(self, rng):
        s = rng.standard_normal((4, 4))
        s = s + s.T
        assert np.array_equal(sym_unchecked(s), s)

    def test_skew_to_zero(self, rng):
        k = rng.standard_normal((4, 4))
        k = k - k.T
        assert np.abs(sym_unchecked(k)).max() == 0.0

    def test_hand_case(self):
        assert np.array_equal(sym_unchecked(np.array([[1.0, 2.0], [4.0, 3.0]])), [[1.0, 3.0], [3.0, 3.0]])

    def test_bitwise_symmetric(self, rng):
        s = sym_unchecked(rng.standard_normal((5, 5)))
        assert np.array_equal(s, s.T)

    def test_stack_is_each_matrix_bit_for_bit(self, rng):
        a = rng.standard_normal((6, 4, 4))
        stacked = sym_unchecked(a)
        assert all(np.array_equal(stacked[k], sym_unchecked(a[k])) for k in range(6))


class TestMsignExact:
    def test_stiefel_fixed_point(self):
        x = haar(8, 3, seed=1).x
        assert np.linalg.norm(msign_exact(x) - x) < 1e-12

    def test_positive_scale_invariance(self):
        x = haar(8, 3, seed=1).x
        assert np.linalg.norm(msign_exact(2.5 * x) - x) < 1e-12

    def test_diagonal_hand_case(self):
        assert np.allclose(msign_exact(np.diag([2.0, -3.0])), np.diag([1.0, -1.0]))

    def test_orthonormal_output(self, rng):
        for _ in range(5):
            m = msign_exact(rng.standard_normal((7, 4)))
            assert np.linalg.norm(m.T @ m - np.eye(4)) < 1e-10

    def test_right_equivariance(self, rng):
        y = rng.standard_normal((6, 3))
        q = msign_exact(rng.standard_normal((3, 3)))
        assert np.linalg.norm(msign_exact(y @ q) - msign_exact(y) @ q) < 1e-9

    def test_rank_deficient_gives_the_partial_isometry(self):
        # rank one: sign 0 on the null singular value leaves u1·v1ᵀ
        y = np.ones((4, 2))
        assert np.allclose(msign_exact(y), np.full((4, 2), 0.5 / math.sqrt(2.0)), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(50, 3), (6, 6), (20, 10), (200, 5)])
    @pytest.mark.parametrize("kappa, svd_calls", [(99.0, 0), (101.0, 1)])
    def test_route_selection_orthonormal(self, shape, kappa, svd_calls, monkeypatch):
        # κ < 100 takes the Gram route and κ > 100 the SVD, at every shape
        import mcsd.linalg as linalg

        n, p = shape
        y = with_spectrum(n, np.geomspace(kappa, 1.0, p), seed=11)
        calls = []
        real_svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda y: calls.append(y) or real_svd(y))
        m = msign_exact(y)
        assert len(calls) == svd_calls
        assert orth_error(m) <= 1e-10
        f = np.linalg.svd(y, full_matrices=False)
        assert np.linalg.norm(m - f[0] @ f[2]) <= 1e-10

    @pytest.mark.parametrize("route", [msign_exact, msign_iterative])
    def test_eigensolver_failure_is_numeric_error(self, route, rng, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("did not converge")

        patch_lapack(monkeypatch, "eigh", lambda original: fail)
        with pytest.raises(NumericError, match="Gram"):
            route(rng.standard_normal((200, 5)))

    @pytest.mark.parametrize(
        "call",
        [lambda a: eigh(a, "Gram matrix"), lambda a: eigh(a, "Gram matrix", vectors=False),
         lambda a: gram_polar_factor(a, None), lambda a: gram_polar_factor(a, 1), lambda a: gram_polar_factor(a, 8)],
        ids=["eigh", "eigvalsh", "gram_exact", "gram_iterative1", "gram_iterative8"],
    )
    def test_lapack_nonconvergence_is_numeric_error(self, call):
        # LAPACK itself fails on an all-NaN symmetric matrix, with no mock: the
        # failure is numpy's LinAlgError message, and no RuntimeWarning escapes
        message = "eigendecomposition of the 3x3 Gram matrix failed: Eigenvalues did not converge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as excinfo:
                call(np.full((3, 3), np.nan))
        assert str(excinfo.value) == message

    def test_stacked_failure_names_the_first_matrix_that_fails_alone(self, monkeypatch):
        # LAPACK fails on the all-NaN matrices 2 and 3 of a stack: the error
        # names 2; a stack that fails only as a whole names none
        a = np.stack([np.eye(3)] * 4)
        a[2:] = np.nan
        with pytest.raises(NumericError, match="^eigendecomposition of the 3x3 Gram matrix failed") as excinfo:
            eigh(a, "Gram matrix")
        assert excinfo.value.index == 2

        # the exact sign's one SVD of the declined (κ = 101) matrices 1 and 3
        # names matrix 3 by its place in the stack, not among those two
        y = np.stack([with_spectrum(50, np.geomspace(kappa, 1.0, 3), seed=11 + k)
                      for k, kappa in enumerate([99.0, 101.0, 99.0, 101.0])])

        def fails_on_matrix_3(original):
            def call(m, **kwargs):
                if any(np.array_equal(a, y[3]) for a in m.reshape(-1, 50, 3)):
                    raise np.linalg.LinAlgError("forced")
                return original(m, **kwargs)

            return call

        patch_lapack(monkeypatch, "svd", fails_on_matrix_3)
        with pytest.raises(NumericError, match="^SVD of the 50x3 matrix failed: forced$") as excinfo:
            msign_exact(y)
        assert excinfo.value.index == 3

        def whole_stacks_fail(original):
            return lambda m: original(m) if m.ndim == 2 else original(np.full(m.shape, np.nan))

        patch_lapack(monkeypatch, "eigh", whole_stacks_fail)
        with pytest.raises(NumericError) as excinfo:
            eigh(np.stack([np.eye(3)] * 4), "Gram matrix")
        assert excinfo.value.index is None


class TestMsignExactStack:
    @pytest.mark.parametrize("shape", [(50, 3), (12, 4), (3, 5)])
    def test_each_slice_is_its_own_call_bit_for_bit(self, shape, rng):
        y = rng.standard_normal((9,) + shape)
        out = msign_exact(y)
        assert all(np.array_equal(out[k], msign_exact(y[k])) for k in range(9))

    @pytest.mark.parametrize("bad", [0, 5])
    def test_rank_deficient_slice_gives_its_partial_isometry(self, bad, rng):
        y = rng.standard_normal((7, 6, 3))
        y[bad, :, 2] = y[bad, :, 0]  # a repeated column: rank two
        out = msign_exact(y)
        u, _, vt = np.linalg.svd(y[bad], full_matrices=False)
        assert np.linalg.norm(out[bad] - u[:, :2] @ vt[:2]) <= 1e-10
        assert all(np.array_equal(out[k], msign_exact(y[k])) for k in range(7))

    @pytest.mark.parametrize("shape", [(50, 3), (6, 6), (20, 10), (10, 20)])
    def test_slices_on_both_sides_of_kappa_100_share_one_svd(self, shape, monkeypatch):
        # κ = 99 and a zero slice stay on the stacked Gram route; the κ = 101
        # slices leave it for one SVD of just those slices
        import mcsd.linalg as linalg

        n, p = max(shape), min(shape)
        kappas = [99.0, 101.0, 0.0, 99.0, 101.0]
        y = np.stack([with_spectrum(n, np.geomspace(max(kappa, 1.0), 1.0, p), seed=21 + i) * (kappa > 0)
                      for i, kappa in enumerate(kappas)])
        y = y if shape[0] >= shape[1] else y.swapaxes(1, 2)
        calls = []
        real_svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda y: calls.append(y) or real_svd(y))
        out = msign_exact(y)
        assert [a.shape for a in calls] == [(2,) + shape]
        assert np.array_equal(calls[0], y[[1, 4]])
        monkeypatch.undo()
        assert all(np.array_equal(out[k], msign_exact(y[k])) for k in range(len(y)))
        assert not out[2].any()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_input_rejected(self, value, rng):
        y = rng.standard_normal((4, 6, 3))
        y[2, 5, 1] = value
        with pytest.raises(ConfigurationError, match="non-finite"):
            msign_exact(y)

    @pytest.mark.parametrize("shape", [(4,), (0, 3), (4, 0), (0, 6, 3), (2, 6, 0), (2, 2, 6, 3)])
    def test_needs_a_nonempty_matrix_or_stack(self, shape):
        with pytest.raises(ConfigurationError, match="must be a matrix or a stack"):
            msign_exact(np.ones(shape))


# Tall, wide and square shapes, near and far from square (20x10 and 19x10,
# 30x16, 45x7 and 40x7), n == p and p == 1 (12x1 and 2500x1).
DISPATCH_SHAPES = [(200, 5), (5, 200), (45, 7), (40, 7), (20, 10), (19, 10), (30, 16), (50, 3), (6, 6), (40, 40),
                   (12, 1), (1, 12), (2500, 1)]


@st.composite
def sign_stacks(draw):
    """A stack (k, n, p), 1 <= k <= 4, of Gaussian, zero, rank-deficient
    (rank min(n, p) − 1) and κ = 1e3 slices."""
    k = draw(st.integers(1, 4))
    n, p = draw(st.sampled_from(DISPATCH_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_normal((k, n, p))
    for m in y:
        kind = draw(st.sampled_from(["gaussian", "zero", "rank_deficient", "ill_conditioned"]))
        u, sigma, vt = np.linalg.svd(m, full_matrices=False)
        if kind == "zero":
            m[:] = 0.0
        elif kind == "rank_deficient":
            m[:] = (u[:, :-1] * sigma[:-1]) @ vt[:-1]
        elif kind == "ill_conditioned":
            m[:] = (u * np.geomspace(1e3, 1.0, len(sigma))) @ vt
    return y


def same_spectrum(a, b) -> bool:
    """Whether two Spectra of a matrix hold the same arrays, bit for bit."""
    pairs = list(zip(a[1:-1], b[1:-1])) + list(zip(a.usv or (), b.usv or ()))
    return (a.usv is None) == (b.usv is None) and all(
        (u is None) == (v is None) and (u is None or np.array_equal(u, v)) for u, v in pairs
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sign_stacks(), st.sampled_from([None, 1, 8]))
def test_property_the_one_sign_dispatch(y, iters):
    # factorize of a stack gives each slice its own call's Spectrum, sign and
    # nuclear norm, bit for bit, and a zero slice sign 0 and nuclear norm +0.0
    # (never -0.0); msign_exact / msign_iterative are PolarMode.apply by name
    mode = PolarMode(iters)
    spec = factorize(y, iters)
    out, nuclear = spec.sign(), spec.nuclear_norm()
    assert out.shape == y.shape and nuclear.shape == (len(y),)
    for k, (m, slice_spec) in enumerate(zip(y, spec.matrices())):
        own = factorize(m, iters)
        assert same_spectrum(slice_spec, own)
        assert np.array_equal(out[k], own.sign())
        assert nuclear[k] == own.nuclear_norm()
        assert math.copysign(1.0, nuclear[k]) == math.copysign(1.0, own.nuclear_norm()) == 1.0
        if not m.any():
            assert nuclear[k] == 0.0 and not out[k].any()
    assert np.array_equal(mode.apply(y), out)
    assert np.array_equal(mode.apply(y[0]), out[0])
    named = msign_exact if iters is None else (lambda a: msign_iterative(a, iters))
    assert np.array_equal(named(y), out)
    assert np.array_equal(named(y[-1]), out[-1])


class TestMsignIterative:
    def test_stiefel_fixed_point(self):
        # the mandatory pre-normalization rescales the input, so the exact
        # fixed point is recovered only once the iteration has re-converged
        x = haar(8, 3, seed=3).x
        for iters in (8, 12, 30):
            assert np.linalg.norm(msign_iterative(x, iters=iters) - x) < 1e-12

    def test_matches_exact_on_gaussian(self, rng):
        y = rng.standard_normal((200, 5))
        assert np.linalg.norm(msign_iterative(y, iters=8) - msign_exact(y)) < 1e-6

    def test_scalar_sign(self):
        assert np.allclose(msign_iterative(np.array([[-4.0]])), [[-1.0]])

    def test_converges_with_many_iterations(self, rng):
        # spread singular values up to condition number 10
        u = msign_exact(rng.standard_normal((9, 4)))
        v = msign_exact(rng.standard_normal((4, 4)))
        y = u @ np.diag([10.0, 5.0, 2.0, 1.0]) @ v
        assert np.linalg.norm(msign_iterative(y, iters=30) - msign_exact(y)) < 1e-10

    def test_wide_input(self, rng):
        y = rng.standard_normal((3, 50))
        m = msign_iterative(y, iters=8)
        assert np.linalg.norm(m @ m.T - np.eye(3)) < 1e-8

    @pytest.mark.parametrize("shape", [(3, 2), (200, 5), (2, 3)])
    @pytest.mark.parametrize("route", [msign_exact, msign_iterative])
    def test_zero_input_gives_zeros(self, shape, route):
        # sign(0) = 0 on both routes: (200, 5) is the exact Gram route's shape
        out = route(np.zeros(shape))
        assert out.shape == shape and not out.any()


def array_newton_schulz_multipliers(w, iters):
    """_newton_schulz_multipliers in its array form: the floor by np.maximum
    and w·m₀² by a numpy product, then each eigenvalue's steps on floats."""
    w = np.maximum(w, len(w) * math.ulp(1.0) * max(float(w[-1]), 0.0))  # ε = ulp(1)
    mult0 = 1.0 / (PRENORM * math.sqrt(float(w.sum())))
    mults = []
    for u in (w * (mult0 * mult0)).tolist():
        m = mult0
        for _ in range(iters - 1):
            f = 1.5 - 0.5 * u
            m *= f
            u = u * f * f
        mults.append(m * (1.5 - 0.5 * u))
    return np.array(mults)


@st.composite
def gram_spectra(draw):
    """Ascending eigenvalues w of a p×p Gram matrix, 1 <= p <= 64, w_max > 0:
    a run of `low` values below or at the rounding floor p·ε·w_max (exact
    zeros of either sign, rounding-level negatives, tiny positives, or the
    floor itself), then distinct or equal values up to w_max."""
    p = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w_max = draw(st.sampled_from([1.0, 3.7e-7, 2.0**-900, 1e300]))
    floor = p * math.ulp(1.0) * w_max
    low = draw(st.integers(0, p - 1))
    kind = draw(st.sampled_from(["zero", "negative_zero", "negative", "tiny", "floor"]))
    small = {
        "zero": np.zeros(low),
        "negative_zero": np.full(low, -0.0),
        "negative": -floor * rng.random(low),
        "tiny": floor * rng.random(low) * 1e-3,
        "floor": np.full(low, floor),
    }[kind]
    high = p - low
    if draw(st.booleans()):
        rest = np.full(high, w_max)  # equal eigenvalues
    else:
        rest = w_max * rng.uniform(draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-12])), 1.0, high)
        rest[-1] = w_max
    return np.sort(np.concatenate([small, rest]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gram_spectra(), st.integers(1, 60))
def test_property_newton_schulz_multipliers_keep_the_array_forms_bits(w, iters):
    # the Python-float recurrence takes the same IEEE operations as the
    # array form, element by element, and numpy's own (pairwise) Σw
    assert _newton_schulz_multipliers(w, iters).tobytes() == array_newton_schulz_multipliers(w, iters).tobytes()


class TestSpectralEvaluation:
    """msign_iterative evaluates Newton-Schulz on the Gram spectrum; it must
    agree with the direct iteration on n×p iterates."""

    @pytest.mark.parametrize("shape", [(200, 5), (1000, 50), (5, 5)])
    @pytest.mark.parametrize("kappa", [1.5, 1e2, 1e4, 1e8, np.inf])
    def test_matches_direct_iteration(self, shape, kappa):
        n, p = shape
        # kappa = inf: the trailing singular value is exactly zero (rank p - 1)
        sigma = np.geomspace(1.0, 1.0 / min(kappa, 1e8), p)
        if kappa == np.inf:
            sigma[-1] = 0.0
        y = with_spectrum(n, sigma, seed=p)
        assert np.linalg.norm(msign_iterative(y, iters=8) - direct_polar_iteration(y, 8)) <= 1e-12

    @pytest.mark.parametrize("shape", [(200, 5), (1000, 50), (5, 5)])
    @pytest.mark.parametrize("kappa", [1e2, np.inf])
    @pytest.mark.parametrize("iters", [1, 3])
    def test_matches_direct_iteration_after_few_steps(self, shape, kappa, iters):
        # far from convergence every singular value is still in flight, so
        # the Gram evaluation must follow each one, not just the limit
        n, p = shape
        sigma = np.geomspace(1.0, 1.0 / min(kappa, 1e8), p)
        if kappa == np.inf:
            sigma[-1] = 0.0
        y = with_spectrum(n, sigma, seed=p)
        assert np.linalg.norm(msign_iterative(y, iters=iters) - direct_polar_iteration(y, iters)) <= 1e-12

    def test_wide_matches_direct_iteration(self, rng):
        y = rng.standard_normal((3, 50))
        assert np.linalg.norm(msign_iterative(y) - direct_polar_iteration(y)) <= 1e-12

    @pytest.mark.parametrize("iters", [8, 100, 2000, 10000])
    def test_rank_deficient_sign_stays_in_the_unit_ball(self, iters):
        # a tangent gradient at St(3, 3) has rank 2: its scaled Gram
        # eigenvalues are -3.9e-16, 2.03 and 2.03, and the null one's
        # multiplier grew as 1.5^k (singular values 28.9 at k = 100, NaN by
        # k = 1 800) until eigenvalues were floored at p·ε·w_max. The floored
        # multiplier, up to (p·ε·w_max)^(-1/2), scales the rounding of
        # H = V·diag(m)·Vᵀ to about √(ε/p) ≈ 8.6e-9 (1.0e-9 here from k = 50)
        rng = np.random.default_rng(0)
        x = random_point(StiefelManifold(3, 3), rng).x
        a = rng.standard_normal((3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign = msign_iterative(x @ (a - a.T), iters)
        assert np.linalg.svd(sign, compute_uv=False).max() <= 1 + 1e-8


class TestAgainstComposedKernel:
    """The polar routes apply their eigenvalue map in one helper; the result
    must be the composed kernel's, bit for bit."""

    SHAPES = [(200, 5), (1000, 50), (5, 5), (12, 1)]

    @staticmethod
    def spectrum_input(shape, kappa):
        n, p = shape
        return with_spectrum(n, np.geomspace(kappa, 1.0, p), seed=n + p)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kappa", [1.5, 1e2])
    @pytest.mark.parametrize("iters", [1, 3, 8])
    def test_iterative(self, shape, kappa, iters):
        y = self.spectrum_input(shape, kappa)
        assert np.array_equal(msign_iterative(y, iters), reference_gram_polar(y, reference_newton_schulz(iters)))
        x = y / np.abs(y).max()
        ref = reference_gram_factor(x.T @ x, reference_newton_schulz(iters))
        assert np.array_equal(gram_polar_factor(x.T @ x, iters)[1], ref)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kappa", [1.5, 1e2])
    def test_exact(self, shape, kappa):
        y = self.spectrum_input(shape, kappa)
        assert np.array_equal(msign_exact(y), reference_msign_exact(y))
        x = y / np.abs(y).max()
        ref = reference_gram_factor(x.T @ x, reference_inverse_sqrt)
        factor = gram_polar_factor(x.T @ x, None)[1]
        assert (factor is None and ref is None) or np.array_equal(factor, ref)


class TestFrobInner:
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "mixed"])
    def test_matches_tensordot_bit_for_bit(self, layout, rng):
        a, b = rng.standard_normal((2, 400, 10))
        if layout == "F":
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        elif layout == "strided":
            a, b = a[::2, ::2], b[1::2, 1::2]
        elif layout == "mixed":
            b = np.asfortranarray(b)
        assert frob_inner(a, b) == float(np.tensordot(a, b, axes=2))


class TestFrobNorm:
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "stack"])
    def test_matches_numpy_norm_bit_for_bit(self, layout, rng):
        a = rng.standard_normal((400, 10))
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided":
            a = a[::3, 1::2]
        elif layout == "stack":
            a = a.reshape(20, 20, 10)[3]
        assert frob_norm(a) == float(np.linalg.norm(a)) == frob_norms(a, "a")
        # each matrix of a stack, and a finite stack whose norms overflow
        stack = np.stack([a, -2.0 * a, 0.0 * a])
        assert frob_norms(stack, "a").tolist() == [float(np.linalg.norm(m)) for m in stack]
        assert frob_norms(np.full((2,) + a.shape, 1e308), "a").tolist() == [math.inf, math.inf]

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300, 1e-300])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_rescales_where_the_sum_of_squares_over_or_underflows(self, scale, layout, rng):
        base = rng.standard_normal((40, 10))
        a = scale * base
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided":
            a, base = a[::3, 1::2], base[::3, 1::2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fro = frob_norm(a)
        expected = scale * float(np.linalg.norm(base))
        assert abs(fro - expected) <= 1e-14 * expected

    def test_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frob_norm(np.zeros((5, 3))) == 0.0

    @pytest.mark.parametrize("entries", [[np.nan], [np.inf], [-np.inf], [np.inf, np.nan], [np.inf, -np.inf]])
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    def test_nonfinite_entry_gives_a_nonfinite_norm(self, entries, scale, rng):
        a = scale * rng.standard_normal((20, 4))
        a.flat[[3, 71][: len(entries)]] = entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not math.isfinite(frob_norm(a))


@st.composite
def frobenius_stacks(draw):
    """Two stacks (k, n, p), 1 <= k <= 32 and 1 <= n·p <= 2000, of Gaussian
    entries at one scale in [1e-200, 1e200] (1e200 overflows Σa², 1e-170 takes
    frob_norm's rescale), in one layout: "C", "F" (each slice), "strided"
    (each slice) or "stack" (every other matrix of a C-contiguous stack)."""
    k, n, p = draw(st.integers(1, 32)), draw(st.integers(1, 250)), draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e200, 1e-170]) | st.floats(-200.0, 200.0).map(lambda e: 10.0**e))
    layout = draw(st.sampled_from(["C", "F", "strided", "stack"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "F":
        a, b = scale * rng.standard_normal((2, k, p, n))
        return a.swapaxes(1, 2), b.swapaxes(1, 2), layout
    if layout == "strided":
        a, b = scale * rng.standard_normal((2, k, 2 * n, 2 * p))
        return a[:, ::2, 1::2], b[:, ::2, 1::2], layout
    a, b = scale * rng.standard_normal((2, 2 * k if layout == "stack" else k, n, p))
    return (a[::2], b[::2], layout) if layout == "stack" else (a, b, layout)


def bits(values) -> list[int]:
    """The IEEE bits of each float, so that NaN compares equal to itself."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(frobenius_stacks())
def test_property_stacked_frobenius_reductions_keep_each_slices_bits(stacks):
    # frob_inners is np.vdot of each pair (of C-contiguous stacks, of the
    # ravelled pair) and frob_norms each slice's frob_norm
    # in every layout, and value_from_grad each pair's float, bit for bit and
    # without a RuntimeWarning at 1e200 (overflow) or 1e-170 (rescale)
    a, b, layout = stacks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inners, norms, values = frob_inners(a, b), frob_norms(a, "a"), value_from_grad(a, b)
    if layout == "C":
        assert bits(inners) == bits([np.vdot(a_i.ravel(), b_i.ravel()) for a_i, b_i in zip(a, b)])
    assert bits(inners) == bits([frob_inner(a_i, b_i) for a_i, b_i in zip(a, b)])
    assert bits(norms) == bits([frob_norm(m) for m in a])
    assert bits(values) == bits([value_from_grad(a_i, b_i) for a_i, b_i in zip(a, b)])


class TestPolarMode:
    def test_exact_dispatch(self, rng):
        y = rng.standard_normal((6, 2))
        assert np.array_equal(EXACT.apply(y), msign_exact(y))

    def test_iterative_dispatch(self, rng):
        y = rng.standard_normal((6, 2))
        assert np.array_equal(PolarMode(iters=5).apply(y), msign_iterative(y, iters=5))

    def test_describe(self):
        assert EXACT.describe() == "exact"
        assert PolarMode(iters=8).describe() == "iterative:8"

    @pytest.mark.parametrize("iters", [0, -1])
    def test_iters_validated_on_construction(self, iters):
        # PolarMode(iters=0) would run Manifold Muon's inner loop with H = c·I
        with pytest.raises(ConfigurationError, match="iters must be >= 1"):
            PolarMode(iters=iters)
        with pytest.raises(ConfigurationError, match="iters must be >= 1"):
            msign_iterative(np.ones((4, 2)), iters)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_polar_factor_orthonormal(seed):
    y = np.random.default_rng(seed).standard_normal((8, 3))
    m = msign_exact(y)
    assert np.linalg.norm(m.T @ m - np.eye(3)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
def test_property_msign_scale_invariant(seed, scale):
    y = np.random.default_rng(seed).standard_normal((6, 2))
    assert np.linalg.norm(msign_exact(scale * y) - msign_exact(y)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(-200, 200),
    st.sampled_from([(5, 5), (6, 1), (1, 6), (3, 7), (7, 5), (12, 3), (100, 5), (5, 100)]),
    st.sampled_from([msign_exact, msign_iterative]),
)
def test_property_msign_scale_safe(seed, exponent, shape, route):
    # singular values in [1, 10]: the comparison isolates the input scale
    # from the conditioning, which amplifies rounding by up to κ
    n, p = shape
    k = min(n, p)
    rng = np.random.default_rng(seed)
    y = with_spectrum(max(n, p), rng.uniform(1.0, 10.0, k), seed=seed % 1000)
    if n < p:
        y = y.T
    assert np.linalg.norm(route(10.0**exponent * y) - route(y)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(5, 5), (6, 1), (1, 6), (3, 7), (7, 5), (12, 3), (100, 5), (5, 100), (40, 40)]),
    st.sampled_from([1.5, 1e2, 1e8]),
    st.booleans(),
    st.sampled_from([-200, 0, 200]),
    st.integers(1, 40),
)
def test_property_newton_schulz_stays_in_unit_ball(seed, shape, kappa, deficient, exponent, iters):
    # From X_0 = y/(1.01·‖y‖_F) every σ² starts in [0, 1), where the cubic
    # step u ↦ u(1.5 − 0.5u)² is increasing and fixes 1: the iterates cannot
    # diverge. What exceeds 1 is rounding in the Gram eigenvalues, which
    # grows with κ and with the zero singular value of a rank p − 1 input.
    n, p = shape
    k = min(n, p)
    sigma = np.geomspace(1.0, 1.0 / kappa, k)
    deficient = deficient and k > 1
    if deficient:
        sigma[-1] = 0.0
    tall = 10.0**exponent * with_spectrum(max(n, p), sigma, seed=seed % 1000)
    y = tall if n >= p else tall.T
    bound = 1.01 if deficient or kappa > 1e2 else 1 + 1e-10
    assert np.linalg.norm(msign_iterative(y, iters), 2) <= bound
    x = tall / np.abs(tall).max()
    assert np.linalg.norm(x @ gram_polar_factor(x.T @ x, iters)[1], 2) <= bound


@st.composite
def deficient_dims(draw):
    """(n, p, r) with 1 <= r < p <= n <= 12."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(2, n))
    return n, p, draw(st.integers(1, p - 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), deficient_dims())
def test_property_rank_deficient_sign_is_the_partial_isometry(seed, dims):
    # sign(0) = 0: msign of a rank-r matrix U_r·Σ_r·V_rᵀ is U_r·V_rᵀ, alone or
    # as a slice of a stack, and Newton-Schulz keeps every null direction at 0
    n, p, r = dims
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    y = (u[:, :r] * rng.uniform(1.0, 10.0, r)) @ v[:, :r].T
    expected = u[:, :r] @ v[:, :r].T
    assert np.linalg.norm(msign_exact(y) - expected) <= 1e-10
    stack = rng.standard_normal((3, n, p))
    k = seed % 3
    stack[k] = y
    assert np.linalg.norm(msign_exact(stack)[k] - expected) <= 1e-10
    assert np.abs(msign_iterative(y, 8) @ v[:, r:]).max() <= 1e-12
