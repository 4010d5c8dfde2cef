import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import (
    ConfigurationError,
    NumericError,
    PolarMode,
    PolarScheme,
    RankDeficiencyError,
    msign_exact,
    msign_iterative,
    svd,
    sym,
)
from tests.conftest import haar

QUINTIC = PolarScheme(coefficients=((3.4445, -4.7750, 2.0315),) * 5 + ((1.5, -0.5),))


def direct_polar_iteration(y, scheme=PolarScheme(), iters=8):
    """Reference: the scheme's update applied to full n×p iterates."""
    n, p = y.shape
    transposed = n < p
    if transposed:
        y = y.T
    x = y / (scheme.prenorm * np.sqrt(np.sum(y * y)))
    for k in range(iters):
        cs = scheme.step_coefficients(k)
        gram = x.T @ x
        if len(cs) == 2:
            a, b = cs
            x = a * x + x @ (b * gram)
        else:
            a, b, c = cs
            x = a * x + x @ (b * gram + c * (gram @ gram))
    return x.T if transposed else x


def with_spectrum(n, sigma, seed):
    """n×len(sigma) matrix with singular values sigma and Haar factors."""
    p = len(sigma)
    return haar(n, p, seed=seed).x @ np.diag(sigma) @ haar(p, p, seed=seed + 1).x


def orth_error(m):
    return np.linalg.norm(m.T @ m - np.eye(m.shape[1]))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.s, [3.0, 1.0])

    def test_orthonormal_columns_give_unit_singular_values(self):
        x = haar(7, 3, seed=2).x
        assert np.abs(svd(x).s - 1.0).max() < 1e-10

    def test_reconstruction(self, rng):
        y = rng.standard_normal((5, 3))
        f = svd(y)
        err = np.linalg.norm(f.u @ np.diag(f.s) @ f.vt - y)
        assert err <= 1e-10 * np.linalg.norm(y)

    def test_descending(self, rng):
        s = svd(rng.standard_normal((6, 4))).s
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_factor_orthonormality(self, rng):
        f = svd(rng.standard_normal((6, 4)))
        k = 4
        assert np.linalg.norm(f.u.T @ f.u - np.eye(k)) < 1e-10
        assert np.linalg.norm(f.vt @ f.vt.T - np.eye(k)) < 1e-10


class TestSym:
    def test_symmetric_fixed_point(self, rng):
        s = rng.standard_normal((4, 4))
        s = s + s.T
        assert np.array_equal(sym(s), s)

    def test_skew_to_zero(self, rng):
        k = rng.standard_normal((4, 4))
        k = k - k.T
        assert np.abs(sym(k)).max() == 0.0

    def test_hand_case(self):
        assert np.array_equal(sym([[1.0, 2.0], [4.0, 3.0]]), [[1.0, 3.0], [3.0, 3.0]])

    def test_bitwise_symmetric(self, rng):
        s = sym(rng.standard_normal((5, 5)))
        assert np.array_equal(s, s.T)

    def test_requires_square(self):
        with pytest.raises(ConfigurationError):
            sym(np.ones((2, 3)))


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

    def test_rank_deficient_rejected(self):
        y = np.ones((4, 2))  # rank one
        with pytest.raises(RankDeficiencyError):
            msign_exact(y)

    @pytest.mark.parametrize(
        "shape, kappa, svd_calls", [((200, 5), 99.0, 0), ((200, 5), 101.0, 1), ((50, 3), 2.0, 1)]
    )
    def test_route_selection_orthonormal(self, shape, kappa, svd_calls, monkeypatch):
        # a tall input takes the Gram route at κ < 100 unless it is too small
        # for the route to pay (50x3); κ > 100 takes the SVD
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

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError, match="Gram"):
            route(rng.standard_normal((200, 5)))


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

    def test_divergent_scheme_names_iteration(self, rng):
        bad = PolarScheme(coefficients=((40.0, -50.0),))
        with pytest.raises(NumericError, match="iteration"):
            msign_iterative(rng.standard_normal((6, 3)), scheme=bad, iters=12)

    def test_custom_coefficient_schedule(self, rng):
        # a quintic schedule, stabilized by a trailing cubic refinement
        y = rng.standard_normal((40, 4))
        assert np.linalg.norm(msign_iterative(y, scheme=QUINTIC, iters=12) - msign_exact(y)) < 1e-6

    def test_zero_input_rejected(self):
        with pytest.raises(RankDeficiencyError):
            msign_iterative(np.zeros((3, 2)))


class TestSpectralEvaluation:
    """msign_iterative evaluates the scheme on the Gram spectrum; it must
    agree with the direct iteration on n×p iterates."""

    @pytest.mark.parametrize("shape", [(200, 5), (1000, 50), (5, 5)])
    @pytest.mark.parametrize("kappa", [1.5, 1e2, 1e4, 1e8, np.inf])
    @pytest.mark.parametrize("scheme, iters, tol", [(PolarScheme(), 8, 1e-12), (QUINTIC, 12, 1e-8)])
    def test_matches_direct_iteration(self, shape, kappa, scheme, iters, tol):
        n, p = shape
        # kappa = inf: the trailing singular value is exactly zero (rank p - 1)
        sigma = np.geomspace(1.0, 1.0 / min(kappa, 1e8), p)
        if kappa == np.inf:
            sigma[-1] = 0.0
        y = with_spectrum(n, sigma, seed=p)
        err = np.linalg.norm(msign_iterative(y, scheme, iters) - direct_polar_iteration(y, scheme, iters))
        assert err <= tol

    def test_wide_matches_direct_iteration(self, rng):
        y = rng.standard_normal((3, 50))
        assert np.linalg.norm(msign_iterative(y) - direct_polar_iteration(y)) <= 1e-12

    def test_divergence_names_the_direct_iteration(self, rng):
        bad = PolarScheme(coefficients=((40.0, -50.0),))
        y = rng.standard_normal((6, 3))
        limit = 10.0 * np.sqrt(3)
        first = next(k for k in range(1, 13) if np.linalg.norm(direct_polar_iteration(y, bad, k)) > limit)
        with pytest.raises(NumericError, match=f"at iteration {first}$"):
            msign_iterative(y, scheme=bad, iters=12)


class TestPolarMode:
    def test_exact_dispatch(self, rng):
        y = rng.standard_normal((6, 2))
        assert np.array_equal(PolarMode.exact().apply(y), msign_exact(y))

    def test_iterative_dispatch(self, rng):
        y = rng.standard_normal((6, 2))
        assert np.array_equal(PolarMode.iterative(5).apply(y), msign_iterative(y, iters=5))

    def test_describe(self):
        assert PolarMode.exact().describe() == "exact"
        assert PolarMode.iterative(8).describe() == "iterative:8"

    @pytest.mark.parametrize("iters", [0, -1])
    def test_iters_validated_on_construction(self, iters):
        # PolarMode(iters=0) would run Manifold Muon's inner loop with H = c·I
        with pytest.raises(ConfigurationError):
            PolarMode(iters=iters)
        with pytest.raises(ConfigurationError):
            PolarMode.iterative(iters)


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
