import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import (
    ConfigurationError,
    FeasibilityError,
    StiefelManifold,
    StiefelPoint,
    feasibility_violation,
    msign_iterative,
    project,
    random_point,
    riemannian_grad,
)
from mcsd.manifolds import FEAS_TOL, tangent_component
from tests.conftest import haar


def batched_haar(count, n, p, rng):
    """Stacked Haar samples via sign-fixed QR; independent of project()."""
    g = rng.standard_normal((count, n, p))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


class TestManifoldAndPoint:
    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            StiefelManifold(2, 3)

    def test_point_requires_feasibility(self, rng):
        m = StiefelManifold(5, 2)
        with pytest.raises(FeasibilityError):
            StiefelPoint(rng.standard_normal((5, 2)), m)

    def test_point_shape_checked(self):
        m = StiefelManifold(5, 2)
        with pytest.raises(ConfigurationError):
            StiefelPoint(np.eye(4, 2), m)
        assert repr(StiefelPoint(np.eye(5, 2), m)) == "StiefelPoint(St(5, 2))"

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_violation_is_the_gram_residual_norm_bit_for_bit(self, layout, rng):
        for x in batched_haar(5, 9, 4, rng) + 1e-9 * rng.standard_normal((5, 9, 4)):
            x = np.asfortranarray(x) if layout == "F" else x
            assert feasibility_violation(x) == float(np.linalg.norm(x.T @ x - np.eye(4)))

    def test_point_keeps_its_certified_violation(self, rng):
        m = StiefelManifold(40, 3)
        x = StiefelPoint(msign_iterative(rng.standard_normal((40, 3)), 8), m)
        assert 0.0 < x.violation == feasibility_violation(x.x) <= FEAS_TOL

    def test_point_array_read_only(self):
        x = haar(5, 2, seed=0)
        with pytest.raises(ValueError):
            x.x[0, 0] = 1.0

    def test_point_stores_a_c_ordered_copy(self):
        # the layout of x.copy(): later products see the same operands
        x = haar(50, 3, seed=1)
        point = StiefelPoint(np.asfortranarray(x.x), x.manifold)
        assert np.array_equal(point.x, x.x) and point.x.flags.c_contiguous and not point.x.flags.writeable


class TestProject:
    def test_idempotent_on_manifold(self):
        m = StiefelManifold(6, 2)
        x = haar(6, 2, seed=1)
        again = project(m, x.x)
        assert np.linalg.norm(again.x - x.x) < 1e-12

    def test_scale_invariant(self):
        m = StiefelManifold(6, 2)
        x = haar(6, 2, seed=2)
        assert np.linalg.norm(project(m, 2.0 * x.x).x - x.x) < 1e-12

    def test_nearest_point_against_sampled_lower_bound(self, rng):
        # no point from a large Haar sample may be closer than the projection
        m = StiefelManifold(6, 2)
        y = rng.standard_normal((6, 2))
        proj = project(m, y)
        proj_dist = np.linalg.norm(proj.x - y)
        sample = batched_haar(100_000, 6, 2, rng)
        dists = np.sqrt(np.sum((sample - y) ** 2, axis=(1, 2)))
        assert dists.min() >= proj_dist - 1e-12

    def test_rank_deficient_input_rejected(self, rng):
        # rank one: the factor u·vᵀ has |x'x - I|_F = sqrt(3 - 1)
        y = np.outer(rng.standard_normal(6), rng.standard_normal(3))
        with pytest.raises(FeasibilityError, match=r"\|x'x - I\|_F = 1\.414e\+00"):
            project(StiefelManifold(6, 3), y)
        # in a stack, the error's index is the matrix's place
        stack = rng.standard_normal((4, 6, 3))
        stack[2] = y
        with pytest.raises(FeasibilityError, match=r"\|x'x - I\|_F = 1\.414e\+00") as raised:
            project(StiefelManifold(6, 3), stack)
        assert raised.value.index == 2

    def test_stack_is_each_matrix_bit_for_bit(self, rng):
        m = StiefelManifold(9, 4)
        y = rng.standard_normal((5, 9, 4))
        stack = project(m, y)
        for k, y_k in enumerate(y):
            point = project(m, y_k)
            assert np.array_equal(stack.x[k], point.x)
            assert stack.violation[k] == point.violation

    @pytest.mark.parametrize(
        "y, message",
        [
            (np.eye(5, 2), r"point shape \(5, 2\) does not match St\(6, 2\)"),
            (np.eye(2, 6), r"point shape \(2, 6\) does not match St\(6, 2\)"),
            (np.stack([np.eye(5, 2)] * 3), r"point shape \(3, 5, 2\) does not match St\(6, 2\)"),
            (np.ones(6), "must be a matrix or a stack of them, got shape \\(6,\\)"),
            (np.where(np.eye(6, 2) == 1.0, np.nan, 0.0), "contains non-finite entries"),
        ],
        ids=["rows", "wide", "stack", "1-D", "non-finite"],
    )
    def test_input_contract(self, y, message):
        # the input checks are msign_exact's (a matrix or a stack, finite) and
        # StiefelPoint's (St(n, p)'s shape)
        with pytest.raises(ConfigurationError, match=message):
            project(StiefelManifold(6, 2), y)

    def test_double_projection_idempotent(self, rng):
        m = StiefelManifold(9, 4)
        y = rng.standard_normal((9, 4))
        once = project(m, y)
        twice = project(m, once.x)
        assert np.linalg.norm(twice.x - once.x) < 1e-10


class TestRiemannianGrad:
    def test_point_itself_maps_to_zero(self):
        x = haar(7, 3, seed=3)
        assert np.abs(riemannian_grad(x, x.x)).max() < 1e-14

    def test_skew_component_unchanged(self, rng):
        x = haar(7, 3, seed=4)
        a = rng.standard_normal((3, 3))
        skew = a - a.T
        g = x.x @ (0.5 * skew)
        assert np.linalg.norm(riemannian_grad(x, g) - g) < 1e-12

    def test_idempotent(self, rng):
        x = haar(7, 3, seed=5)
        g = rng.standard_normal((7, 3))
        once = riemannian_grad(x, g)
        assert np.linalg.norm(riemannian_grad(x, once) - once) < 1e-12

    def test_output_in_tangent_space(self, rng):
        x = haar(7, 3, seed=6)
        z = riemannian_grad(x, rng.standard_normal((7, 3)))
        assert np.linalg.norm(x.x.T @ z + z.T @ x.x) < 1e-10

    def test_nonexpansive(self, rng):
        x = haar(7, 3, seed=7)
        for _ in range(20):
            g = rng.standard_normal((7, 3))
            assert np.linalg.norm(riemannian_grad(x, g)) <= np.linalg.norm(g) + 1e-12

    def test_dimension_mismatch(self):
        x = haar(7, 3, seed=8)
        with pytest.raises(ConfigurationError):
            riemannian_grad(x, np.ones((3, 7)))

    @pytest.mark.parametrize("shape", [(7, 3), (200, 5), (1000, 50)])
    def test_stack_is_each_pair_bit_for_bit(self, shape, rng):
        xs = batched_haar(5, *shape, rng)
        gs = rng.standard_normal((5, *shape))
        stacked = tangent_component(xs, gs)
        assert all(np.array_equal(stacked[k], tangent_component(xs[k], gs[k])) for k in range(5))

    def test_zero(self):
        x = haar(5, 2, seed=9)
        assert np.abs(riemannian_grad(x, np.zeros((5, 2)))).max() == 0.0

    def test_tangent_input_unchanged(self, rng):
        x = haar(5, 2, seed=10)
        g = riemannian_grad(x, rng.standard_normal((5, 2)))
        assert np.linalg.norm(riemannian_grad(x, g) - g) < 1e-12

    def test_residual_orthogonal_to_tangent_space(self, small_instance, rng):
        # the removed component must be orthogonal to every tangent vector
        x = haar(50, 3, seed=11)
        eg = small_instance.euclid_grad(x.x)
        gm = riemannian_grad(x, eg)
        residual = eg - gm
        scale = np.linalg.norm(eg)
        for _ in range(100):
            z = riemannian_grad(x, rng.standard_normal((50, 3)))
            assert abs(np.tensordot(residual, z, axes=2)) < 1e-9 * max(scale * np.linalg.norm(z), 1.0)


class TestFeasibilityViolation:
    def test_on_manifold(self):
        assert feasibility_violation(haar(6, 2, seed=13).x) <= 1e-10

    def test_scaled_point(self):
        x = haar(6, 2, seed=14).x
        assert abs(feasibility_violation(2.0 * x) - 3.0 * np.sqrt(2)) < 1e-10

    def test_zero_matrix(self):
        assert abs(feasibility_violation(np.zeros((6, 2))) - np.sqrt(2)) < 1e-15

    @pytest.mark.parametrize("shape", [(50, 3), (7, 1), (5, 5), (200, 5), (1000, 50)])
    def test_stack_slices_are_their_own_calls(self, shape):
        xs = np.stack([haar(*shape, seed=s).x for s in range(4)])
        xs[2] *= 1.5
        assert feasibility_violation(xs) == [feasibility_violation(x) for x in xs]

    def test_stack_rejects_a_nonfinite_slice(self):
        xs = np.stack([haar(6, 2, seed=s).x for s in range(3)])
        xs[1, 0, 0] = np.inf
        with pytest.raises(ConfigurationError, match="non-finite"):
            feasibility_violation(xs)


class TestRandomPoint:
    def test_feasible(self):
        x = random_point(StiefelManifold(10, 4), np.random.default_rng(0))
        assert feasibility_violation(x.x) <= 1e-10

    def test_deterministic_per_seed(self):
        m = StiefelManifold(10, 4)
        a = random_point(m, np.random.default_rng(5))
        b = random_point(m, np.random.default_rng(5))
        assert np.array_equal(a.x, b.x)

    def test_entry_mean_symmetric(self):
        # Haar symmetry: entries have zero mean
        m = StiefelManifold(10, 1)
        rng = np.random.default_rng(6)
        entries = np.concatenate([random_point(m, rng).x.ravel() for _ in range(1000)])
        se = entries.std(ddof=1) / np.sqrt(entries.size)
        assert abs(entries.mean()) <= 3 * se

    def test_rank_deficient_draw_is_a_feasibility_error(self):
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        # sign(0) = 0, so the factor of a zero draw is 0 and |x'x - I|_F = sqrt(2)
        with pytest.raises(FeasibilityError, match=r"\|x'x - I\|_F = 1\.414e\+00"):
            random_point(StiefelManifold(6, 2), ZeroRng())


class TestSphereReduction:
    def test_project_is_normalization(self, rng):
        m = StiefelManifold(9, 1)
        y = rng.standard_normal((9, 1))
        assert np.linalg.norm(project(m, y).x - y / np.linalg.norm(y)) < 1e-12

    def test_riemannian_grad_is_orthogonal_complement(self, rng):
        x = haar(9, 1, seed=15)
        g = rng.standard_normal((9, 1))
        direct = g - x.x * float((x.x.T @ g)[0, 0])
        assert np.linalg.norm(riemannian_grad(x, g) - direct) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_projection_idempotent(seed):
    rng = np.random.default_rng(seed)
    m = StiefelManifold(7, 3)
    y = rng.standard_normal((7, 3))
    once = project(m, y)
    assert np.linalg.norm(project(m, once.x).x - once.x) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_riemannian_grad_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    x = project(StiefelManifold(7, 3), rng.standard_normal((7, 3)))
    g = rng.standard_normal((7, 3))
    assert np.linalg.norm(riemannian_grad(x, g)) <= np.linalg.norm(g) + 1e-12
