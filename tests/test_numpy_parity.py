"""The p×p kernels call LAPACK's eigensolver gufunc directly and form 2-D
products with ndarray.dot, to spare numpy's per-call overhead. Each must
give, bit for bit, what a reference written with `@` and np.linalg gives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import EXACT, NumericError, PolarMode, manifold_muon_direction
from mcsd.linalg import RANK_TOL_FACTOR, eigh, factorize, gram_polar_factor
from mcsd.manifolds import tangent_component
from mcsd.optimizers import MUON_QUALITY_TOL
from tests.conftest import haar
from tests.test_linalg import reference_gram_factor, reference_inverse_sqrt, reference_newton_schulz

# p == 1, n == p, tall and wide, near and far from square
SHAPES = [(1, 1), (12, 1), (2500, 1), (1, 12), (3, 3), (6, 6), (50, 3), (200, 5), (5, 200), (45, 7), (12, 4)]
SCALES = [1.0, 1e150, 1e-150]


@st.composite
def matrices(draw, shapes=SHAPES):
    """A Gaussian, zero or rank-deficient (rank min(n, p) − 1) matrix of a
    shape of `shapes`, times a scale of SCALES."""
    n, p = draw(st.sampled_from(shapes))
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    kind = draw(st.sampled_from(["gaussian", "zero", "rank_deficient"]))
    if kind == "zero":
        y[:] = 0.0
    elif kind == "rank_deficient":
        u, sigma, vt = np.linalg.svd(y, full_matrices=False)
        y = (u[:, :-1] * sigma[:-1]) @ vt[:-1]
    return y * draw(st.sampled_from(SCALES))


def reference_factor(gram, iters):
    return reference_gram_factor(gram, reference_inverse_sqrt if iters is None else reference_newton_schulz(iters))


def reference_svd_sign(y):
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    keep = s > RANK_TOL_FACTOR * s[0]
    return u @ vt if keep.all() else (u * keep) @ vt


def reference_sign(y, iters=None):
    """factorize(y, iters).sign() with `@` and np.linalg."""
    n, p = y.shape
    scale = np.abs(y).max()
    if scale == 0.0:
        return np.zeros(y.shape)
    x = (y.T if n < p else y) / scale
    h = reference_factor(x.T @ x, iters)
    if h is None:
        return reference_svd_sign(y)
    return (x @ h).T if n < p else x @ h


def reference_muon_direction(x, g_m, inner_iters, inner_lr, iters):
    """manifold_muon_direction's p×p ascent with `@` and np.linalg."""
    scale = np.abs(g_m).max()
    if scale == 0.0:
        return np.zeros(g_m.shape), False
    g = g_m / scale
    gram_g = g.T @ g
    w = np.linalg.eigh(gram_g)[0]
    h = reference_factor(gram_g, iters)
    a, b = x.T @ g, x.T @ x
    half_lr = 0.5 * inner_lr / scale
    lam, p_lam = np.zeros_like(b), a
    for k in range(inner_iters):
        if k:
            lam = lam + half_lr * (q + q.T)
            p_lam = a + b @ lam
            h = reference_factor(gram_g + (lam @ a).T + lam @ p_lam, iters)
        if h is None:
            msign_y = reference_sign(g + x @ lam) if k else reference_svd_sign(g_m)
            q = x.T @ msign_y
        else:
            q = p_lam @ h
    neg_tangency = 0.5 * (q + q.T)
    d = x @ neg_tangency - msign_y if h is None else -(g @ h) - x @ (lam @ h - neg_tangency)
    d = d / max(1.0, math.sqrt(max(float(np.linalg.eigvalsh(d.T @ d)[-1]), 0.0)))
    g_fro = scale * math.sqrt(float(np.trace(gram_g)))
    g_spec = scale * math.sqrt(max(float(w[-1]), 0.0))
    if scale * float(np.vdot(g, d)) <= -(g_fro**2) / g_spec + MUON_QUALITY_TOL * g_fro:
        return d, False
    return -g_m / g_spec, True


@settings(max_examples=120, deadline=None, derandomize=True)
@given(matrices(shapes=[(p, p) for p in range(1, 9)]), st.booleans())
def test_eigh_is_numpys(m, gram):
    # a Gram matrix (positive semidefinite) or the symmetric part of m
    a = m.T @ m if gram else 0.5 * (m + m.T)
    w, v = eigh(a, "matrix")
    ref_w, ref_v = np.linalg.eigh(a)
    assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)
    assert np.array_equal(eigh(a, "matrix", vectors=False), np.linalg.eigvalsh(a))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(matrices(), st.sampled_from([None, 1, 8]))
def test_gram_polar_factor_is_the_reference(y, iters):
    # the caller's scaling, without which a zero y has no Newton-Schulz prescale
    scale = np.abs(y).max()
    if scale == 0.0:
        return
    x = y / scale
    w, h = gram_polar_factor(x.T @ x, iters)
    ref = reference_factor(x.T @ x, iters)
    assert np.array_equal(w, np.linalg.eigh(x.T @ x)[0])
    assert (h is None and ref is None) or np.array_equal(h, ref)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(), st.sampled_from([None, 1, 8]))
def test_factorize_sign_is_the_reference(y, iters):
    assert np.array_equal(factorize(y, iters).sign(), reference_sign(y, iters))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matrices(shapes=[(n, p) for n, p in SHAPES if n >= p]), st.sampled_from([EXACT, PolarMode(1), PolarMode(8)]),
       st.sampled_from([1, 10]), st.sampled_from([0.1, 1e9]), st.integers(0, 2**16))
def test_manifold_muon_direction_is_the_reference(y, mode, inner_iters, inner_lr, seed):
    x = haar(*y.shape, seed=seed)
    g = tangent_component(x.x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref, fallback = reference_muon_direction(x.x, g, inner_iters, inner_lr, mode.iters)
        except np.linalg.LinAlgError:
            # the multipliers overflow (a tiny gradient against a fixed inner_lr),
            # which the solve names as its ascent's divergence
            with pytest.raises(NumericError, match=r"^Manifold Muon's dual ascent diverged at inner iteration #\d+: "):
                manifold_muon_direction(x, g, inner_iters, inner_lr, mode)
            return
        res = manifold_muon_direction(x, g, inner_iters, inner_lr, mode)
    assert np.array_equal(res.direction, ref) and res.fallback == fallback
