import numpy as np
import pytest

from mcsd import StiefelManifold, linalg, make_brockett, msign_iterative, optimizers, random_point


@pytest.fixture(scope="session")
def small_instance():
    """(50, 3, 200) desk-scale instance shared by the slower checks."""
    return make_brockett(50, 3, 200, data_seed=7)


@pytest.fixture(scope="session")
def pca_instance():
    """(200, 5, 1000) benchmark-scale instance."""
    return make_brockett(200, 5, 1000, data_seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def haar(n, p, seed=0):
    return random_point(StiefelManifold(n, p), np.random.default_rng(seed))


def patch_lapack(monkeypatch, name, wrap):
    """Replace the package's LAPACK call `name` by wrap(original): "svd" is
    np.linalg.svd, called as svd(a, **kwargs); "eigh" and "eigvalsh" are
    linalg's LAPACK seam with and without vectors, called as f(a). A failure
    is np.linalg.LinAlgError, as LAPACK's own."""
    if name == "svd":
        monkeypatch.setattr(np.linalg, "svd", wrap(np.linalg.svd))
        return
    seam, vectors = linalg._lapack_eigh, name == "eigh"
    replaced = wrap(lambda a: seam(a, vectors))
    monkeypatch.setattr(linalg, "_lapack_eigh", lambda a, v: replaced(a) if v == vectors else seam(a, v))


@pytest.fixture()
def underresolved_retraction(monkeypatch):
    """Retract every step with one Newton-Schulz iteration, which cannot reach
    the manifold tolerance: each step's new point breaches FEAS_TOL. Initial
    points (random_point) keep the exact projection."""
    monkeypatch.setattr(optimizers, "msign_exact", lambda y: msign_iterative(y, 1))
