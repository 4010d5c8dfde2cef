"""linalg kernel table: both polar-factor routes at the shapes the ROADMAP
names, timed on a Gaussian draw, with the residual of each result.

The residual ‖XᵀX − I‖_F shows whether a route's output is a Stiefel point
at that shape; the 8-step iterative route is not, at 1000x50 and 512x512.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHAPES = ((200, 5), (1000, 50), (512, 512))
ITERS = 8
MIN_REPS = 3
MIN_SECONDS = 0.2


def _median_call_s(fn, y) -> tuple[float, np.ndarray]:
    out = fn(y)  # warm-up, and the result whose residual is reported
    times: list[float] = []
    while len(times) < MIN_REPS or sum(times) < MIN_SECONDS:
        tic = time.perf_counter()
        fn(y)
        times.append(time.perf_counter() - tic)
    return statistics.median(times), out


def kernel_table(rng: np.random.Generator) -> dict[str, float]:
    """Median µs per call and residual per (route, shape); for the iterative
    route also its operation count, computed from the shape (4np² per cubic
    iteration: the Gram product and the update product), not measured."""
    from mcsd.linalg import msign_exact, msign_iterative

    routes = (("msign_exact", msign_exact), ("msign_iterative", lambda y: msign_iterative(y, iters=ITERS)))
    table: dict[str, float] = {}
    for n, p in SHAPES:
        y = rng.standard_normal((n, p))
        for route, fn in routes:
            seconds, x = _median_call_s(fn, y)
            key = f"linalg.kernel.{route}.{n}x{p}"
            table[f"{key}.us"] = seconds * 1e6
            table[f"{key}.resid"] = float(np.linalg.norm(x.T @ x - np.eye(p)))
        table[f"linalg.kernel.msign_iterative.{n}x{p}.flops_computed"] = float(4 * n * p * p * ITERS)
    return table
