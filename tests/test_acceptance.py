"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run `pytest tests/test_acceptance.py -s` to
see them). Criteria touching randomness use fixed seeds so the suite is
reproducible run to run.
"""

import math
import statistics
import time
from dataclasses import replace
from itertools import pairwise

import numpy as np
import pytest

from mcsd import (
    NoiseConfig,
    NormKind,
    StiefelManifold,
    brute_force_lmo_check,
    check_descent_lemma,
    check_min_grad_rate,
    audit_deterministic_bound,
    feasibility_violation,
    frob_inner,
    gap_with_headroom,
    msign_exact,
    msign_iterative,
    norm_equiv_constant,
    project,
    random_point,
    riemannian_grad,
    smoothness_constants,
)
from mcsd.bench import default_pca_config, run_pca_bench, run_rgd_sweep
from mcsd.objectives import make_brockett
from mcsd.trace import read_trace_csv
from mcsd.optimizers import (
    Mcsd,
    OptimizerRun,
    Rgd,
    StochasticMcsd,
    constant_schedule,
    deterministic_bound_schedule,
    manifold_muon_direction,
    run_trace,
    step,
    stochastic_bound_schedule,
)


def report(number, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail}; {elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_polar_accuracy():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_err = 0.0
    worst_orth = 0.0
    for _ in range(100):
        y = rng.standard_normal((200, 5))
        approx = msign_iterative(y, iters=8)
        worst_err = max(worst_err, float(np.linalg.norm(approx - msign_exact(y))))
        worst_orth = max(worst_orth, feasibility_violation(approx))
    elapsed = time.perf_counter() - tic
    ok = worst_err <= 1e-6 and worst_orth <= 1e-8
    report(1, "polar accuracy", ok, f"max error {worst_err:.2e}, max orth {worst_orth:.2e}", elapsed, 10.0)


def test_criterion_2_pca_head_to_head(tmp_path):
    tic = time.perf_counter()
    cfg = default_pca_config(tmp_path / "pca")
    summary = run_pca_bench(cfg)
    elapsed = time.perf_counter() - tic

    spel = summary["methods"]["spel"]
    rgd = summary["methods"]["rgd"]
    mm = summary["methods"]["mm"]
    initial = summary["initial_subspace_error"]
    med_spel = statistics.median(spel["final_subspace_error"])
    med_rgd = statistics.median(rgd["final_subspace_error"])
    # The median of every step's time (900 per method), which one burst of
    # host load cannot move as it moves a median of three run totals.
    med_spel_step = statistics.median(step_durations(cfg.output_dir, "spel"))
    med_mm_step = statistics.median(step_durations(cfg.output_dir, "mm"))

    ok_error = med_spel <= med_rgd
    ok_progress = med_spel <= 0.1 * initial
    ok_time = med_spel_step <= 0.5 * med_mm_step
    ok = ok_error and ok_progress and ok_time and not summary["aborted"]
    detail = (
        f"final spel {med_spel:.2e} vs rgd {med_rgd:.2e}, initial {initial:.2f}; "
        f"median step spel {1e6 * med_spel_step:.0f}us vs mm {1e6 * med_mm_step:.0f}us, "
        f"ratio {med_spel_step / med_mm_step:.2f}"
    )
    report(2, "pca head-to-head", ok, detail, elapsed, 300.0)


def step_durations(out_dir, label):
    """Each step's wall time over every run of `label` in out_dir: the
    successive differences of its trace's elapsed_s."""
    return [b.elapsed_s - a.elapsed_s for path in sorted(out_dir.glob(f"{label}_*.csv"))
            for a, b in pairwise(read_trace_csv(path))]


def test_criterion_3_deterministic_bound_audit(small_instance):
    tic = time.perf_counter()
    inst = small_instance
    manifold = StiefelManifold(50, 3)
    x0 = random_point(manifold, np.random.default_rng(7))
    consts = smoothness_constants(inst)
    n_const = norm_equiv_constant(NormKind.SPECTRAL, 50, 3)
    assert n_const == pytest.approx(math.sqrt(3))
    gap = gap_with_headroom(inst, x0.x)
    horizon = 100
    schedule = deterministic_bound_schedule(gap, consts.composed_lipschitz, n_const, horizon)
    run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=schedule, x=x0)
    records = run_trace(run, inst, horizon)

    tele = audit_deterministic_bound(records, consts.composed_lipschitz, n_const)
    rate = check_min_grad_rate([records], gap, consts.composed_lipschitz, n_const, schedule)
    elapsed = time.perf_counter() - tic
    ok = tele.passed and rate.passed
    detail = (
        f"telescoped {tele.lhs:.4g} <= {tele.rhs:.4g}; "
        f"min dual norm {rate.lhs:.4g} <= {rate.rhs:.4g}"
    )
    report(3, "deterministic bound audit", ok, detail, elapsed, 30.0)


def test_criterion_4_descent_lemma_sampling(small_instance):
    tic = time.perf_counter()
    result = check_descent_lemma(small_instance, samples=1000, rng=np.random.default_rng(99))
    elapsed = time.perf_counter() - tic
    report(4, "descent lemma sampling", result.passed, result.detail, elapsed, 60.0)


def test_criterion_5_stochastic_rate_surrogate(small_instance):
    tic = time.perf_counter()
    inst = small_instance
    manifold = StiefelManifold(50, 3)
    sigma = 1.0
    noise = NoiseConfig.additive_gaussian(sigma / math.sqrt(50 * 3))
    consts = smoothness_constants(inst)
    n_const = norm_equiv_constant(NormKind.SPECTRAL, 50, 3)
    x0 = random_point(manifold, np.random.default_rng(13))
    gap = gap_with_headroom(inst, x0.x)
    horizon = 400
    schedule = stochastic_bound_schedule(gap, consts.composed_lipschitz, n_const, horizon)
    method = StochasticMcsd(NormKind.SPECTRAL, beta=schedule.momentum_beta, noise=noise)
    assert schedule.momentum_beta == pytest.approx(1.0 - horizon**-0.5)

    traces = []
    for seed in range(20):
        run = OptimizerRun(
            method=method, schedule=schedule, x=x0,
            rng=np.random.default_rng(np.random.SeedSequence(500, spawn_key=(seed,))),
        )
        traces.append(run_trace(run, inst, horizon))
    result = check_min_grad_rate(
        traces, gap, consts.composed_lipschitz, n_const, schedule, sigma=sigma
    )
    elapsed = time.perf_counter() - tic
    detail = f"seed-mean min dual norm {result.lhs:.4g} <= {result.rhs:.4g} + {result.slack:.2g}"
    report(5, "stochastic rate surrogate", result.passed, detail, elapsed, 600.0)


def test_criterion_6_gradient_correctness(small_instance):
    tic = time.perf_counter()
    inst = small_instance
    manifold = StiefelManifold(50, 3)
    rng = np.random.default_rng(21)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        w = random_point(manifold, rng).x
        g = inst.euclid_grad(w)
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            e = np.zeros_like(w)
            e[idx] = h
            fd[idx] = (inst.value(w + e) - inst.value(w - e)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(fd - g) / np.linalg.norm(g)))
    elapsed = time.perf_counter() - tic
    report(6, "gradient correctness", worst <= 1e-5, f"worst relative error {worst:.2e}", elapsed, 60.0)


def test_criterion_7_structural_equivalences():
    tic = time.perf_counter()
    # RGD against the normalized-gradient formula P_M(x − α·g/‖g‖_F)
    inst = make_brockett(30, 3, 90, data_seed=3)
    x = random_point(StiefelManifold(30, 3), np.random.default_rng(5))
    sched = constant_schedule(0.01)
    r_rgd = OptimizerRun(method=Rgd(), schedule=sched, x=x)
    dev_rgd = 0.0
    for _ in range(100):
        g = riemannian_grad(x, inst.euclid_grad(x.x))
        x = project(x.manifold, x.x - 0.01 * g / np.linalg.norm(g))
        step(r_rgd, inst)
        dev_rgd = max(dev_rgd, float(np.abs(r_rgd.x.x - x.x).max()))

    # spectral against Frobenius norm on the sphere
    sphere_inst = make_brockett(30, 1, 90, data_seed=3)
    y0 = random_point(StiefelManifold(30, 1), np.random.default_rng(6))
    r_spec = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=sched, x=y0)
    r_fro1 = OptimizerRun(method=Mcsd(NormKind.FROBENIUS), schedule=sched, x=y0)
    dev_sphere = 0.0
    for _ in range(100):
        step(r_spec, sphere_inst)
        step(r_fro1, sphere_inst)
        dev_sphere = max(dev_sphere, float(np.abs(r_spec.x.x - r_fro1.x.x).max()))

    elapsed = time.perf_counter() - tic
    ok = dev_rgd <= 1e-12 and dev_sphere <= 1e-12
    report(
        7, "structural equivalences", ok,
        f"rgd deviation {dev_rgd:.2e}, sphere deviation {dev_sphere:.2e}", elapsed, 60.0,
    )


def test_criterion_8_muon_direction_quality(pca_instance):
    tic = time.perf_counter()
    inst = pca_instance
    manifold = StiefelManifold(200, 5)
    rng = np.random.default_rng(42)
    worst_gap = -math.inf
    worst_tangency = 0.0
    worst_spectral = 0.0
    fallbacks = 0
    for _ in range(50):
        x = random_point(manifold, rng)
        g = riemannian_grad(x, inst.euclid_grad(x.x))
        res = manifold_muon_direction(x, g, inner_iters=10, inner_lr=0.1)
        d = res.direction
        fallbacks += res.fallback
        g_fro = float(np.linalg.norm(g))
        target = -(g_fro**2) / np.linalg.norm(g, 2)
        worst_gap = max(worst_gap, (frob_inner(g, d) - target) / g_fro)
        worst_tangency = max(worst_tangency, float(np.linalg.norm(x.x.T @ d + d.T @ x.x)))
        worst_spectral = max(worst_spectral, np.linalg.norm(d, 2) - 1.0)
    elapsed = time.perf_counter() - tic
    ok = worst_gap <= 1e-3 and worst_tangency <= 1e-8 and worst_spectral <= 1e-8 and fallbacks == 0
    detail = (
        f"worst gap {worst_gap:.2e} (tol 1e-3), tangency {worst_tangency:.2e}, "
        f"spectral excess {worst_spectral:.2e}, fallbacks {fallbacks}"
    )
    report(8, "muon direction quality", ok, detail, elapsed, 120.0)


def test_criterion_9_lmo_brute_force():
    tic = time.perf_counter()
    result = brute_force_lmo_check(
        NormKind.SPECTRAL, (2, 2), net_size=10**6, rng=np.random.default_rng(77), inputs=20
    )
    elapsed = time.perf_counter() - tic
    report(9, "lmo brute force", result.passed, result.detail, elapsed, 120.0)


def test_criterion_10_spel_beats_the_rgd_sweep_winner(tmp_path):
    # criterion 2 compares SPEL with the stock RGD step, set by hand; here RGD
    # gets the best constant step of a sweep on the same instance and start
    tic = time.perf_counter()
    cfg = default_pca_config(tmp_path / "pca")
    sweep = run_rgd_sweep(replace(cfg, output_dir=tmp_path / "sweep"), [0.1, 0.03, 0.01, 0.001, 0.0001])
    spel_only = replace(cfg, methods=tuple(spec for spec in cfg.methods if spec.label == "spel"))
    spel = run_pca_bench(spel_only)["methods"]["spel"]
    elapsed = time.perf_counter() - tic

    winner = sweep["winner"]
    best_rgd = sweep["final_subspace_error"][f"{winner:g}"]
    med_spel = statistics.median(spel["final_subspace_error"])
    ok = med_spel < best_rgd and len(spel["final_subspace_error"]) == cfg.repeats and not sweep["aborted"]
    detail = f"final spel {med_spel:.2e} vs rgd {best_rgd:.2e} at the sweep's step {winner:g}"
    report(10, "spel against the rgd sweep", ok, detail, elapsed, 300.0)
