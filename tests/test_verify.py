import math
import re
import tracemalloc

import numpy as np
import pytest

from mcsd import (
    ConfigurationError,
    FeasibilityError,
    NoiseConfig,
    NormKind,
    StiefelManifold,
    audit_deterministic_bound,
    audit_per_step_descent,
    brute_force_lmo_check,
    check_descent_lemma,
    check_min_grad_rate,
    dual_norm,
    frob_inner,
    gap_with_headroom,
    msign_exact,
    norm_equiv_constant,
    random_point,
    riemannian_grad,
    smoothness_constants,
)
from mcsd.optimizers import (
    STEP_RADIUS,
    Mcsd,
    OptimizerRun,
    StochasticMcsd,
    constant_schedule,
    deterministic_bound_schedule,
    run_trace,
    stochastic_bound_schedule,
)
from mcsd.trace import TraceRecord
from mcsd.verify import DESCENT_CHUNK, LMO_NET_TOL, NET_CHUNK


@pytest.fixture(scope="module")
def bound_run(small_instance):
    """A deterministic spectral run under the bound-matching step, T=100."""
    manifold = StiefelManifold(50, 3)
    x0 = random_point(manifold, np.random.default_rng(50))
    consts = smoothness_constants(small_instance)
    n_const = norm_equiv_constant(NormKind.SPECTRAL, 50, 3)
    gap = gap_with_headroom(small_instance, x0.x)
    schedule = deterministic_bound_schedule(gap, consts.composed_lipschitz, n_const, 100)
    run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=schedule, x=x0)
    records = run_trace(run, small_instance, 100)
    return records, gap, consts.composed_lipschitz, n_const, schedule


def reference_descent_lemma(inst, samples, rng, lip):
    """The descent-lemma scan one sample at a time through the public calls:
    (lhs, rhs, worst sample, x, d) at the worst margin, and the largest
    observed curvature."""
    manifold = StiefelManifold(inst.n, inst.p)
    worst, worst_margin, curvature = None, -math.inf, -math.inf
    for k in range(samples):
        x = random_point(manifold, rng)
        g = rng.standard_normal((inst.n, inst.p))
        rho = STEP_RADIUS * (1.0 - rng.uniform(0.0, 1.0))
        d = g * (rho / np.linalg.norm(g, 2))
        fx, egrad = inst.evaluate(x.x)
        lhs = inst.value(msign_exact(x.x + d))
        slope = frob_inner(riemannian_grad(x, egrad), d)
        sq = float(np.sum(d * d))
        rhs = fx + slope + 0.5 * lip * sq
        curvature = max(curvature, 2.0 * (lhs - fx - slope) / sq)
        if lhs - rhs > worst_margin:
            worst_margin = lhs - rhs
            worst = (lhs, rhs, k, x.x, d)
    return worst, curvature


def scaled_lipschitz(monkeypatch, scale):
    import dataclasses

    import mcsd.verify

    exact = mcsd.verify.smoothness_constants
    monkeypatch.setattr(
        mcsd.verify, "smoothness_constants",
        lambda inst: dataclasses.replace(exact(inst), composed_lipschitz=scale * exact(inst).composed_lipschitz),
    )


class ZeroDraw:
    """A Generator stand-in whose `zero`-th standard-normal draw is all zeros."""

    def __init__(self, seed, zero):
        self.rng = np.random.default_rng(seed)
        self.draws = 0
        self.zero = zero

    def standard_normal(self, size):
        self.draws += 1
        return np.zeros(size) if self.draws - 1 == self.zero else self.rng.standard_normal(size)

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


class TestDescentLemma:
    @pytest.mark.parametrize("seed", [100, 104])
    @pytest.mark.parametrize("samples", [DESCENT_CHUNK - 1, DESCENT_CHUNK, DESCENT_CHUNK + 1])
    # L itself passes; 0·L fails, so the report carries its witness
    @pytest.mark.parametrize("lip_scale", [1.0, 0.0])
    def test_matches_the_per_sample_reference(self, monkeypatch, small_instance, seed, samples, lip_scale):
        scaled_lipschitz(monkeypatch, lip_scale)
        lip = lip_scale * smoothness_constants(small_instance).composed_lipschitz
        report = check_descent_lemma(small_instance, samples, np.random.default_rng(seed))
        (lhs, rhs, idx, x, d), curvature = reference_descent_lemma(
            small_instance, samples, np.random.default_rng(seed), lip
        )
        assert (report.lhs, report.rhs) == (lhs, rhs)
        assert f"(sample {idx});" in report.detail
        assert f"largest observed curvature {curvature:.6g} " in report.detail
        assert report.passed == (lip_scale == 1.0)
        if not report.passed:
            assert np.array_equal(report.witness[0], x)
            assert np.array_equal(report.witness[1], d)

    def test_observed_curvature_is_at_most_L(self, small_instance):
        report = check_descent_lemma(small_instance, samples=1000, rng=np.random.default_rng(104))
        lip = smoothness_constants(small_instance).composed_lipschitz
        match = re.search(r"largest observed curvature (\S+) against L = (\S+)$", report.detail)
        assert 0.0 < float(match[1]) <= lip
        assert float(match[2]) == pytest.approx(lip, rel=1e-5)
        assert match[0] in report.human_lines()

    def test_working_set_is_a_few_chunks(self, small_instance):
        tracemalloc.start()
        try:
            check_descent_lemma(small_instance, samples=1000, rng=np.random.default_rng(104))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below the brute-force nets' peak of 1.1-1.8 MiB
        assert peak <= 2**20

    def test_infeasible_point_is_a_feasibility_error_naming_the_sample(self, monkeypatch, small_instance):
        import mcsd.verify

        exact = mcsd.verify.msign_exact
        calls = []

        def stretched(y):  # the second chunk's points, sample 3 off the manifold
            out = exact(y)
            calls.append(y)
            if len(calls) == 3:
                out[3] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(mcsd.verify, "msign_exact", stretched)
        message = f"descent-lemma sample {DESCENT_CHUNK + 3}: matrix violates the orthonormality constraint: "
        with pytest.raises(FeasibilityError, match=message):
            check_descent_lemma(small_instance, samples=2 * DESCENT_CHUNK, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("sample", [0, DESCENT_CHUNK + 2])
    def test_rank_deficient_draw_is_a_feasibility_error_naming_the_sample(self, small_instance, sample):
        # each sample draws y, then its direction: y of sample k is draw 2k;
        # sign(0) = 0 makes x = 0, with |x'x - I|_F = sqrt(3)
        message = (rf"descent-lemma sample {sample}: matrix violates the orthonormality constraint: "
                   r"\|x'x - I\|_F = 1\.732e\+00")
        with pytest.raises(FeasibilityError, match=message):
            check_descent_lemma(small_instance, samples=2 * DESCENT_CHUNK, rng=ZeroDraw(7, 2 * sample))

    def test_sampled_inequality_holds(self, small_instance):
        report = check_descent_lemma(small_instance, samples=200, rng=np.random.default_rng(0))
        assert report.passed
        assert report.witness is None

    def test_zero_direction_is_equality(self, small_instance):
        # d = 0 reduces the inequality to f(x) <= f(x)
        x = random_point(StiefelManifold(50, 3), np.random.default_rng(1))
        fx = small_instance.value(x.x)
        assert small_instance.value(msign_exact(x.x)) <= fx + 1e-9 * abs(fx)

    def test_small_gradient_step_decreases(self, small_instance):
        # moving along the normalized negative gradient must decrease f
        x = random_point(StiefelManifold(50, 3), np.random.default_rng(2))
        g = riemannian_grad(x, small_instance.euclid_grad(x.x))
        d = -0.01 * g / np.linalg.norm(g, 2)
        assert small_instance.value(msign_exact(x.x + d)) < small_instance.value(x.x)

    def test_reproducible(self, small_instance):
        a = check_descent_lemma(small_instance, samples=50, rng=np.random.default_rng(3))
        b = check_descent_lemma(small_instance, samples=50, rng=np.random.default_rng(3))
        assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_violation_reported_with_witness(self, small_instance):
        # an undersized smoothness constant must produce a failing report
        import mcsd.verify as verify_mod
        from mcsd.objectives import SmoothnessConstants

        original = verify_mod.smoothness_constants
        verify_mod.smoothness_constants = lambda inst: SmoothnessConstants(0.0, 0.0, 0.0)
        try:
            report = check_descent_lemma(small_instance, samples=100, rng=np.random.default_rng(4))
        finally:
            verify_mod.smoothness_constants = original
        assert not report.passed
        assert report.witness is not None


class TestTelescopedAudit:
    def test_bound_run_passes(self, bound_run):
        records, gap, lip, n_const, schedule = bound_run
        report = audit_deterministic_bound(records, lip, n_const)
        assert report.passed
        assert report.slack == 1e-6 * 100

    @pytest.mark.parametrize("audit", [audit_deterministic_bound, audit_per_step_descent])
    def test_empty_horizon(self, small_instance, audit):
        # a one-record trace holds no step, so there is nothing to certify
        x = random_point(StiefelManifold(50, 3), np.random.default_rng(5))
        rec = TraceRecord(0, small_instance.value(x.x), 0.0, 0.0, 1.0, 0.0, 0, 0.0)
        with pytest.raises(ConfigurationError, match="holds no step"):
            audit([rec], 1.0, 1.0)

    def test_single_step_reduces_to_per_step_check(self, small_instance):
        manifold = StiefelManifold(50, 3)
        x0 = random_point(manifold, np.random.default_rng(6))
        consts = smoothness_constants(small_instance)
        n_const = norm_equiv_constant(NormKind.SPECTRAL, 50, 3)
        run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=constant_schedule(0.01), x=x0)
        records = run_trace(run, small_instance, 1)
        tele = audit_deterministic_bound(records, consts.composed_lipschitz, n_const)
        per = audit_per_step_descent(records, consts.composed_lipschitz, n_const)
        assert tele.passed and per.passed
        # both views of the one-step run state the same inequality
        assert abs((tele.rhs - tele.lhs) - (per.rhs - per.lhs)) < 1e-9

    def test_corrupted_trace_fails_loudly(self, bound_run):
        records, gap, lip, n_const, schedule = bound_run
        corrupted = [TraceRecord(**vars(r)) for r in records]
        corrupted[3].grad_dual_norm = float("nan")
        with pytest.raises(ConfigurationError):
            audit_deterministic_bound(corrupted, lip, n_const)

    def test_tampered_objective_detected(self, bound_run):
        records, gap, lip, n_const, schedule = bound_run
        tampered = [TraceRecord(**vars(r)) for r in records]
        for r in tampered[:100]:
            r.grad_dual_norm *= 50.0  # inflate the claimed descent mass
        report = audit_deterministic_bound(tampered, lip, n_const)
        assert not report.passed

    def test_per_step_descent_passes(self, bound_run):
        records, gap, lip, n_const, schedule = bound_run
        assert audit_per_step_descent(records, lip, n_const).passed


class TestMinGradRate:
    def test_one_gradient_input_scan_per_stochastic_iterate(self, monkeypatch, small_instance):
        import mcsd.bench
        import mcsd.objectives

        names = []
        scan = mcsd.objectives.as_matrix
        # counts only the calls that scan: finite=False validates the shape alone
        monkeypatch.setattr(mcsd.objectives, "as_matrix",
                            lambda a, name, finite=True: names.extend([name] * finite) or scan(a, name, finite))
        lip = smoothness_constants(small_instance).composed_lipschitz
        norm_equiv = norm_equiv_constant(NormKind.SPECTRAL, 50, 3)
        report = mcsd.bench._stochastic_rate_report(small_instance, StiefelManifold(50, 3), lip, norm_equiv)
        assert report.passed
        # the 20 seeds step in lockstep: each of the 401 records evaluates the
        # objective once over the stack of iterates; the sampled gradients
        # certify x through their own norm
        assert names.count("gradient input") == 401

    def test_deterministic_rate(self, bound_run):
        records, gap, lip, n_const, schedule = bound_run
        report = check_min_grad_rate([records], gap, lip, n_const, schedule)
        assert report.passed
        assert report.rhs == pytest.approx(math.sqrt(2 * gap * lip * n_const**2 / 100))

    def test_gap_inflation_keeps_passing(self, bound_run):
        # the bound is monotone in the gap, so headroom cannot break it
        records, gap, lip, n_const, schedule = bound_run
        report = check_min_grad_rate([records], 10 * gap, lip, n_const, schedule)
        assert report.passed

    def test_schedule_mismatch_rejected(self, bound_run):
        records, gap, lip, n_const, schedule = bound_run
        with pytest.raises(ConfigurationError):
            check_min_grad_rate([records], gap, lip, n_const, constant_schedule(0.01))

    def test_horizon_mismatch_rejected(self, bound_run):
        records, gap, lip, n_const, schedule = bound_run
        with pytest.raises(ConfigurationError):
            check_min_grad_rate([records[:50]], gap, lip, n_const, schedule)

    def test_stochastic_needs_twenty_seeds(self, bound_run):
        records, gap, lip, n_const, _ = bound_run
        sched = stochastic_bound_schedule(gap, lip, n_const, 100)
        with pytest.raises(ConfigurationError):
            check_min_grad_rate([records] * 5, gap, lip, n_const, sched)

    def test_stochastic_minima_are_each_seeds_first(self):
        # duals drawn from five values, so most seeds hold equal minima: the
        # detail names the first, as min over t with the dual as key does
        horizon = 12
        sched = stochastic_bound_schedule(1.0, 10.0, 1.0, horizon)
        rng = np.random.default_rng(5)
        duals = rng.choice([0.5, 0.25, 1.0, 2.0, 0.125], size=(20, horizon + 1)).tolist()
        traces = [[TraceRecord(t, 0.0, 0.0, 0.0, dual, 0.1, 0, 0.0) for t, dual in enumerate(row)] for row in duals]
        report = check_min_grad_rate(traces, 1.0, 10.0, 1.0, sched)
        argmins = [min(range(horizon), key=lambda t: row[t]) for row in duals]
        minima = np.array([row[t] for row, t in zip(duals, argmins)])
        assert any(row[:horizon].count(min(row[:horizon])) > 1 for row in duals)
        assert (report.lhs, report.slack) == (float(minima.mean()), 3.0 * float(minima.std(ddof=1)) / math.sqrt(20))
        assert report.detail == (
            f"20 seeds, per-seed minima in [{minima.min():.4g}, {minima.max():.4g}], "
            f"attained at t = {', '.join(map(str, argmins))}"
        )

    def test_noiseless_runs_satisfy_both_bounds(self, small_instance):
        # a sigma = 0 stochastic run obeys its rate bound, and the
        # deterministic prescription at the same horizon is tighter
        manifold = StiefelManifold(50, 3)
        x0 = random_point(manifold, np.random.default_rng(7))
        consts = smoothness_constants(small_instance)
        lip = consts.composed_lipschitz
        n_const = norm_equiv_constant(NormKind.SPECTRAL, 50, 3)
        gap = gap_with_headroom(small_instance, x0.x)
        horizon = 64

        sto_sched = stochastic_bound_schedule(gap, lip, n_const, horizon)
        noise = NoiseConfig.additive_gaussian(0.0)
        method = StochasticMcsd(NormKind.SPECTRAL, beta=sto_sched.momentum_beta, noise=noise)
        traces = []
        for seed in range(20):
            run = OptimizerRun(
                method=method, schedule=sto_sched, x=x0, rng=np.random.default_rng(seed)
            )
            traces.append(run_trace(run, small_instance, horizon))
        sto_report = check_min_grad_rate(traces, gap, lip, n_const, sto_sched, sigma=0.0)
        assert sto_report.passed

        det_sched = deterministic_bound_schedule(gap, lip, n_const, horizon)
        det_run = OptimizerRun(method=Mcsd(NormKind.SPECTRAL), schedule=det_sched, x=x0)
        det_records = run_trace(det_run, small_instance, horizon)
        det_report = check_min_grad_rate([det_records], gap, lip, n_const, det_sched)
        assert det_report.passed
        assert det_report.rhs < sto_report.rhs  # noiseless bound is tighter


# The two nets run_verify checks, with their seeds.
RUN_VERIFY_NETS = [(NormKind.SPECTRAL, (2, 2), 101), (NormKind.FROBENIUS, (3, 2), 102)]
NET_SHAPES = [(norm, dims) for norm, dims, _ in RUN_VERIFY_NETS]
NET_IDS = ["spectral-2x2", "frobenius-3x2"]
# Every normalization path: the 2x2 closed form, row norms and the batched SVD.
ALL_NET_SHAPES = NET_SHAPES + [(NormKind.SPECTRAL, (3, 3))]
ALL_NET_IDS = NET_IDS + ["spectral-3x3"]


class CountingGenerator:
    """A Generator stand-in that counts the standard normals it hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.normals = 0

    def standard_normal(self, size):
        self.normals += math.prod(size)
        return self.rng.standard_normal(size)


class TestBruteForceLmo:
    def test_one_by_one_closed_form(self):
        from mcsd import frob_inner, lmo

        s = np.array([[-2.5]])
        for norm in (NormKind.FROBENIUS, NormKind.SPECTRAL):
            d = lmo(norm, s)
            assert np.allclose(d, [[1.0]])
            assert frob_inner(s, d) == pytest.approx(-2.5)

    def test_spectral_2x2_net(self):
        report = brute_force_lmo_check(
            NormKind.SPECTRAL, (2, 2), net_size=10**5, rng=np.random.default_rng(8), inputs=5
        )
        assert report.passed

    def test_frobenius_net_any_dims(self):
        report = brute_force_lmo_check(
            NormKind.FROBENIUS, (3, 2), net_size=10**5, rng=np.random.default_rng(9), inputs=5
        )
        assert report.passed

    def test_spectral_net_beyond_2x2(self):
        # a spectral net of any shape but 2x2 takes its norms from a batched SVD
        report = brute_force_lmo_check(
            NormKind.SPECTRAL, (3, 2), net_size=10**5, rng=np.random.default_rng(12), inputs=2
        )
        assert report.passed

    def test_spectral_net_beyond_2x2_catches_a_shrunken_lmo(self, monkeypatch):
        import mcsd.verify

        exact = mcsd.verify.lmo
        monkeypatch.setattr(mcsd.verify, "lmo", lambda norm, s: 0.1 * exact(norm, s))
        report = brute_force_lmo_check(
            NormKind.SPECTRAL, (3, 2), net_size=10**5, rng=np.random.default_rng(12), inputs=2
        )
        assert not report.passed

    @pytest.mark.parametrize("norm, dims", NET_SHAPES, ids=NET_IDS)
    def test_one_net_per_check(self, norm, dims):
        rng = CountingGenerator(13)
        brute_force_lmo_check(norm, dims, net_size=10**5, rng=rng, inputs=5)
        assert rng.normals == (10**5 + 5) * math.prod(dims)

    @pytest.mark.parametrize("norm, dims", NET_SHAPES, ids=NET_IDS)
    def test_shared_net_scores_each_input_as_if_alone(self, norm, dims):
        import mcsd.verify

        net_size = 250_000  # a full NET_CHUNK and a partial one
        rng = np.random.default_rng(14)
        targets = [rng.standard_normal(dims) for _ in range(3)]
        minima = mcsd.verify._net_minima(norm, dims, targets, net_size, rng)

        ref = np.random.default_rng(14)
        for _ in targets:
            ref.standard_normal(dims)
        chunks = [ref.standard_normal((size,) + dims) for size in (NET_CHUNK, net_size - NET_CHUNK)]
        if norm is NormKind.FROBENIUS:
            units = [c / np.sqrt(np.sum(c * c, axis=(1, 2)))[:, None, None] for c in chunks]
        else:
            units = [c / mcsd.verify._spectral_norms_2x2(c)[:, None, None] for c in chunks]
        for k, s in enumerate(targets):
            alone = min(float(np.tensordot(u, s, axes=([1, 2], [0, 1])).min()) for u in units)
            assert minima[k] == alone

    @pytest.mark.parametrize("norm, dims", ALL_NET_SHAPES, ids=ALL_NET_IDS)
    def test_net_minima_do_not_depend_on_the_chunk_size(self, monkeypatch, norm, dims):
        import mcsd.verify

        targets = [np.random.default_rng(15).standard_normal(dims) for _ in range(3)]
        minima = []
        for chunk in (4_096, NET_CHUNK, 200_000):
            monkeypatch.setattr(mcsd.verify, "NET_CHUNK", chunk)
            # 100 003 is a multiple of none of the chunk sizes
            minima.append(mcsd.verify._net_minima(norm, dims, targets, 100_003, np.random.default_rng(16)))
        assert minima[0] == minima[1] == minima[2]

    @pytest.mark.parametrize("norm, dims", ALL_NET_SHAPES, ids=ALL_NET_IDS)
    def test_working_set_is_a_few_chunks(self, norm, dims):
        tracemalloc.start()
        try:
            brute_force_lmo_check(norm, dims, net_size=2 * 10**5, rng=np.random.default_rng(17), inputs=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("norm, dims, seed", RUN_VERIFY_NETS, ids=NET_IDS)
    @pytest.mark.parametrize(
        "oracle, passes",
        [
            (lambda exact: exact, True),
            (lambda exact: lambda norm, s: -exact(norm, s), False),
            (lambda exact: lambda norm, s: 0.1 * exact(norm, s), False),
        ],
        ids=["exact", "negated", "shrunken"],
    )
    def test_run_verify_nets_catch_a_wrong_oracle(self, monkeypatch, norm, dims, seed, oracle, passes):
        import mcsd.verify

        monkeypatch.setattr(mcsd.verify, "lmo", oracle(mcsd.verify.lmo))
        report = brute_force_lmo_check(norm, dims, net_size=2 * 10**5, rng=np.random.default_rng(seed), inputs=5)
        assert report.passed == passes

    def test_each_input_is_held_to_its_own_slack(self, monkeypatch):
        # The oracle sits at 0.99 of its slack on the input with the largest
        # ‖s‖_F and at 1.01 on the one with the smallest, which breaks the
        # bound although its raw gap is the smaller of the two.
        import mcsd.verify

        norm, dims, seed, net_size = NormKind.SPECTRAL, (2, 2), 101, 10**5
        rng = np.random.default_rng(seed)
        targets = rng.standard_normal((5, *dims))
        nets = mcsd.verify._net_minima(norm, dims, targets, net_size, rng)
        sizes = [np.linalg.norm(s) for s in targets]
        big, small = int(np.argmax(sizes)), int(np.argmin(sizes))
        want = {big: 0.99 * LMO_NET_TOL * sizes[big], small: 1.01 * LMO_NET_TOL * sizes[small]}
        assert want[big] > want[small]

        exact = mcsd.verify.lmo

        def stub(norm, s):  # the check takes the LMO of its stack of inputs in one call
            assert np.array_equal(s, targets)
            d = exact(norm, s)
            for k, gap in want.items():
                d[k] *= -(gap + nets[k]) / dual_norm(norm, s[k])
            return d

        monkeypatch.setattr(mcsd.verify, "lmo", stub)
        report = brute_force_lmo_check(norm, dims, net_size=net_size, rng=np.random.default_rng(seed), inputs=5)
        assert not report.passed
        assert f"worst input {small}:" in report.detail

    def test_a_nan_oracle_value_fails(self, monkeypatch):
        import mcsd.verify

        monkeypatch.setattr(mcsd.verify, "lmo", lambda norm, s: np.full(s.shape, np.nan))
        report = brute_force_lmo_check(
            NormKind.SPECTRAL, (2, 2), net_size=10**5, rng=np.random.default_rng(8), inputs=3
        )
        assert not report.passed
        assert "worst input 0:" in report.detail

    def test_dims_capped(self):
        with pytest.raises(ConfigurationError):
            brute_force_lmo_check(NormKind.SPECTRAL, (4, 4), net_size=10**5, rng=np.random.default_rng(0))

    def test_net_size_floor(self):
        with pytest.raises(ConfigurationError):
            brute_force_lmo_check(NormKind.SPECTRAL, (2, 2), net_size=10, rng=np.random.default_rng(0))

    def test_no_inputs_rejected_before_the_net_is_drawn(self):
        rng = CountingGenerator(0)
        with pytest.raises(ConfigurationError, match="at least one input"):
            brute_force_lmo_check(NormKind.SPECTRAL, (2, 2), net_size=10**5, rng=rng, inputs=0)
        assert rng.normals == 0


class TestBoundReportShape:
    def test_machine_line_format(self, small_instance):
        report = check_descent_lemma(small_instance, samples=10, rng=np.random.default_rng(10))
        fields = report.machine_line().split(",")
        assert fields[0] == "descent_lemma"
        assert fields[4] in ("true", "false")
        float(fields[1]), float(fields[2]), float(fields[3])

    def test_passed_consistent_with_fields(self, small_instance):
        report = check_descent_lemma(small_instance, samples=10, rng=np.random.default_rng(11))
        assert report.passed == (report.lhs <= report.rhs + report.slack)
