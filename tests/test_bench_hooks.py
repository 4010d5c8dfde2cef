"""What the benchmark in perfbench/ relies on, and the layout the bench
commands write.

perfbench/ measures the library from outside, without hooks in it: it wraps
the functions that perfbench/spans.py names by module and function, names
each step span after the run's method class, and swaps `bench.run_trace` and
`bench.run_verify` to read the step-loop times. These tests fail when a
change moves one of those names, and pin each command's file names and
summary.json key order.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from mcsd import NoiseConfig, NormKind, bench, cli, optimizers
from mcsd.optimizers import ManifoldMuon, Mcsd, OptimizerRun, Rgd, StochasticMcsd, constant_schedule, run_trace
from mcsd.trace import TraceRecord
from tests.conftest import haar
from tests.test_bench_cli import tiny_config

ROOT = Path(__file__).resolve().parents[1]

# The keys both bench commands write, in order, before each command's own.
SUMMARY_KEYS = [
    "instance", "steps", "repeats", "polar_mode", "init_seed", "init_hashes",
    "initial_subspace_error", "methods", "aborted", "max_violation",
]
STATS_KEYS = [
    "schedule", "final_subspace_error", "mean_final_subspace_error", "median_final_subspace_error",
    "step_wall_s", "mean_step_wall_s", "median_step_wall_s", "aborted", "abort_messages", "fallback_count",
]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestTracedNames:
    def test_spans_and_counters_resolve(self, spans):
        named = [(mod, fn) for mod, fn, _ in spans.SPANS] + list(spans.COUNTED) + [("optimizers", "step")]
        for mod, fn in named:
            assert callable(getattr(importlib.import_module(f"mcsd.{mod}"), fn, None)), f"mcsd.{mod}.{fn}"
        cls = importlib.import_module("mcsd.objectives").BrockettInstance
        for attr, _ in spans.METHOD_SPANS:
            assert callable(cls.__dict__[attr])

    def test_step_namer(self, spans):
        name_of = spans._step_namer()
        noise = NoiseConfig.additive_gaussian(0.0)
        expected = {
            "rgd": Rgd(),
            "spel": Mcsd(NormKind.SPECTRAL),
            "smcsd": StochasticMcsd(NormKind.SPECTRAL, beta=0.5, noise=noise),
            "mm": ManifoldMuon(),
        }
        for label, method in expected.items():
            run = OptimizerRun(method=method, schedule=constant_schedule(0.1), x=haar(6, 2))
            assert name_of((run, None)) == f"optimizers.step.{label}"


class TestModuleGlobals:
    def test_run_trace_steps_through_the_module_global(self, monkeypatch, small_instance):
        calls = spy(monkeypatch, optimizers, "step")
        run = OptimizerRun(method=ManifoldMuon(), schedule=constant_schedule(0.05), x=haar(50, 3, seed=1))
        run_trace(run, small_instance, 4)
        assert len(calls) == 4

    def test_pca_bench_traces_each_run_through_bench(self, monkeypatch, tmp_path):
        seen = []
        original = bench.run_trace

        def wrapper(run, *args, **kwargs):
            seen.append((run.method, bench.matrix_hash(run.x.x)))
            return original(run, *args, **kwargs)

        monkeypatch.setattr(bench, "run_trace", wrapper)
        path = tiny_config(tmp_path, steps=2, repeats=2)
        cfg = bench.load_config(path)
        assert cli.main(["pca-bench", str(path)]) == cli.EXIT_OK
        # one call per (method, repeat): each method from each repeat's initial point
        assert len(seen) == len(set(seen)) == len(cfg.methods) * cfg.repeats
        assert {method for method, _ in seen} == {spec.method for spec in cfg.methods}
        assert len({x0 for _, x0 in seen}) == cfg.repeats

    def test_each_repeat_shares_one_read_only_initial_point(self, monkeypatch, tmp_path):
        points, starts = [], []
        original_points, original_trace = bench.initial_points, bench.run_trace

        def initial_points(*args):
            points.extend(original_points(*args))
            return points

        def traced(run, *args, **kwargs):
            starts.append(run.x)
            return original_trace(run, *args, **kwargs)

        monkeypatch.setattr(bench, "initial_points", initial_points)
        monkeypatch.setattr(bench, "run_trace", traced)
        cfg = bench.load_config(tiny_config(tmp_path, steps=2, repeats=2))
        results = bench.execute_runs(cfg)
        # (repeat, method) order: run i starts from its repeat's point object itself
        assert len(points) == cfg.repeats and len(starts) == len(cfg.methods) * cfg.repeats
        assert all(x0 is points[i // len(cfg.methods)] for i, x0 in enumerate(starts))
        assert not any(x0.x.flags.writeable for x0 in points)
        # the results come back in (method, repeat) order
        assert [(r.label, r.repeat) for r in results] == [(s.label, k) for s in cfg.methods for k in range(cfg.repeats)]
        assert [r.init_hash for r in results] == [bench.matrix_hash(points[r.repeat].x) for r in results]

    def test_verify_goes_through_bench(self, monkeypatch, capsys):
        verify_calls = spy(monkeypatch, bench, "run_verify")
        trace_calls = spy(monkeypatch, bench, "run_trace")
        assert cli.main(["verify", "--level", "fast"]) == cli.EXIT_OK
        assert len(verify_calls) == 1 and trace_calls


class TestTracedCommands:
    """Each command run under perfbench's tracing: every `run_trace` return is
    one run's flat list of records, as the span hook that reads
    `records[-1].elapsed_s` needs, and the step spans cover the program's own
    step-loop time to within perfbench's tolerance."""

    # perfbench/run.py's STEP_AGREEMENT_TOL; importing run.py would set BLAS variables
    STEP_AGREEMENT_TOL = 0.1

    @pytest.mark.parametrize("command", ["pca-bench", "verify"])
    def test_returns_are_flat_and_step_spans_agree(self, spans, tmp_path, command):
        if command == "pca-bench":
            argv = ["pca-bench", str(tiny_config(tmp_path, steps=4)), "--output-dir", str(tmp_path / "out")]
        else:
            argv = ["verify", "--level", "full"]
        rec, returns = spans.Recorder(), []
        # the spy wraps the traced run_trace and is removed before the tracing is
        with spans.Instrumented(rec), pytest.MonkeyPatch.context() as mp:
            traced = bench.run_trace
            mp.setattr(bench, "run_trace", lambda *args, **kw: returns.append(traced(*args, **kw)) or returns[-1])
            assert cli.main(argv) == cli.EXIT_OK
        assert returns and all(isinstance(r, TraceRecord) for records in returns for r in records)
        agreement = spans.layer_metrics(rec)["optimizers.step_wall_agreement"]
        assert abs(agreement - 1.0) <= self.STEP_AGREEMENT_TOL


class TestCommandLayout:
    """File names and summary.json key order of each command on the tiny config."""

    def run(self, tmp_path, *argv):
        out = tmp_path / argv[0]
        code = cli.main([argv[0], str(tiny_config(tmp_path)), *argv[1:], "--output-dir", str(out)])
        assert code == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        for stats in summary["methods"].values():
            assert list(stats) == STATS_KEYS
        return sorted(p.name for p in out.iterdir()), list(summary)

    def test_pca_bench(self, tmp_path):
        files, keys = self.run(tmp_path, "pca-bench")
        runs = [f"{label}_{k}.csv" for label in ("mm", "rgd", "spel") for k in (0, 1)]
        assert files == runs + ["subspace_error.svg", "summary.json", "summary.txt"]
        assert keys == SUMMARY_KEYS

    def test_rgd_sweep(self, tmp_path):
        files, keys = self.run(tmp_path, "rgd-sweep", "--steps", "0.01", "0.001")
        assert files == ["rgd_0.001_0.csv", "rgd_0.01_0.csv", "rgd_sweep.svg", "summary.json", "summary.txt"]
        assert keys == SUMMARY_KEYS + ["step_sizes", "final_subspace_error", "winner", "note"]
        # summary.txt: the shared lines, then the sweep's winner and note
        lines = (tmp_path / "rgd-sweep" / "summary.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in lines[-3:-1]] == ["max_violation", "winner"]
        assert lines[-1] == "the stock RGD step 1e-3 is set by hand and is not this sweep's pick"
