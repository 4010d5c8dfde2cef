import itertools
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcsd import (
    BoundReport,
    BrockettInstance,
    ConfigurationError,
    NormKind,
    NumericError,
    PolarMode,
    bench,
    read_trace_csv,
)
from mcsd.bench import (
    MAX_DATA_ENTRIES,
    MAX_INNER_ITERS,
    default_pca_config,
    load_config,
    run_pca_bench,
    run_rgd_sweep,
    run_verify,
)
from mcsd.cli import EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR, EXIT_NUMERIC_ERROR, EXIT_OK, main
from mcsd.optimizers import ManifoldMuon, Mcsd, Rgd, StochasticMcsd
from tests.conftest import patch_lapack

TINY_INI = """
[instance]
n = 20
p = 2
d = 50
data_seed = 3

[run]
steps = {steps}
init_seed = 5
repeats = {repeats}
polar_mode = {polar_mode}
output_dir = {output_dir}

[method:rgd]
kind = rgd
schedule = constant:0.001

[method:spel]
kind = mcsd
norm = spectral
schedule = periodic_decay:0.1,0.5,30

[method:mm]
kind = manifold_muon
inner_iters = 10
inner_lr = 0.1
schedule = periodic_decay:0.1,0.5,30
"""


def tiny_config(tmp_path, steps=5, repeats=2, polar_mode="iterative:8", name="bench.ini"):
    path = tmp_path / name
    path.write_text(
        TINY_INI.format(steps=steps, repeats=repeats, polar_mode=polar_mode, output_dir=tmp_path / "out")
    )
    return path


def strip_elapsed(csv_path):
    """CSV content without the wall-clock column (the only nondeterministic one)."""
    lines = csv_path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        assert (cfg.n, cfg.p, cfg.d, cfg.data_seed) == (20, 2, 50, 3)
        assert cfg.steps == 5 and cfg.repeats == 2
        assert cfg.polar_mode == PolarMode(iters=8)
        labels = [m.label for m in cfg.methods]
        assert labels == ["rgd", "spel", "mm"]
        assert isinstance(cfg.methods[0].method, Rgd)
        assert isinstance(cfg.methods[1].method, Mcsd)
        assert cfg.methods[1].method.norm is NormKind.SPECTRAL
        assert isinstance(cfg.methods[2].method, ManifoldMuon)

    def test_stochastic_method_section(self, tmp_path):
        path = tmp_path / "sto.ini"
        path.write_text(
            "[instance]\nn = 10\np = 2\nd = 30\n\n[run]\nsteps = 3\n"
            "[method:smcsd]\nkind = stochastic_mcsd\nnorm = spectral\nbeta = 0.8\n"
            "noise = gaussian:0.05\nschedule = constant:0.01\n"
        )
        cfg = load_config(path)
        method = cfg.methods[0].method
        assert isinstance(method, StochasticMcsd)
        assert method.beta == 0.8 and method.noise.sigma_entry == 0.05

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.ini")

    def test_no_methods_rejected(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[instance]\nn = 10\np = 2\nd = 30\n\n[run]\nsteps = 3\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_bad_schedule_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[instance]\nn = 10\np = 2\nd = 30\n\n[run]\nsteps = 3\n"
            "[method:x]\nkind = rgd\nschedule = warp:9\n"
        )
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("text, iters", [("exact", None), ("iterative", 8), ("iterative:3", 3)])
    def test_polar_mode_spellings(self, tmp_path, text, iters):
        assert load_config(tiny_config(tmp_path, polar_mode=text)).polar_mode == PolarMode(iters=iters)

    @pytest.mark.parametrize(
        "polar_mode, schedule",
        [
            ("iterativefoo", "constant:0.001"),
            ("iterative:8:3", "constant:0.001"),
            ("iterative:8", "constant:0.1,5"),
            ("iterative:8", "periodic_decay:0.1,0.5,30,7"),
        ],
    )
    def test_extra_fields_rejected(self, tmp_path, capsys, polar_mode, schedule):
        path = tiny_config(tmp_path, polar_mode=polar_mode)
        path.write_text(path.read_text().replace("schedule = constant:0.001", f"schedule = {schedule}"))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize(
        "polar_mode, schedule",
        [
            ("exact:8", "constant:0.001"),
            ("iterative:", "constant:0.001"),
            ("iterative:x", "constant:0.001"),
            ("iterative:8", "constant:0.1,"),
            ("iterative:8", "constant:,0.1"),
            ("iterative:8", "periodic_decay:0.1,,0.5,30"),
            ("iterative:8", "periodic_decay:0.1,0.5"),
        ],
    )
    def test_empty_or_missing_fields_rejected(self, tmp_path, capsys, polar_mode, schedule):
        # an empty field counts as a field: it is not dropped to make the count fit
        path = tiny_config(tmp_path, polar_mode=polar_mode)
        path.write_text(path.read_text().replace("schedule = constant:0.001", f"schedule = {schedule}"))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("key", ["n", "p", "d"])
    def test_missing_instance_key_rejected(self, tmp_path, capsys, key):
        path = tiny_config(tmp_path)
        text = path.read_text()
        path.write_text(text.replace(f"\n{key} = ", f"\n# {key} = ", 1))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert f"[instance] has no key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("instance", "data_seed"), ("run", "init_seed")])
    def test_negative_seed_rejected(self, tmp_path, capsys, section, key):
        path = tiny_config(tmp_path)
        text = path.read_text()
        path.write_text(text.replace(f"\n{key} = ", f"\n{key} = -1\n# ", 1))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert f"[{section}] {key} = '-1': must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("p = 2", "p = 0", "[instance] p = '0': must be at least 1"),
            ("repeats = 2", "repeats = 0", "[run] repeats = '0': must be at least 1"),
            ("p = 2", "p = 21", "[instance] p = '21': exceeds n = 20"),
            ("d = 50", "d = 19", "[instance] n = '20': exceeds d = 19"),
        ],
        ids=["p_zero", "repeats_zero", "p_above_n", "n_above_d"],
    )
    def test_out_of_range_value_named(self, tmp_path, capsys, old, new, message):
        # range checks belong to the reader: outside it they name no section
        path = tiny_config(tmp_path)
        path.write_text(path.read_text().replace(old, new, 1))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("kind = manifold_muon\ninner_iters = 0", "inner_iters = '0': must be at least 1"),
            ("kind = stochastic_mcsd\nbeta = 1.5", "beta = '1.5': must lie in [0, 1), got 1.5"),
        ],
        ids=["inner_iters", "beta"],
    )
    def test_method_class_check_quotes_the_key(self, tmp_path, capsys, body, message):
        path = tiny_config(tmp_path)
        path.write_text(path.read_text() + f"\n[method:x]\n{body}\nschedule = constant:0.01\n")
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"configuration error: [method:x] {message}\n"

    @pytest.mark.parametrize(
        "old, new, section, key",
        [
            ("inner_iters = 10", "inner_iters = {count}", "method:mm", "inner_iters"),
            ("polar_mode = iterative:8", "polar_mode = iterative:{count}", "run", "polar_mode"),
        ],
        ids=["inner_iters", "polar_mode"],
    )
    def test_inner_iteration_count_is_capped(self, tmp_path, old, new, section, key):
        # an uncapped count of 10^20 loops for hours in the first step
        path = tiny_config(tmp_path)
        text = path.read_text()
        path.write_text(text.replace(old, new.format(count=MAX_INNER_ITERS)))
        load_config(path)
        huge = 10**20
        path.write_text(text.replace(old, new.format(count=huge)))
        value = new.format(count=huge).split(" = ")[1]
        with pytest.raises(ConfigurationError, match=rf"^\[{section}\] {key} = '{value}': must be at most 10000$"):
            load_config(path)

    def test_colliding_labels_rejected(self, tmp_path):
        # "a b" and "a_b" both sanitize to a_b: one run's CSVs would overwrite
        # the other's and the summary would merge them
        path = tmp_path / "collide.ini"
        path.write_text(
            "[instance]\nn = 10\np = 2\nd = 30\n\n[run]\nsteps = 3\n"
            "[method:a b]\nkind = rgd\nschedule = constant:0.01\n"
            "[method:a_b]\nkind = rgd\nschedule = constant:0.01\n"
        )
        with pytest.raises(ConfigurationError, match=r"\[method:a b\] and \[method:a_b\]"):
            load_config(path)

    @pytest.mark.parametrize(
        "body, key, value",
        [
            ("kind = manifold_muon\ninner_lr = nan\nschedule = constant:0.01", "inner_lr", "nan"),
            ("kind = rgd\nschedule = constant:nan", "schedule", "nan"),
            ("kind = rgd\nschedule = constant:inf", "schedule", "inf"),
            ("kind = mcsd\nschedule = periodic_decay:0.1,nan,30", "schedule", "nan"),
            ("kind = stochastic_mcsd\nnoise = gaussian:nan\nschedule = constant:0.01", "noise", "nan"),
        ],
        ids=["inner_lr", "constant_nan", "constant_inf", "periodic_decay_nan", "gaussian_nan"],
    )
    def test_non_finite_method_value_rejected(self, tmp_path, capsys, body, key, value):
        # NaN passes a bare `<= 0` test: unchecked, a NaN inner_lr falls back
        # on every step, a NaN sigma runs noiseless, and a non-finite step
        # fails mid-run with an error that names no config key
        path = tiny_config(tmp_path)
        path.write_text(path.read_text() + f"\n[method:bad]\n{body}\n")
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [method:bad] ")
        assert key in err and value in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, section, key",
        [
            ("steps = 5", "steps = abc", "run", "steps"),
            ("inner_iters = 10", "inner_iters = 1.5", "method:mm", "inner_iters"),
            ("polar_mode = iterative:8", "polar_mode = iterative:x", "run", "polar_mode"),
            ("steps = 5", "step = 7", "run", "step"),
            ("inner_lr = 0.1", "inner_lrr = 0.5", "method:mm", "inner_lrr"),
            ("[method:spel]", "[methods:spel]", "methods:spel", None),
            ("[run]", "[DEFAULT]", "DEFAULT", None),
            ("data_seed = 3", "data_seed = 3\nsteps = 9", "instance", "steps"),
            ("kind = mcsd", "kind = sgd", "method:spel", "kind"),
        ],
        ids=["non_integer", "fractional_integer", "bad_polar_iters", "misspelled_run_key",
             "misspelled_method_key", "unknown_section", "default_section", "key_in_wrong_section",
             "unknown_kind"],
    )
    def test_bad_key_or_section_named(self, tmp_path, capsys, old, new, section, key):
        # unchecked, each of these runs with a default in place of the intended
        # value, or fails with a message that names no key
        path = tiny_config(tmp_path)
        path.write_text(path.read_text().replace(old, new, 1))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"[{section}]" + (f" {key} = " if key else "") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["instance", "run"])
    def test_missing_section_named(self, tmp_path, capsys, section):
        path = tiny_config(tmp_path)
        blocks = path.read_text().split("\n[")
        path.write_text("\n[".join(block for block in blocks if not block.startswith(f"{section}]")))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert f"has no [{section}] section" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("output_dir = ", "output_dir = 100%", "[run] output_dir = '100%"),
            ("n = 20", "n = 20\xff", "cannot parse"),
        ],
        ids=["interpolation", "undecodable"],
    )
    def test_unreadable_value_is_config_error(self, tmp_path, capsys, old, new, message):
        # configparser's own errors are configuration errors, not tracebacks
        path = tiny_config(tmp_path)
        path.write_bytes(path.read_text().replace(old, new, 1).encode("latin-1"))
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    def test_minibatch_larger_than_d_rejected_before_any_run(self, tmp_path, capsys):
        path = tiny_config(tmp_path)
        path.write_text(
            path.read_text()
            + "\n[method:sto]\nkind = stochastic_mcsd\nnoise = minibatch:100\nschedule = constant:0.01\n"
        )
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "[method:sto] noise = 'minibatch:100': batch_size 100 outside [1, 50]" in err
        assert not (tmp_path / "out").exists()

    def test_minibatch_of_d_runs(self, tmp_path):
        path = tiny_config(tmp_path, repeats=1)
        path.write_text(
            path.read_text()
            + "\n[method:sto]\nkind = stochastic_mcsd\nnoise = minibatch:50\nschedule = constant:0.01\n"
        )
        assert main(["pca-bench", str(path)]) == EXIT_OK

    def test_default_config_shape(self, tmp_path):
        cfg = default_pca_config(tmp_path)
        assert (cfg.n, cfg.p, cfg.d) == (200, 5, 1000)
        assert cfg.steps == 300 and cfg.repeats == 3
        assert [m.label for m in cfg.methods] == ["rgd", "spel", "mm"]


class TestShippedConfig:
    def test_default_ini_matches_built_in_default(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "configs" / "pca_default.ini"
        assert replace(load_config(path), output_dir=tmp_path) == default_pca_config(tmp_path)


class TestNumericAbort:
    """A NumericError in one run marks that run aborted; the others finish and
    every output is written."""

    @pytest.fixture
    def nan_at(self, monkeypatch):
        """Make the objective value NaN at one evaluate call; each run of 5
        steps makes 6 evaluate calls, one per iterate."""

        def install(call):
            calls = itertools.count()
            original = BrockettInstance.evaluate

            def evaluate(inst, x):
                value, g = original(inst, x)
                return (float("nan") if next(calls) == call else value), g

            monkeypatch.setattr(BrockettInstance, "evaluate", evaluate)

        return install

    @pytest.mark.parametrize(
        "argv, aborted_run",
        [
            (["pca-bench"], ("rgd", 1)),
            (["rgd-sweep", "--steps", "0.01", "0.001"], ("rgd_0.001", 0)),
        ],
    )
    def test_one_failing_run(self, tmp_path, capsys, nan_at, argv, aborted_run):
        nan_at(9)  # x_3 of the second run
        out = tmp_path / "out"
        assert main([argv[0], str(tiny_config(tmp_path)), *argv[1:]]) == EXIT_NUMERIC_ERROR
        summary = json.loads((out / "summary.json").read_text())
        runs = {
            (label, k): aborted
            for label, st in summary["methods"].items()
            for k, aborted in enumerate(st["aborted"])
        }
        assert [run for run, aborted in runs.items() if aborted] == [aborted_run]
        for label, k in runs:
            rows = read_trace_csv(out / f"{label}_{k}.csv")
            assert len(rows) == (3 if (label, k) == aborted_run else 6)
        assert (out / "summary.txt").is_file() and list(out.glob("*.svg"))
        message = "iteration 3: the objective value is not finite"
        assert message in summary["methods"][aborted_run[0]]["abort_messages"][0]
        err = capsys.readouterr().err.splitlines()
        label = aborted_run[0]
        assert [line for line in err if line.startswith("ABORT ")] == [f"ABORT method {label!r}: {message}"]

    @pytest.mark.parametrize(
        "label, kind, name, selects, nth, message",
        [
            # the direction: the shared initial point's projection and the
            # RGD run's five retractions each diagonalise one 3x3 Gram
            # matrix, then Manifold Muon eleven per iterate (its gradient's
            # spectrum, nine inner iterations and the retraction), so the
            # 41st is x_3's first inner iteration
            ("manifold_muon", "manifold_muon", "eigh", lambda a, kwargs: a.shape == (3, 3), 41,
             "iteration 3: eigendecomposition of the 3x3 Gram matrix failed: forced"),
            # the direction's clip: Manifold Muon takes ‖d‖₂ from the values
            # of one 3x3 eigendecomposition per iterate, so the 4th is x_3's
            ("mm", "manifold_muon", "eigvalsh", lambda a, kwargs: True, 4,
             "iteration 3: eigendecomposition of the 3x3 direction Gram matrix failed: forced"),
            # a record: a stochastic run's dual norm of each iterate's true
            # gradient is one values-only eigendecomposition of its 3x3 Gram
            # matrix, the run's only one, so the 5th is x_4's
            ("stochastic_mcsd", "stochastic_mcsd", "eigvalsh", lambda a, kwargs: True, 5,
             "iteration 4: eigendecomposition of the 3x3 Gram matrix of the dual-norm input failed: forced"),
        ],
        ids=["direction", "clip", "record"],
    )
    def test_lapack_failure_names_the_iteration(self, tmp_path, capsys, monkeypatch, label, kind, name, selects, nth,
                                                message):
        # the RGD run, which runs first, makes none of the failing calls, so it must finish and write its CSV
        calls = itertools.count(1)

        def wrap(original):
            def call(a, **kwargs):
                if selects(a, kwargs) and next(calls) == nth:
                    raise np.linalg.LinAlgError("forced")
                return original(a, **kwargs)

            return call

        patch_lapack(monkeypatch, name, wrap)
        path = tmp_path / f"{kind}.ini"
        path.write_text(
            f"[instance]\nn = 20\np = 3\nd = 40\n\n[run]\nsteps = 5\nrepeats = 1\noutput_dir = {tmp_path}\n\n"
            f"[method:rgd]\nkind = rgd\nschedule = constant:0.1\n\n"
            f"[method:{label}]\nkind = {kind}\nschedule = constant:0.1\n"
        )
        assert main(["pca-bench", str(path)]) == EXIT_NUMERIC_ERROR
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("ABORT ")] == [f"ABORT method {label!r}: {message}"]
        assert len(read_trace_csv(tmp_path / "rgd_0.csv")) == 6
        assert (tmp_path / f"{label}_0.csv").is_file()

    @pytest.mark.filterwarnings("error")  # as under python -W error: numpy's overflow warning would raise
    @pytest.mark.parametrize("polar_mode", ["exact", "iterative:8"])
    def test_diverging_dual_ascent_is_named(self, tmp_path, capsys, polar_mode):
        # inner_lr = 1e300 overflows Manifold Muon's multiplier at its first ascent
        path = tmp_path / "mm.ini"
        path.write_text(
            f"[instance]\nn = 20\np = 3\nd = 40\n\n[run]\nsteps = 3\nrepeats = 1\npolar_mode = {polar_mode}\n"
            f"output_dir = {tmp_path}\n\n[method:rgd]\nkind = rgd\nschedule = constant:0.1\n\n"
            f"[method:mm]\nkind = manifold_muon\ninner_lr = 1e300\nschedule = constant:0.1\n"
        )
        assert main(["pca-bench", str(path)]) == EXIT_NUMERIC_ERROR
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("ABORT ")] == [
            "ABORT method 'mm': iteration 0: Manifold Muon's dual ascent diverged at inner iteration #1: "
            "the multiplier or a matrix formed from it is not finite"
        ]
        assert len(read_trace_csv(tmp_path / "rgd_0.csv")) == 4

    @pytest.mark.filterwarnings("error")  # as under python -W error: numpy's overflow warning would raise
    def test_gaussian_noise_overflow_names_the_noise(self, tmp_path, capsys):
        # σ = 1e308 takes σ·z past the float range wherever |z| > 1.8: a
        # numeric error of the run (it depends on the draws), named by its noise
        path = tmp_path / "sto.ini"
        path.write_text(
            f"[instance]\nn = 20\np = 3\nd = 40\n\n[run]\nsteps = 5\nrepeats = 1\noutput_dir = {tmp_path}\n\n"
            f"[method:sto]\nkind = stochastic_mcsd\nnoise = gaussian:1e308\nschedule = constant:0.1\n"
        )
        assert main(["pca-bench", str(path)]) == EXIT_NUMERIC_ERROR
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("ABORT ")] == [
            "ABORT method 'sto': iteration 0: the stochastic gradient under noise gaussian:1e+308 "
            "has non-finite entries"
        ]
        assert read_trace_csv(tmp_path / "sto_0.csv")[0].iter == 0

    @pytest.mark.parametrize(
        "argv, n",
        [(["verify", "--level", "fast"], 50), (["pca-bench", "CONFIG"], 20)],
        ids=["verify", "pca-bench"],
    )
    def test_lapack_failure_building_the_instance_exits_3(self, tmp_path, capsys, monkeypatch, argv, n):
        # make_brockett's data Gram matrix is the only n×n matrix factored
        def wrap(original):
            def eigh(a):
                if a.shape == (n, n):
                    raise np.linalg.LinAlgError("forced")
                return original(a)

            return eigh

        patch_lapack(monkeypatch, "eigh", wrap)
        argv = [str(tiny_config(tmp_path)) if arg == "CONFIG" else arg for arg in argv]
        assert main(argv) == EXIT_NUMERIC_ERROR
        message = f"numeric error: eigendecomposition of the {n}x{n} data Gram matrix failed: forced"
        assert capsys.readouterr().err.splitlines() == [message]

    def test_abort_at_the_initial_point(self, tmp_path, nan_at):
        nan_at(0)  # x_0 of the first run: its trace is empty
        assert main(["pca-bench", str(tiny_config(tmp_path))]) == EXIT_NUMERIC_ERROR
        out = tmp_path / "out"
        assert read_trace_csv(out / "rgd_0.csv") == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["methods"]["rgd"]["aborted"] == [True, False]
        assert summary["initial_subspace_error"] is not None


class TestPcaBench:
    def test_outputs_and_summary(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        summary = run_pca_bench(cfg)
        out = cfg.output_dir
        for label in ("rgd", "spel", "mm"):
            for repeat in range(2):
                records = read_trace_csv(out / f"{label}_{repeat}.csv")
                assert len(records) == cfg.steps + 1
        assert (out / "summary.json").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "subspace_error.svg").is_file()
        assert not summary["aborted"]
        assert len(summary["init_hashes"]) == 2
        for st in summary["methods"].values():
            assert len(st["final_subspace_error"]) == 2
            assert st["median_final_subspace_error"] is not None
        mm_rows = read_trace_csv(out / "mm_0.csv")
        assert all(r.inner_iters == 10 for r in mm_rows[:-1])
        assert mm_rows[-1].inner_iters == 0

    def test_cli_prints_the_method_lines_of_summary_txt(self, tmp_path, capsys):
        assert main(["pca-bench", str(tiny_config(tmp_path))]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed == (tmp_path / "out" / "summary.txt").read_text().splitlines()[2:5]
        schedules = ["constant:0.001", "periodic_decay:0.1,0.5,30", "periodic_decay:0.1,0.5,30"]
        for line, label, schedule in zip(printed, ["rgd", "spel", "mm"], schedules):
            assert line.startswith(f"{label} ({schedule}): mean final subspace error ")

    def test_fallback_count_per_run(self, tmp_path):
        # an absurd inner step size makes every Manifold Muon step fall back
        import json
        from dataclasses import replace

        cfg = load_config(tiny_config(tmp_path, steps=4))
        broken = replace(cfg.methods[2], method=ManifoldMuon(inner_iters=3, inner_lr=1e9))
        cfg = replace(cfg, methods=(*cfg.methods[:2], broken))
        summary = run_pca_bench(cfg)
        counts = {label: st["fallback_count"] for label, st in summary["methods"].items()}
        assert counts == {"rgd": [0, 0], "spel": [0, 0], "mm": [4, 4]}
        written = json.loads((cfg.output_dir / "summary.json").read_text())
        assert written["methods"]["mm"]["fallback_count"] == [4, 4]

    def test_shared_initial_point_across_methods(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        run_pca_bench(cfg)
        first_rows = {}
        for label in ("rgd", "spel", "mm"):
            rows = read_trace_csv(cfg.output_dir / f"{label}_0.csv")
            first_rows[label] = (rows[0].objective, rows[0].subspace_error)
        assert len(set(first_rows.values())) == 1

    def test_csv_deterministic_modulo_timing(self, tmp_path):
        cfg_a = load_config(tiny_config(tmp_path, name="a.ini"))
        from dataclasses import replace

        cfg_b = replace(cfg_a, output_dir=tmp_path / "out_b")
        run_pca_bench(cfg_a)
        run_pca_bench(cfg_b)
        for label in ("rgd", "spel", "mm"):
            for repeat in range(2):
                fa = cfg_a.output_dir / f"{label}_{repeat}.csv"
                fb = cfg_b.output_dir / f"{label}_{repeat}.csv"
                assert strip_elapsed(fa) == strip_elapsed(fb)

    def test_zero_steps(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path, steps=0, repeats=1))
        summary = run_pca_bench(cfg)
        rows = read_trace_csv(cfg.output_dir / "spel_0.csv")
        assert len(rows) == 1 and rows[0].iter == 0
        assert not summary["aborted"]


class TestRgdSweep:
    def test_winner_in_sweep(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path, steps=20, repeats=1))
        steps = [0.01, 0.001, 0.0001]
        summary = run_rgd_sweep(cfg, steps)
        assert summary["winner"] in steps
        assert summary["note"] == "the stock RGD step 1e-3 is set by hand and is not this sweep's pick"
        for alpha in steps:
            assert (cfg.output_dir / f"rgd_{alpha:g}_0.csv").is_file()
        assert (cfg.output_dir / "rgd_sweep.svg").is_file()

    def test_single_step_degenerate_sweep(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path, steps=5, repeats=1))
        summary = run_rgd_sweep(cfg, [0.001])
        assert summary["winner"] == 0.001

    def test_large_step_completes_feasibly(self, tmp_path):
        # projection keeps iterates on the manifold even for a wild step
        cfg = load_config(tiny_config(tmp_path, steps=30, repeats=1))
        summary = run_rgd_sweep(cfg, [1.0])
        assert not summary["aborted"]
        rows = read_trace_csv(cfg.output_dir / "rgd_1_0.csv")
        assert max(r.orth_violation for r in rows) <= 1e-6

    def test_empty_sweep_rejected(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        with pytest.raises(ConfigurationError):
            run_rgd_sweep(cfg, [])

    @pytest.mark.parametrize("steps", [["nan"], ["inf"], ["0.01", "nan"]])
    def test_non_finite_step_rejected(self, tmp_path, capsys, steps):
        path = tiny_config(tmp_path, repeats=1)
        assert main(["rgd-sweep", str(path), "--steps", *steps]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error: step_size must be finite and positive")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "steps, first, second",
        [(["0.001", "1e-3"], "0.001", "0.001"), (["0.01", "0.01"], "0.01", "0.01"),
         (["0.001", "0.0010000001"], "0.001", "0.0010000001")],
    )
    def test_colliding_labels_rejected(self, tmp_path, capsys, steps, first, second):
        # both would write rgd_<alpha:g>_0.csv: one CSV overwritten and two
        # finals in summary.json for a one-repeat sweep
        path = tiny_config(tmp_path, repeats=1)
        assert main(["rgd-sweep", str(path), "--steps", "0.1", *steps]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"step sizes {first} and {second} both write output label 'rgd_{float(first):g}'" in err
        assert not (tmp_path / "out").exists()


class TestMaxViolation:
    """pca-bench's max_violation: the largest orth_violation over every
    recorded iterate of every run."""

    def test_exact_mode_high_precision(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path, steps=20, repeats=1, polar_mode="exact"))
        summary = run_pca_bench(cfg)
        assert summary["max_violation"] <= 1e-10
        assert not summary["aborted"]

    def test_iterative_8_within_limit(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path, steps=20, repeats=1, polar_mode="iterative:8"))
        summary = run_pca_bench(cfg)
        assert summary["max_violation"] <= 1e-6
        assert not summary["aborted"]
        rows = [r for label in ("rgd", "spel", "mm") for r in read_trace_csv(cfg.output_dir / f"{label}_0.csv")]
        assert summary["max_violation"] == max(r.orth_violation for r in rows)
        written = json.loads((cfg.output_dir / "summary.json").read_text())
        assert written["max_violation"] == summary["max_violation"]
        lines = (cfg.output_dir / "summary.txt").read_text().splitlines()
        assert lines[-1] == f"max_violation: {summary['max_violation']:.3e} (FEAS_TOL 1e-08)"

    def test_iterative_8_retracts_at_1000x50(self, tmp_path):
        # the retraction is exact whatever the polar_mode: a shape where eight
        # Newton-Schulz steps leave |x'x - I|_F near 2e-4 runs clean
        path = tiny_config(tmp_path, steps=3, repeats=1, polar_mode="iterative:8")
        path.write_text(path.read_text().replace("n = 20\np = 2\nd = 50\n", "n = 1000\np = 50\nd = 2000\n"))
        assert main(["pca-bench", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["instance"]["n"] == 1000 and summary["polar_mode"] == "iterative:8"
        assert not summary["aborted"]
        assert summary["max_violation"] <= 1e-12

    def test_underresolved_projection_aborts_naming_the_iteration(self, tmp_path, underresolved_retraction):
        # every recorded iterate is certified within FEAS_TOL: a breach is an aborted run
        cfg = load_config(tiny_config(tmp_path, steps=5, repeats=1))
        summary = run_pca_bench(cfg)
        assert summary["aborted"]
        assert summary["max_violation"] <= 1e-8
        messages = [m for st in summary["methods"].values() for m in st["abort_messages"]]
        assert messages and all("iteration" in m for m in messages)


class TestCli:
    def test_pca_bench_exit_ok(self, tmp_path):
        assert main(["pca-bench", str(tiny_config(tmp_path))]) == EXIT_OK

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["pca-bench", str(tmp_path / "nope.ini")]) == EXIT_CONFIG_ERROR

    def test_rgd_sweep_cli(self, tmp_path):
        code = main(["rgd-sweep", str(tiny_config(tmp_path, steps=5, repeats=1)), "--steps", "0.01", "0.001"])
        assert code == EXIT_OK

    def test_rgd_sweep_all_aborted(self, tmp_path, capsys, underresolved_retraction):
        from mcsd.cli import EXIT_NUMERIC_ERROR

        cfg_path = tiny_config(tmp_path, steps=3, repeats=1)
        assert main(["rgd-sweep", str(cfg_path), "--steps", "0.01", "0.001"]) == EXIT_NUMERIC_ERROR
        assert "winner: none" in capsys.readouterr().out

    def test_fallback_line_per_run(self, tmp_path, capsys):
        # an absurd inner step size makes every Manifold Muon step fall back
        path = tiny_config(tmp_path, steps=4)
        path.write_text(path.read_text().replace("inner_lr = 0.1", "inner_lr = 1e9"))
        assert main(["pca-bench", str(path)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == ["FALLBACK method 'mm' repeat 0: 4 steps", "FALLBACK method 'mm' repeat 1: 4 steps"]

    def test_output_dir_flag(self, tmp_path):
        override = tmp_path / "override"
        assert main(["pca-bench", str(tiny_config(tmp_path)), "--output-dir", str(override)]) == EXIT_OK
        assert (override / "summary.json").is_file()

    def test_pca_bench_abort_is_numeric_error(self, tmp_path, underresolved_retraction):
        from mcsd.cli import EXIT_NUMERIC_ERROR

        cfg_path = tiny_config(tmp_path, steps=3, repeats=1)
        assert main(["pca-bench", str(cfg_path)]) == EXIT_NUMERIC_ERROR
        # partial CSV flushed alongside the error summary
        assert (tmp_path / "out" / "rgd_0.csv").is_file()

    def test_verify_fast_cli(self, tmp_path, capsys):
        report_path = tmp_path / "report.csv"
        code = main(["verify", "--level", "fast", "--report", str(report_path)])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "[PASS]" in captured
        lines = report_path.read_text().splitlines()
        assert lines[0] == "name,lhs,rhs,slack,passed"
        assert all(line.endswith(",true") for line in lines[1:])


class TestExitCodes:
    """Each documented exit code, reached by injecting its fault."""

    @pytest.fixture
    def reports(self, monkeypatch):
        """Make `verify` return reports with the given outcomes instead of
        running the battery."""

        def install(*passed):
            made = [BoundReport(f"check_{k}", 1.0 if ok else 3.0, 2.0, 0.0) for k, ok in enumerate(passed)]
            calls = []
            monkeypatch.setattr(bench, "run_verify", lambda level: calls.append(level) or made)
            return calls

        return install

    def test_failed_bound_report_is_check_failure(self, reports):
        reports(True, False)
        assert main(["verify"]) == EXIT_CHECK_FAILURE

    def test_report_path_that_is_a_directory_is_io_error(self, tmp_path, capsys, reports):
        calls = reports(True)
        assert main(["verify", "--report", str(tmp_path)]) == EXIT_NUMERIC_ERROR
        assert capsys.readouterr().err.startswith("i/o error:")
        assert calls == []  # the path fails before the battery starts

    @pytest.fixture
    def runs(self, monkeypatch):
        """The runs `bench.run_trace` is asked for, none of them executed."""
        calls = []
        monkeypatch.setattr(bench, "run_trace", lambda *args, **kwargs: calls.append(args))
        return calls

    def test_output_dir_that_is_a_file_is_io_error(self, tmp_path, capsys, runs):
        target = tmp_path / "taken"
        target.write_text("")
        path = tiny_config(tmp_path, steps=1, repeats=1)
        assert main(["pca-bench", str(path), "--output-dir", str(target)]) == EXIT_NUMERIC_ERROR
        assert capsys.readouterr().err.startswith("i/o error:")
        assert runs == []  # the directory fails before any run

    def test_sweep_output_dir_that_is_a_file_is_io_error(self, tmp_path, capsys, runs):
        target = tmp_path / "taken"
        target.write_text("")
        path = tiny_config(tmp_path, steps=1)
        assert main(["rgd-sweep", str(path), "--steps", "1e-3", "--output-dir", str(target)]) == EXIT_NUMERIC_ERROR
        assert capsys.readouterr().err.startswith("i/o error:")
        assert runs == []

    def test_numeric_error_reaching_main(self, monkeypatch, capsys):
        def fail(level):
            raise NumericError("injected")

        monkeypatch.setattr(bench, "run_verify", fail)
        assert main(["verify"]) == EXIT_NUMERIC_ERROR
        assert capsys.readouterr().err == "numeric error: injected\n"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orth-violation"])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert "invalid choice: 'orth-violation'" in capsys.readouterr().err


class TestEdgeConfigs:
    """Configs at the edges of the grammar end in a documented exit code."""

    PROBE = (
        "[instance]\nn = {n}\np = {p}\nd = {d}\n\n[run]\nsteps = 5\nrepeats = 1\npolar_mode = {polar_mode}\n"
        "output_dir = {out}\n\n[method:m]\nkind = mcsd\nschedule = {schedule}\n"
    )

    def probe(self, tmp_path, n=20, p=3, d=40, schedule="constant:0.1", polar_mode="iterative:8"):
        path = tmp_path / f"probe_{n}_{p}.ini"
        path.write_text(self.PROBE.format(n=n, p=p, d=d, schedule=schedule, polar_mode=polar_mode,
                                          out=tmp_path / f"out_{n}_{p}"))
        return path

    def test_growing_decay_factor_is_config_error(self, tmp_path, capsys):
        # factor ** (t // period) overflowed at t = 2 instead
        path = self.probe(tmp_path, schedule="periodic_decay:0.1,1e308,1")
        assert main(["pca-bench", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "[method:m] schedule = 'periodic_decay:0.1,1e308,1': factor must be at most 1" in err

    def test_decay_factor_of_one_runs(self, tmp_path):
        assert main(["pca-bench", str(self.probe(tmp_path, schedule="periodic_decay:0.1,1,1"))]) == EXIT_OK

    def test_one_by_one_stiefel_writes_every_file(self, tmp_path):
        # St(1, 1) = {±1}: every subspace error is exactly 0, which a log
        # scale cannot draw, so the chart shows empty axes with a note
        assert main(["pca-bench", str(self.probe(tmp_path, n=1, p=1, d=1))]) == EXIT_OK
        assert main(["pca-bench", str(self.probe(tmp_path, n=2, p=1, d=2))]) == EXIT_OK
        files = sorted(f.name for f in (tmp_path / "out_1_1").iterdir())
        assert files == sorted(f.name for f in (tmp_path / "out_2_1").iterdir())
        assert "subspace_error.svg" in files
        errors = {r.subspace_error for r in read_trace_csv(tmp_path / "out_1_1" / "m_0.csv")}
        assert errors == {0.0}
        assert "no positive values on a log scale" in (tmp_path / "out_1_1" / "subspace_error.svg").read_text()

    def test_long_iterative_sign_of_a_rank_deficient_gradient_runs(self, tmp_path):
        # every tangent gradient at St(3, 3) has rank 2; the iterative sign
        # grew its null direction by 1.5 per step and reached NaN by k = 1 800,
        # which ended the run with a numpy warning and exit 2
        path = self.probe(tmp_path, n=3, p=3, d=40, polar_mode="iterative:2000")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["pca-bench", str(path)]) == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert max(r.orth_violation for r in read_trace_csv(tmp_path / "out_3_3" / "m_0.csv")) < 1e-12

    @pytest.mark.parametrize("d", [10**20, 5 * 10**10])
    def test_data_too_large_to_build_is_config_error(self, tmp_path, capsys, monkeypatch, d):
        # numpy raised "Maximum allowed dimension exceeded" at 1e20 and tried
        # to allocate 7.28 TiB at 5e10; the reader must reject both unbuilt
        def unbuilt(*args):
            raise AssertionError("the instance must not be built")

        monkeypatch.setattr(bench, "make_brockett", unbuilt)
        assert main(["pca-bench", str(self.probe(tmp_path, d=d))]) == EXIT_CONFIG_ERROR
        assert f"[instance] d = '{d}': n·d exceeds 1e+08 data entries" in capsys.readouterr().err

    def test_data_at_the_cap_is_read(self, tmp_path):
        assert load_config(self.probe(tmp_path, d=MAX_DATA_ENTRIES // 20)).d == 5 * 10**6


class TestRunVerify:
    def test_fast_level_passes(self):
        reports = run_verify("fast")
        assert reports and all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert "descent_lemma" in names
        assert "telescoped_descent" in names
        assert "min_grad_rate_deterministic" in names

    def test_every_report_is_timed(self):
        for report in run_verify("fast"):
            assert report.seconds > 0
            assert f"({report.seconds:.3g} s)" in report.human_lines()
            assert report.machine_line().split(",")[0] == report.name
            assert len(report.machine_line().split(",")) == 5

    def test_full_level_passes(self):
        reports = run_verify("full")
        assert all(r.passed for r in reports)
        assert "min_grad_rate_stochastic" in {r.name for r in reports}

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            run_verify("extreme")
