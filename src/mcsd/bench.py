"""Benchmark orchestration: configs, comparative runs, CSV/SVG/summary output.

A benchmark compares several methods on one weighted-PCA instance. Every
method within a repeat starts from the same Haar-random initial point
(that repeat's one read-only StiefelPoint), each run owns an independent RNG
stream, and wall time is accounted around the step loop only, so per-method
timings are comparable. The (method, repeat) grid runs in this process,
one run after another, each repeat's methods in turn. A run that fails
numerically is recorded as aborted with the trace it reached, and the other
runs go on.

The two commands (pca-bench, rgd-sweep) share one pipeline: execute the
runs, write one CSV per run, gather per-method statistics, build one
summary to which the command appends its own keys, and chart each repeat-0
run's subspace error under the command's file name and title.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError
from .linalg import EXACT, PolarMode
from .lmo import NormKind, norm_equiv_constant
from .manifolds import FEAS_TOL, StiefelManifold, StiefelPoint, random_point
from .objectives import BrockettInstance, NoiseConfig, make_brockett, smoothness_constants, subspace_error
from .optimizers import (
    ManifoldMuon,
    Mcsd,
    Method,
    OptimizerRun,
    Rgd,
    StepSchedule,
    StochasticMcsd,
    constant_schedule,
    deterministic_bound_schedule,
    periodic_decay_schedule,
    run_seeds,
    run_trace,
    stochastic_bound_schedule,
)
from .svgchart import Series, write_chart
from .trace import TraceRecord, write_trace_csv
from .verify import (
    BoundReport,
    audit_deterministic_bound,
    audit_per_step_descent,
    brute_force_lmo_check,
    check_descent_lemma,
    check_min_grad_rate,
    gap_with_headroom,
)

DEFAULT_OUTPUT_DIR = "bench-out"

# Largest n·d a config may ask for: the instance draws its n×d data matrix,
# 10⁸ float64 entries (800 MB) at most.
MAX_DATA_ENTRIES = 10**8

# Largest `inner_iters`, and k of `iterative:k`, a config may ask for: 1000
# times the stock 10 and 8. Each count loops in Python, so 10²⁰ would hang.
MAX_INNER_ITERS = 10_000


class MethodSpec(NamedTuple):
    label: str
    method: Method
    schedule: StepSchedule


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark; each default is the config grammar's for a key left out."""

    n: int
    p: int
    d: int
    methods: tuple[MethodSpec, ...]
    data_seed: int = 7
    steps: int = 300
    init_seed: int = 11
    polar_mode: PolarMode = PolarMode(iters=8)
    output_dir: Path = Path(DEFAULT_OUTPUT_DIR)
    repeats: int = 3


class RunResult(NamedTuple):
    label: str
    repeat: int
    init_hash: str
    records: list[TraceRecord]
    abort_message: str  # empty for a finished run
    fallback_count: int

    @property
    def aborted(self) -> bool:
        return bool(self.abort_message)


def default_pca_config(output_dir) -> BenchConfig:
    """The stock comparison: RGD at a constant step of 1e-3, set by hand and
    not the winner of `rgd-sweep` (which picks 0.01 on the README's grid and
    0.1 on a wider one), against the spectral method and Manifold Muon under
    the shared decay schedule."""
    decay = periodic_decay_schedule(0.1, 0.5, 30)
    return BenchConfig(
        n=200, p=5, d=1000,
        methods=(
            MethodSpec("rgd", Rgd(), constant_schedule(0.001)),
            MethodSpec("spel", Mcsd(), decay),
            MethodSpec("mm", ManifoldMuon(), decay),
        ),
        output_dir=Path(output_dir),
    )


# ---------------------------------------------------------------------------
# Config file parsing (INI grammar; see README for the full description)


def load_config(path) -> BenchConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    # No header can name the empty default section, so [DEFAULT] is an
    # ordinary section (rejected below) and no key is copied between sections.
    parser = configparser.ConfigParser(default_section="")
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    for name in parser.sections():
        if name not in ("instance", "run") and not name.startswith("method:"):
            raise ConfigurationError(f"config {path}: unknown section [{name}] (use instance, run, method:<label>)")
    for name in ("instance", "run"):
        if not parser.has_section(name):
            raise ConfigurationError(f"config {path} has no [{name}] section")
    instance = _read(parser["instance"], _INSTANCE_KEYS, required=("n", "p", "d"))
    for low, high in (("p", "n"), ("n", "d")):
        if instance[low] > instance[high]:
            raise _key_error(parser["instance"], low, f"exceeds {high} = {instance[high]}")
    if instance["n"] * instance["d"] > MAX_DATA_ENTRIES:
        raise _key_error(parser["instance"], "d", f"n·d exceeds {MAX_DATA_ENTRIES:.0e} data entries")
    run = _read(parser["run"], _RUN_KEYS)

    methods = []
    section_of: dict[str, str] = {}
    for section in parser.sections():
        if not section.startswith("method:"):
            continue
        label = _method_label(section)
        if label in section_of:
            raise ConfigurationError(
                f"sections [{section_of[label]}] and [{section}] both write output label {label!r}"
            )
        section_of[label] = section
        methods.append(_parse_method(label, parser[section], instance["d"]))
    if not methods:
        raise ConfigurationError(f"config {path} defines no [method:...] sections")
    return BenchConfig(**instance, **run, methods=tuple(methods))


def _key_error(section, key: str, reason) -> ConfigurationError:
    """The one form of a config value error: `[section] key = 'text': reason`."""
    return ConfigurationError(f"[{section.name}] {key} = {section.get(key, raw=True)!r}: {reason}")


def _read(section, keys: dict, required=()) -> dict:
    """Parse the keys that one config section gives by `keys`, a table of
    key -> parser, in table order. A key left out takes its field's default,
    and one of `required` left out is an error. A key outside the table is
    rejected, and every error names the section and the key."""
    values = {}
    for key, parse in keys.items():
        if key in section:
            try:
                values[key] = parse(section[key])
            except (configparser.Error, ConfigurationError, ValueError) as exc:
                raise _key_error(section, key, exc) from None
        elif key in required:
            raise ConfigurationError(f"[{section.name}] has no key {key!r}")
    for key in section:
        if key not in keys:
            raise _key_error(section, key, f"unknown key (use {', '.join(keys)})")
    return values


def _int_at_least(low: int):
    """An int parser that rejects values below `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value

    return parse


def _iteration_count(text: str) -> int:
    """An int parser that rejects values above MAX_INNER_ITERS; the classes
    check the lower bound."""
    value = int(text)
    if value > MAX_INNER_ITERS:
        raise ValueError(f"must be at most {MAX_INNER_ITERS}")
    return value


def _method_label(section: str) -> str:
    """The output label of [method:<label>]: other characters than letters,
    digits and _-. become _."""
    cleaned = "".join(ch if ch.isalnum() or ch in "_-." else "_" for ch in section.split(":", 1)[1].strip())
    if not cleaned:
        raise ConfigurationError(f"[{section}] gives an empty method label")
    return cleaned


def _parse_polar_mode(text: str) -> PolarMode:
    text = text.lower()
    if text == "exact":
        return EXACT
    head, colon, iters = text.partition(":")
    if head == "iterative":
        return PolarMode(iters=_iteration_count(iters) if colon else 8)
    raise ConfigurationError("unknown polar_mode (use 'exact', 'iterative' or 'iterative:<k>')")


def _parse_norm(text: str) -> NormKind:
    try:
        return NormKind(text.lower())
    except ValueError:
        raise ConfigurationError("unknown norm (use 'frobenius' or 'spectral')") from None


def _parse_schedule(text: str) -> StepSchedule:
    head, _, tail = text.partition(":")
    args = tail.split(",") if tail else []
    fields = {"constant": 1, "periodic_decay": 3}.get(head)
    if fields is None:
        raise ConfigurationError("unknown schedule (use 'constant:a' or 'periodic_decay:a0,factor,period')")
    if len(args) != fields:
        raise ConfigurationError(f"{head} takes {fields} field(s), got {len(args)}")
    if head == "constant":
        return constant_schedule(float(args[0]))
    return periodic_decay_schedule(float(args[0]), float(args[1]), int(args[2]))


def _parse_noise(text: str) -> NoiseConfig:
    head, _, tail = text.partition(":")
    if head == "gaussian":
        return NoiseConfig.additive_gaussian(float(tail))
    if head == "minibatch":
        return NoiseConfig.minibatch(int(tail))
    raise ConfigurationError("unknown noise (use 'gaussian:<sigma>' or 'minibatch:<size>')")


def _parse_kind(text: str) -> str:
    if text.lower() not in _METHOD_KINDS:
        raise ConfigurationError(f"unknown kind (use {', '.join(_METHOD_KINDS)})")
    return text.lower()


def _parse_output_dir(text: str) -> Path:
    if not text:
        raise ValueError("must not be empty")
    return Path(text)


# Key tables for _read: key -> parser. Each key is the name of the field it
# sets, and a key left out takes that field's default.
_INSTANCE_KEYS = {"n": _int_at_least(1), "p": _int_at_least(1), "d": _int_at_least(1), "data_seed": _int_at_least(0)}
_RUN_KEYS = {
    "steps": _int_at_least(0),
    "init_seed": _int_at_least(0),
    "repeats": _int_at_least(1),
    "polar_mode": _parse_polar_mode,
    "output_dir": _parse_output_dir,
}
_NORM = {"norm": _parse_norm}
_METHOD_KINDS = {
    "rgd": (Rgd, {}),
    "mcsd": (Mcsd, _NORM),
    "stochastic_mcsd": (StochasticMcsd, {**_NORM, "beta": float, "noise": _parse_noise}),
    "manifold_muon": (ManifoldMuon, {"inner_iters": _iteration_count, "inner_lr": float}),
}


def _parse_method(label: str, section, d: int) -> MethodSpec:
    """A [method:*] section: `kind` picks the class and the keys it takes."""
    method_class, keys = _METHOD_KINDS.get(section.get("kind", "", raw=True).lower(), (None, {}))
    values = _read(section, {"kind": _parse_kind, "schedule": _parse_schedule, **keys}, required=("kind", "schedule"))
    try:
        method = method_class(**{key: value for key, value in values.items() if key in keys})
    except ConfigurationError as exc:
        # a class check names its field first: "<key> must ..."
        key, _, reason = str(exc).partition(" ")
        raise _key_error(section, key, reason) from None
    batch = values["noise"].batch_size if "noise" in values else 0
    if batch > d:
        raise _key_error(section, "noise", f"batch_size {batch} outside [1, {d}]")
    return MethodSpec(label, method, values["schedule"])


# ---------------------------------------------------------------------------
# Run execution


def initial_points(cfg: BenchConfig, manifold: StiefelManifold) -> list[StiefelPoint]:
    """One Haar-random initial point per repeat, deterministic in init_seed."""
    points = []
    for repeat in range(cfg.repeats):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.init_seed, spawn_key=(repeat,)))
        points.append(random_point(manifold, rng))
    return points


def matrix_hash(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _run_task(cfg: BenchConfig, inst: BrockettInstance, index: int, repeat: int,
              x0: StiefelPoint, init_hash: str) -> RunResult:
    spec = cfg.methods[index]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.init_seed, spawn_key=(repeat, index + 1)))
    run = OptimizerRun(
        method=spec.method,
        schedule=spec.schedule,
        x=x0,
        rng=rng,
        polar_mode=cfg.polar_mode,
    )
    try:
        records, message = run_trace(run, inst, cfg.steps, subspace_fn=lambda w: subspace_error(inst, w)), ""
    except NumericError as exc:
        records, message = exc.records, f"method {spec.label!r}: {exc}"
    return RunResult(spec.label, repeat, init_hash, records, message, run.fallback_count)


def execute_runs(cfg: BenchConfig) -> list[RunResult]:
    """Run every (method, repeat) pair in (repeat, method) order, so that a
    change of host speed falls on every method alike; returns the results
    ordered by (method, repeat). Each run's RNG stream is keyed by its pair,
    so the order moves no bit."""
    inst = make_brockett(cfg.n, cfg.p, cfg.d, cfg.data_seed)
    manifold = StiefelManifold(cfg.n, cfg.p)
    points = initial_points(cfg, manifold)
    hashes = [matrix_hash(x0.x) for x0 in points]

    done = {
        (index, repeat): _run_task(cfg, inst, index, repeat, points[repeat], hashes[repeat])
        for repeat in range(cfg.repeats)
        for index in range(len(cfg.methods))
    }
    return [done[key] for key in sorted(done)]


def _method_stats(cfg: BenchConfig, results: list[RunResult]) -> dict:
    """Per-method figures; `results` are in (method, repeat) order."""
    stats = {}
    for spec in cfg.methods:
        runs = [r for r in results if r.label == spec.label]
        finals = [r.records[-1].subspace_error for r in runs if not r.aborted]
        walls = [r.records[-1].elapsed_s for r in runs if not r.aborted]
        stats[spec.label] = {
            "schedule": spec.schedule.describe(),
            "final_subspace_error": finals,
            "mean_final_subspace_error": statistics.fmean(finals) if finals else None,
            "median_final_subspace_error": statistics.median(finals) if finals else None,
            "step_wall_s": walls,
            "mean_step_wall_s": statistics.fmean(walls) if walls else None,
            "median_step_wall_s": statistics.median(walls) if walls else None,
            "aborted": [r.aborted for r in runs],
            "abort_messages": [r.abort_message for r in runs if r.aborted],
            "fallback_count": [r.fallback_count for r in runs],
        }
    return stats


def _bench(cfg: BenchConfig, extra, chart_file: str, title: str) -> dict:
    """Execute every run, write one CSV per run, build the summary, to which
    `extra(stats)` appends the command's own keys, and write it and
    `chart_file`, a log-scale chart of each repeat-0 run's subspace error
    against the iteration. The output directory is made first, so an
    unusable one fails before any run.

    `max_violation` is the largest orthogonality violation over every
    recorded iterate. Each one is certified within FEAS_TOL, and an iterate
    beyond it aborts its run, so a breach shows as an aborted run.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    results = execute_runs(cfg)
    for res in results:
        write_trace_csv(cfg.output_dir / f"{res.label}_{res.repeat}.csv", res.records)
    stats = _method_stats(cfg, results)
    initial = [r.records[0].subspace_error for r in results if r.repeat == 0 and r.records]
    summary = {
        "instance": {"n": cfg.n, "p": cfg.p, "d": cfg.d, "data_seed": cfg.data_seed},
        "steps": cfg.steps,
        "repeats": cfg.repeats,
        "polar_mode": cfg.polar_mode.describe(),
        "init_seed": cfg.init_seed,
        "init_hashes": [next(r.init_hash for r in results if r.repeat == k) for k in range(cfg.repeats)],
        "initial_subspace_error": initial[0] if initial else None,
        "methods": stats,
        "aborted": any(r.aborted for r in results),
        "max_violation": max((rec.orth_violation for res in results for rec in res.records), default=0.0),
        **extra(stats),
    }
    series = [
        Series(label=res.label, xs=[r.iter for r in res.records], ys=[r.subspace_error for r in res.records])
        for res in results
        if res.repeat == 0 and res.records
    ]
    if series:
        write_chart(cfg.output_dir / chart_file, series, title=title, x_label="iteration", y_label="subspace error")
    _write_summary(cfg.output_dir, summary)
    return summary


def method_lines(summary: dict) -> list[str]:
    """One line per method of a summary: its label, the schedule that
    produced its figures, and its mean final subspace error and step wall
    time, or why its runs aborted."""
    lines = []
    for label, st in summary["methods"].items():
        head = f"{label} ({st['schedule']})"
        if st["mean_final_subspace_error"] is None:
            lines.append(f"{head}: ABORTED ({'; '.join(st['abort_messages'])})")
        else:
            lines.append(
                f"{head}: mean final subspace error {st['mean_final_subspace_error']:.6e}, "
                f"mean step wall time {st['mean_step_wall_s']:.3f} s"
            )
    return lines


def _write_summary(output_dir: Path, summary: dict) -> None:
    (output_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
    lines = [f"instance: {summary['instance']}", f"polar_mode: {summary['polar_mode']}", *method_lines(summary),
             f"max_violation: {summary['max_violation']:.3e} (FEAS_TOL {FEAS_TOL:.0e})"]
    if summary.get("winner") is not None:
        lines.append(f"winner: {summary['winner']}")
    if summary.get("note"):
        lines.append(summary["note"])
    (output_dir / "summary.txt").write_text("\n".join(lines) + "\n")


def run_pca_bench(cfg: BenchConfig) -> dict:
    """Full comparison: per-run CSVs, a log-scale subspace-error chart, and a
    summary keyed by method with per-repeat and aggregate figures."""
    return _bench(cfg, lambda stats: {}, "subspace_error.svg", f"Subspace error, St({cfg.n},{cfg.p}), d={cfg.d}")


def run_rgd_sweep(cfg: BenchConfig, step_sizes: list[float]) -> dict:
    """Constant-step sweep of RGD from a shared initial point.

    Emits one CSV per step size, a combined chart, and a summary flagging
    the step size with the lowest final subspace error. Step sizes that
    print alike (0.001 and 1e-3) would share a CSV and are rejected.
    """
    if not step_sizes:
        raise ConfigurationError("step-size sweep needs at least one value")
    alpha_of: dict[str, float] = {}
    for alpha in step_sizes:
        label = f"rgd_{alpha:g}"
        if label in alpha_of:
            raise ConfigurationError(f"step sizes {alpha_of[label]!r} and {alpha!r} both write output label {label!r}")
        alpha_of[label] = alpha
    sweep_methods = tuple(MethodSpec(label, Rgd(), constant_schedule(alpha)) for label, alpha in alpha_of.items())

    def extra(stats):
        finals = {
            label: stats[label]["final_subspace_error"][0]
            for label in alpha_of
            if stats[label]["final_subspace_error"]
        }
        return {
            "step_sizes": list(step_sizes),
            "final_subspace_error": {label.removeprefix("rgd_"): v for label, v in finals.items()},
            "winner": alpha_of[min(finals, key=finals.get)] if finals else None,
            "note": "the stock RGD step 1e-3 is set by hand and is not this sweep's pick",
        }

    title = f"RGD constant-step sweep, St({cfg.n},{cfg.p})"
    return _bench(replace(cfg, methods=sweep_methods, repeats=1), extra, "rgd_sweep.svg", title)


# ---------------------------------------------------------------------------
# Verification driver


def run_verify(level: str = "fast") -> list[BoundReport]:
    """Run the verification battery at the requested level.

    fast: descent-lemma sampling (200 draws), a deterministic bound-step run
    audited end to end (telescoped and per-step), its min-gradient rate
    check, and a brute-force LMO net. full: adds a 1000-sample descent
    lemma and the 20-seed stochastic rate check.

    The stochastic check steps its 20 seeds as one stack (run_seeds), with
    the bits that 20 separate run_trace calls give.

    Each report's `seconds` is the wall time of the call that made it; the
    stochastic check's includes its 20 runs, while the deterministic run
    that three audits share is timed in none of them.
    """
    if level not in ("fast", "full"):
        raise ConfigurationError(f"unknown verify level {level!r}")

    inst = make_brockett(50, 3, 200, data_seed=7)
    manifold = StiefelManifold(50, 3)
    consts = smoothness_constants(inst)
    norm_equiv = norm_equiv_constant(NormKind.SPECTRAL, 50, 3)

    reports = [
        _timed(check_descent_lemma, inst, samples=200, rng=np.random.default_rng(100)),
        _timed(
            brute_force_lmo_check,
            NormKind.SPECTRAL, (2, 2), net_size=2 * 10**5, rng=np.random.default_rng(101), inputs=5,
        ),
        _timed(
            brute_force_lmo_check,
            NormKind.FROBENIUS, (3, 2), net_size=2 * 10**5, rng=np.random.default_rng(102), inputs=5,
        ),
    ]

    x0 = random_point(manifold, np.random.default_rng(103))
    gap = gap_with_headroom(inst, x0.x)
    horizon = 100
    schedule = deterministic_bound_schedule(gap, consts.composed_lipschitz, norm_equiv, horizon)
    run = OptimizerRun(method=Mcsd(norm=NormKind.SPECTRAL), schedule=schedule, x=x0)
    records = run_trace(run, inst, horizon, subspace_fn=lambda w: subspace_error(inst, w))
    reports.append(_timed(audit_deterministic_bound, records, consts.composed_lipschitz, norm_equiv))
    reports.append(_timed(audit_per_step_descent, records, consts.composed_lipschitz, norm_equiv))
    reports.append(
        _timed(check_min_grad_rate, [records], gap, consts.composed_lipschitz, norm_equiv, schedule)
    )

    if level == "full":
        reports.append(_timed(check_descent_lemma, inst, samples=1000, rng=np.random.default_rng(104)))
        reports.append(_timed(_stochastic_rate_report, inst, manifold, consts.composed_lipschitz, norm_equiv))

    return reports


def _timed(check, *args, **kwargs) -> BoundReport:
    """check(*args, **kwargs), with its wall time in the report's `seconds`."""
    start = time.perf_counter()
    report = check(*args, **kwargs)
    return report._replace(seconds=time.perf_counter() - start)


def _stochastic_rate_report(inst, manifold, lipschitz, norm_equiv):
    seeds, horizon, sigma = 20, 400, 1.0
    noise = NoiseConfig.additive_gaussian(sigma / np.sqrt(inst.n * inst.p))
    x0 = random_point(manifold, np.random.default_rng(105))
    gap = gap_with_headroom(inst, x0.x)
    schedule = stochastic_bound_schedule(gap, lipschitz, norm_equiv, horizon)
    method = StochasticMcsd(norm=NormKind.SPECTRAL, beta=schedule.momentum_beta, noise=noise)
    rngs = [np.random.default_rng(np.random.SeedSequence(106, spawn_key=(seed,))) for seed in range(seeds)]
    traces = run_seeds(method, schedule, x0, rngs, inst, horizon)
    return check_min_grad_rate(traces, gap, lipschitz, norm_equiv, schedule, sigma=sigma)
