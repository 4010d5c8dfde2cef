"""Benchmark of the mcsd library through its public entry point, `mcsd.cli.main`.

Usage, from the repository root:

    python3 perfbench/run.py --workload pca-default --seed 0 --seconds 30 --trace 0

It builds the workload's inputs from --seed, sets it up several times in
fresh processes, runs one unmeasured execution, then repeats executions
in-process for --seconds and checks the outputs of every one. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, with times
scaled to a reference speed (see REFERENCE_S); with
--trace 1 it alternates untraced and traced executions and reports the
per-layer metrics, timed from outside around calls into each module.
Earlier lines give the environment stamp and each figure with its tail and
sample count; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. METRICS.md defines every metric.
"""

import os

# One BLAS/OpenMP thread and no worker pool, set before numpy is imported:
# the single-threaded baseline, and traces whose last bits do not depend on
# the machine's core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["MCSD_WORKERS"] = "1"
os.environ.pop("MCSD_OUTPUT_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from kernels import kernel_table  # noqa: E402
from spans import Instrumented, Recorder, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS, execute, prepare  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_PROBES = 7

# The shared host this benchmark was defined on switches between a fast and
# a slow level about 45% apart, each lasting a minute or more, which is
# longer than a run. So every end-to-end time is scaled by a fixed reference
# kernel timed just before and after it: scale = REFERENCE_S / kernel time,
# which reports seconds at the speed where the kernel takes REFERENCE_S (the
# defining host's fast level). The raw times are printed beside them.
REFERENCE_S = 0.125
REFERENCE_LOOPS = 3000
_rng = np.random.default_rng(0)
REF_TALL, REF_SMALL, REF_SQUARE = (_rng.standard_normal(shape) for shape in ((200, 5), (50, 3), (200, 200)))

MIN_EXECUTIONS = 2  # the determinism check compares at least two
STEP_AGREEMENT_TOL = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def tail(values) -> str:
    """Median with the extremes and the sample count beside it."""
    return f"median {statistics.median(values):.6g} (max {max(values):.6g}, min {min(values):.6g}, n={len(values)})"


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unavailable (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment_stamp(args, inputs) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "mcsd_workers": os.environ["MCSD_WORKERS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "config_sha256": inputs.config_hash,
        "seeds": inputs.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reference_s() -> float:
    """Seconds of a fixed mix like the workloads': small BLAS products, a
    small SVD and interpreter work. Independent of the mcsd code."""
    tic = time.perf_counter()
    for _ in range(REFERENCE_LOOPS):
        REF_TALL @ (REF_TALL.T @ REF_TALL)
        np.linalg.svd(REF_SMALL, full_matrices=False)
        REF_SQUARE @ REF_TALL
        total = 0
        for k in range(200):
            total += k
    return time.perf_counter() - tic


class Scaler:
    """Times the reference kernel between measurements; scale() gives the
    factor for the measurement since the previous call."""

    def __init__(self):
        self.last = reference_s()

    def scale(self) -> float:
        before, self.last = self.last, reference_s()
        return 2.0 * REFERENCE_S / (before + self.last)


def setup_seconds(inputs, scaler: Scaler) -> list[tuple[float, float]]:
    """Set up the workload SETUP_PROBES times, each in a fresh process;
    returns (raw seconds, scale) per probe."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += ["verify"] if inputs.config_path is None else ["pca", str(inputs.config_path)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append((json.loads(done.stdout.strip().splitlines()[-1])["setup_s"], scaler.scale()))
    return samples


class BenchRun:
    """Executions of one benchmark run, their checks and their totals."""

    def __init__(self, inputs, tmp: Path, scaler: Scaler):
        self.inputs, self.tmp, self.scaler = inputs, tmp, scaler
        self.executions = []

    def execute(self):
        """One execution, with the host-speed scale measured around it."""
        out_dir = self.tmp / f"exec{len(self.executions)}"
        ex = execute(self.inputs, out_dir)
        ex.scale = self.scaler.scale()
        shutil.rmtree(out_dir, ignore_errors=True)
        self.executions.append(ex)
        return ex

    def result(self, extra_problems=()) -> dict:
        attempted = sum(ex.attempted for ex in self.executions)
        failed = sum(ex.failed for ex in self.executions)
        problems = [p for ex in self.executions for p in ex.problems] + list(extra_problems)
        hashes = {ex.trace_hash for ex in self.executions if ex.exit_code == 0}
        if len(hashes) > 1:
            problems.append(f"trace CSVs minus elapsed_s differ between executions ({len(hashes)} distinct hashes)")
        print(f"metric failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
        for problem in problems:
            print(f"problem: {problem}")
        return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed}


def repeat_for(seconds: float, body) -> None:
    """Call body() until the next call would end after `seconds`, and at
    least MIN_EXECUTIONS times."""
    start, calls, longest = time.perf_counter(), 0, 0.0
    while calls < MIN_EXECUTIONS or time.perf_counter() - start + longest <= seconds:
        tic = time.perf_counter()
        body()
        longest = max(longest, time.perf_counter() - tic)
        calls += 1


def end_to_end(bench_run: BenchRun, setup: list[tuple[float, float]], seconds: int) -> dict:
    bench_run.execute()  # unmeasured: lazy set-up in numpy and the allocator
    timed = []
    repeat_for(seconds, lambda: timed.append(bench_run.execute()))
    scaled = {
        "setup_s": [raw * scale for raw, scale in setup],
        "wall_s": [ex.wall_s * ex.scale for ex in timed],
        "steps_per_s": [ex.steps / ex.step_s / ex.scale for ex in timed if ex.step_s > 0] or [0.0],
    }
    raw = {
        "setup_s": [raw for raw, _ in setup],
        "wall_s": [ex.wall_s for ex in timed],
        "steps_per_s": [ex.steps / ex.step_s for ex in timed if ex.step_s > 0] or [0.0],
    }
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"host speed scale: {tail([ex.scale for ex in timed])}")
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s")):
        print(f"metric {name} = {tail(scaled[name])} {unit}; raw {tail(raw[name])} {unit}")
    for label in bench_run.inputs.labels:
        per_run = [r for ex in timed for r in ex.method_rates.get(label, [])]
        if per_run:
            print(f"metric steps_per_s.{label} = {tail(per_run)} 1/s (per run)")
    for label in bench_run.inputs.workload.tol_labels:
        iters = [i for i in timed[-1].iters_to_tol.get(label, []) if i is not None]
        if iters:
            print(f"metric iters_to_tol.{label} = {statistics.median(iters)} count "
                  f"(median over {len(iters)} repeats; {timed[-1].iters_to_tol[label]})")
    print(f"metric peak_rss_mb = {metrics['peak_rss_mb']:.6g} MiB")
    return metrics


def per_layer(bench_run: BenchRun, seconds: int, seed: int) -> tuple[dict, list[str]]:
    metrics = kernel_table(np.random.default_rng(seed))
    for name, value in metrics.items():
        print(f"kernel {name} = {value:.6g}")
    bench_run.execute()  # unmeasured warm-up
    plain, traced, layers = [], [], []

    def pair():
        plain.append(bench_run.execute().wall_s)
        rec = Recorder()
        with Instrumented(rec):
            traced.append(bench_run.execute().wall_s)
        layers.append(layer_metrics(rec))

    repeat_for(seconds, pair)
    metrics.update(median_metrics(layers))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain)
    print(f"untraced wall_s {tail(plain)} s; traced wall_s {tail(traced)} s")
    problems = []
    agreement = metrics["optimizers.step_wall_agreement"]
    if abs(agreement - 1.0) > STEP_AGREEMENT_TOL:
        problems.append(f"step spans cover {agreement:.3f} of the program's step-loop time")
    return metrics, problems


def main(argv=None) -> int:
    if not (SRC / "mcsd" / "__init__.py").is_file():
        print(f"run.py: no mcsd source under {SRC}; run it from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        inputs = prepare(WORKLOADS[args.workload], args.seed, tmp)
        print("stamp: " + json.dumps(environment_stamp(args, inputs), sort_keys=True))
        scaler = Scaler()
        bench_run = BenchRun(inputs, tmp, scaler)
        if args.trace:
            values, problems = per_layer(bench_run, args.seconds, args.seed)
        else:
            values, problems = end_to_end(bench_run, setup_seconds(inputs, scaler), args.seconds), []
        result = bench_run.result(problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
