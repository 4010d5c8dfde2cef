"""Golden traces: `pca-bench` on the built-in default config and the
machine lines of `verify --level full --report`, pinned bit for bit.

The CSVs minus their `elapsed_s` column are hashed and compared with the
value in golden/pca_default.json; the verify lines are stored whole in
golden/verify_full.json. Their last bits depend on numpy, on the BLAS build
and on the CPU kernels it dispatches to, so each pin is stored beside a
stamp of those. On a machine with a different stamp, each run's final row
is compared instead, to rtol 1e-6 (atol 1e-8 for the quantities that
converge to zero), and each verify line keeps its name and verdict exactly
and its lhs, rhs and slack to the same tolerance.

golden/matrix.json pins, in one child process with one BLAS thread, a
short run_trace of each method (rgd, spel, mm, smcsd with momentum) under
each polar mode (exact, iterative:8) at St(200, 5), St(6, 6), St(5, 5) and
St(50, 1), a few steps of rgd, spel and mm under each mode at the large
benchmark's St(1000, 50) with d = 2000, and one 4-seed run_seeds stack:
each cell holds the SHA-256 of its records minus elapsed_s and its final
row, compared under another stamp to the same tolerance.

A change that moves the bits on purpose re-pins all three goldens:

    PYTHONPATH=src python tests/test_golden_trace.py --repin

which prints, per CSV and per matrix cell, |Δ| of each final-row column
against the old pin, and per verify line |Δ| of its lhs, rhs and slack,
before it overwrites them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from mcsd import (
    EXACT, ManifoldMuon, Mcsd, NoiseConfig, NormKind, OptimizerRun, PolarMode, Rgd, StiefelManifold, StochasticMcsd,
    constant_schedule, make_brockett, random_point, run_seeds, run_trace, subspace_error,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "pca_default.json"
VERIFY_GOLDEN = GOLDEN.with_name("verify_full.json")
MATRIX_GOLDEN = GOLDEN.with_name("matrix.json")

# One BLAS thread, set in the child before numpy loads: with the default
# thread count the BLAS reduction order, and so the hash, depends on the
# core count.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

FINAL_ROW_RTOL = 1e-6
FINAL_ROW_ATOL = 1e-8


def environment_stamp() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = "+".join(config.get("SIMD Extensions", {}).get("found", []))
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}; {platform.machine()}; simd {simd}"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A child Python under PINNED_ENV, with the package on its path."""
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "mcsd.cli", *args)


def run_default_bench(out_dir: Path) -> None:
    run_cli("pca-bench", "--output-dir", str(out_dir)).check_returncode()


def run_verify_full() -> list[str]:
    """The machine lines (header first) that `verify --level full --report`
    writes; a failed bound (exit 1) still writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "verify.csv"
        proc = run_cli("verify", "--level", "full", "--report", str(report))
        assert proc.returncode in (0, 1), proc.stderr
        return report.read_text().splitlines()


def stripped_rows(path: Path) -> list[list[str]]:
    """The CSV's rows without the trailing wall-clock column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "elapsed_s"
    return [row[:-1] for row in rows]


def trace_digest(out_dir: Path) -> tuple[str, dict[str, list[float]]]:
    """SHA-256 over every CSV (name and rows minus elapsed_s), and each
    CSV's final row as floats."""
    digest = hashlib.sha256()
    finals = {}
    for path in sorted(out_dir.glob("*.csv")):
        rows = stripped_rows(path)
        digest.update(path.name.encode() + b"\n")
        digest.update("\n".join(",".join(row) for row in rows).encode() + b"\n")
        finals[path.name] = [float(v) for v in rows[-1]]
    return digest.hexdigest(), finals


def test_default_trace_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        run_default_bench(Path(tmp))
        sha, finals = trace_digest(Path(tmp))
        summary = json.loads((Path(tmp) / "summary.json").read_text())
    assert sorted(finals) == sorted(golden["final_rows"])
    assert all(count == 0 for st in summary["methods"].values() for count in st["fallback_count"])
    if environment_stamp() == golden["stamp"]:
        assert sha == golden["sha256"]
        return
    for name, row in finals.items():
        np.testing.assert_allclose(row, golden["final_rows"][name], rtol=FINAL_ROW_RTOL, atol=FINAL_ROW_ATOL,
                                   err_msg=name)


def test_verify_lines_match_golden():
    golden = json.loads(VERIFY_GOLDEN.read_text())
    lines = run_verify_full()
    if environment_stamp() == golden["stamp"]:
        assert lines == golden["lines"]
        return
    rows, pinned = parse_verify_lines(lines), parse_verify_lines(golden["lines"])
    assert [(name, passed) for name, _, passed in rows] == [(name, passed) for name, _, passed in pinned]
    for (name, numbers, _), (_, old, _) in zip(rows, pinned):
        np.testing.assert_allclose(numbers, old, rtol=FINAL_ROW_RTOL, atol=FINAL_ROW_ATOL, err_msg=name)


def parse_verify_lines(lines: list[str]) -> list[tuple[str, list[float], str]]:
    """(name, [lhs, rhs, slack], passed) of each machine line after the header."""
    assert lines[0] == "name,lhs,rhs,slack,passed"
    rows = []
    for line in lines[1:]:
        name, lhs, rhs, slack, passed = line.split(",")
        rows.append((name, [float(lhs), float(rhs), float(slack)], passed))
    return rows


def verify_line_deltas(old: list[str], new: list[str]) -> list[str]:
    """Per verify line, |Δ| of lhs, rhs and slack against the old pin, or
    why the line cannot be compared."""
    pinned = parse_verify_lines(old) if old else []
    out = []
    for k, (name, numbers, passed) in enumerate(parse_verify_lines(new)):
        if k >= len(pinned) or pinned[k][0] != name:
            out.append(f"{name}: not pinned")
            continue
        moved = ", ".join(f"{c} {abs(a - b):.2g}" for c, a, b in zip(("lhs", "rhs", "slack"), numbers, pinned[k][1]))
        verdict = "" if passed == pinned[k][2] else f", passed {pinned[k][2]} -> {passed}"
        out.append(f"{name}: |Δ| {moved}{verdict}")
    return out


def test_verify_line_deltas_name_each_move():
    old = ["name,lhs,rhs,slack,passed", "a,1,2,0.5,true", "b,0,0,0,true"]
    new = ["name,lhs,rhs,slack,passed", "a,1.5,2,0.25,false", "c,0,0,0,true"]
    assert verify_line_deltas(old, new) == ["a: |Δ| lhs 0.5, rhs 0, slack 0.25, passed true -> false", "c: not pinned"]


def final_row_deltas(old: dict[str, list[float]], new: dict[str, list[float]]) -> dict[str, list[float]]:
    """Per CSV in both pins, |new − old| of each final-row column."""
    return {name: [abs(a - b) for a, b in zip(row, old[name])] for name, row in new.items() if name in old}


def test_final_row_deltas_compare_each_column_of_csvs_in_both_pins():
    old = {"a.csv": [0.0, 1.0, 2.0], "b.csv": [1.0, 1.0, 1.0]}
    new = {"a.csv": [0.0, 1.5, 1.75], "c.csv": [1.0, 1.0, 1.0]}
    assert final_row_deltas(old, new) == {"a.csv": [0.0, 0.5, 0.25]}


SMCSD = StochasticMcsd(NormKind.SPECTRAL, beta=0.9, noise=NoiseConfig.additive_gaussian(0.1))
MATRIX_METHODS = {"rgd": Rgd(), "spel": Mcsd(NormKind.SPECTRAL), "mm": ManifoldMuon(), "smcsd": SMCSD}
MATRIX_SHAPES = ((200, 5), (6, 6), (5, 5), (50, 1))
MATRIX_STEPS = 20
# The large benchmark's shape, whose instance build dominates these cells.
LARGE_SHAPE, LARGE_METHODS, LARGE_STEPS = (1000, 50), ("rgd", "spel", "mm"), 3


def matrix_traces() -> dict[str, list]:
    """Each matrix cell's records: every method under each polar mode at
    each shape from one Haar point, then rgd, spel and mm at LARGE_SHAPE,
    then the run_seeds stack of 4 smcsd runs at St(200, 5), its traces in
    seed order."""
    traces = {}
    grid = [((n, p), tuple(MATRIX_METHODS), MATRIX_STEPS) for n, p in MATRIX_SHAPES]
    for (n, p), names, steps in [*grid, (LARGE_SHAPE, LARGE_METHODS, LARGE_STEPS)]:
        inst = make_brockett(n, p, 2 * n, data_seed=n + p)
        x0 = random_point(StiefelManifold(n, p), np.random.default_rng(n * p))
        for name in names:
            for mode in (EXACT, PolarMode(8)):
                run = OptimizerRun(MATRIX_METHODS[name], constant_schedule(0.05), x0, np.random.default_rng(p), mode)
                traces[f"{name} {mode.describe()} St({n},{p})"] = run_trace(
                    run, inst, steps, partial(subspace_error, inst))
    inst = make_brockett(200, 5, 400, data_seed=205)
    x0 = random_point(StiefelManifold(200, 5), np.random.default_rng(1000))
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    seeds = run_seeds(SMCSD, constant_schedule(0.05), x0, rngs, inst, MATRIX_STEPS)
    traces["run_seeds smcsd exact 4xSt(200,5)"] = [rec for trace in seeds for rec in trace]
    return traces


def matrix_cells() -> dict[str, dict]:
    """Per cell, the SHA-256 of its records minus elapsed_s and its final
    row (every field but elapsed_s, as floats), computed in a child under
    PINNED_ENV, as the CLI goldens are: at St(1000, 50) the BLAS splits its
    work by the thread count, which moves the bits."""
    proc = run_python(__file__, "--cells")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def matrix_cells_here() -> dict[str, dict]:
    """matrix_cells, in this process."""
    cells = {}
    for name, records in matrix_traces().items():
        rows = [[v for k, v in r._asdict().items() if k != "elapsed_s"] for r in records]
        cells[name] = {"sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
                       "final_row": [float(v) for v in rows[-1]]}
    return cells


def test_method_matrix_matches_golden():
    golden = json.loads(MATRIX_GOLDEN.read_text())
    cells = matrix_cells()
    assert sorted(cells) == sorted(golden["cells"])
    if environment_stamp() == golden["stamp"]:
        assert [name for name, cell in cells.items() if cell["sha256"] != golden["cells"][name]["sha256"]] == []
        return
    for name, cell in cells.items():
        np.testing.assert_allclose(cell["final_row"], golden["cells"][name]["final_row"], rtol=FINAL_ROW_RTOL,
                                   atol=FINAL_ROW_ATOL, err_msg=name)


def repin() -> None:
    """Re-pin both goldens, first printing per CSV how far each final-row
    column moved from the old pin and the largest move per column, then per
    verify line how far its lhs, rhs and slack moved."""
    old = json.loads(GOLDEN.read_text())["final_rows"] if GOLDEN.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        run_default_bench(Path(tmp))
        sha, finals = trace_digest(Path(tmp))
        columns = stripped_rows(next(Path(tmp).glob("*.csv")))[0]
    deltas = final_row_deltas(old, finals)
    for name in finals:
        moved = ", ".join(f"{c} {d:.2g}" for c, d in zip(columns, deltas[name])) if name in deltas else "not pinned"
        print(f"{name}: |Δ| {moved}")
    if deltas:
        worst = [max(col) for col in zip(*deltas.values())]
        print("max |Δ|: " + ", ".join(f"{c} {d:.2g}" for c, d in zip(columns, worst)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"stamp": environment_stamp(), "sha256": sha, "final_rows": finals}, indent=1) + "\n")
    print(f"pinned {sha} under {environment_stamp()}")

    old_lines = json.loads(VERIFY_GOLDEN.read_text())["lines"] if VERIFY_GOLDEN.is_file() else []
    lines = run_verify_full()
    print("\n".join(verify_line_deltas(old_lines, lines)))
    VERIFY_GOLDEN.write_text(json.dumps({"stamp": environment_stamp(), "lines": lines}, indent=1) + "\n")
    print(f"pinned {len(lines) - 1} verify lines under {environment_stamp()}")

    old_cells = json.loads(MATRIX_GOLDEN.read_text())["cells"] if MATRIX_GOLDEN.is_file() else {}
    cells = matrix_cells()
    deltas = final_row_deltas({k: c["final_row"] for k, c in old_cells.items()},
                              {k: c["final_row"] for k, c in cells.items()})
    for name in cells:
        moved = ", ".join(f"{c} {d:.2g}" for c, d in zip(columns, deltas[name])) if name in deltas else "not pinned"
        print(f"{name}: |Δ| {moved}")
    MATRIX_GOLDEN.write_text(json.dumps({"stamp": environment_stamp(), "cells": cells}, indent=1) + "\n")
    print(f"pinned {len(cells)} matrix cells under {environment_stamp()}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--cells"]:
        print(json.dumps(matrix_cells_here()))
    elif sys.argv[1:] == ["--repin"]:
        repin()
    else:
        sys.exit("usage: python tests/test_golden_trace.py --repin")
