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

A change that moves the bits on purpose re-pins both goldens:

    PYTHONPATH=src python tests/test_golden_trace.py --repin

which prints, per CSV, |Δ| of each final-row column against the old pin,
and per verify line |Δ| of its lhs, rhs and slack, before it overwrites
them.
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "pca_default.json"
VERIFY_GOLDEN = GOLDEN.with_name("verify_full.json")

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


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mcsd.cli", *args], env=env, capture_output=True, text=True)


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--repin"]:
        sys.exit("usage: python tests/test_golden_trace.py --repin")
    repin()
