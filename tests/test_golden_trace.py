"""Golden trace: `pca-bench` on the built-in default config, pinned bit for bit.

The CSVs minus their `elapsed_s` column are hashed and compared with the
value in golden/pca_default.json. Their last bits depend on numpy, on the
BLAS build and on the CPU kernels it dispatches to, so the hash is stored
beside a stamp of those. On a machine with a different stamp, each run's
final row is compared instead, to rtol 1e-6 (atol 1e-8 for the quantities
that converge to zero).

A change that moves the bits on purpose re-pins the golden:

    PYTHONPATH=src python tests/test_golden_trace.py --repin

which prints, per CSV, |Δ| of each final-row column against the old pin
before it overwrites it.
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


def run_default_bench(out_dir: Path) -> None:
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "mcsd.cli", "pca-bench", "--output-dir", str(out_dir)],
        env=env, check=True, capture_output=True, text=True,
    )


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


def final_row_deltas(old: dict[str, list[float]], new: dict[str, list[float]]) -> dict[str, list[float]]:
    """Per CSV in both pins, |new − old| of each final-row column."""
    return {name: [abs(a - b) for a, b in zip(row, old[name])] for name, row in new.items() if name in old}


def test_final_row_deltas_compare_each_column_of_csvs_in_both_pins():
    old = {"a.csv": [0.0, 1.0, 2.0], "b.csv": [1.0, 1.0, 1.0]}
    new = {"a.csv": [0.0, 1.5, 1.75], "c.csv": [1.0, 1.0, 1.0]}
    assert final_row_deltas(old, new) == {"a.csv": [0.0, 0.5, 0.25]}


def repin() -> None:
    """Re-pin the golden, first printing per CSV how far each final-row
    column moved from the old pin, and the largest move per column."""
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--repin"]:
        sys.exit("usage: python tests/test_golden_trace.py --repin")
    repin()
