"""Per-iteration trace records and their CSV serialization.

Row t describes the iterate x_t: objective, subspace error, orthogonality
violation, and the dual norm of the Riemannian gradient there, plus the
step size and inner-iteration count of the step taken *from* x_t (zero on
the final row, where no step follows). The columns are TraceRecord's fields
in order: ints are written as ints and floats with 17 significant digits,
so traces round-trip bit-faithfully.
"""

import csv
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .errors import ConfigurationError


@dataclass
class TraceRecord:
    iter: int
    objective: float
    subspace_error: float
    orth_violation: float
    grad_dual_norm: float
    step_size: float
    inner_iters: int
    elapsed_s: float


CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))
# int or float, which also parse the CSV text; this module evaluates its
# annotations (no `from __future__ import annotations`), so these are classes
_TYPES = tuple(f.type for f in fields(TraceRecord))
_FORMATS = tuple("d" if t is int else ".17g" for t in _TYPES)
_values = attrgetter(*CSV_COLUMNS)


def write_trace_csv(path, records: list[TraceRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([format(v, spec) for v, spec in zip(_values(r), _FORMATS)])


def read_trace_csv(path) -> list[TraceRecord]:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_COLUMNS:
            raise ConfigurationError(
                f"trace file {path} has columns {header}, expected {CSV_COLUMNS}"
            )
        records = []
        for row in reader:
            try:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"{len(row)} fields, expected {len(CSV_COLUMNS)}")
                records.append(TraceRecord(*(parse(v) for parse, v in zip(_TYPES, row))))
            except ValueError as exc:
                raise ConfigurationError(f"trace file {path} line {reader.line_num}: {exc}") from exc
        return records
