"""Traced execution: spans around calls into each mcsd module, from outside.

Each wrapped public function records a span (name, start, end, parent) in
memory; self time is a span's duration minus the time covered by its child
spans. A function imported with `from .x import f` is bound in several
module namespaces, so every binding of the same object in every loaded mcsd
module is replaced, and all of them are restored afterwards. Hot validation
helpers are only counted, because a span per call would dominate them.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

# (defining module, function, span name)
SPANS = (
    ("linalg", "msign_iterative", "linalg.msign_iterative"),
    ("linalg", "msign_exact", "linalg.msign_exact"),
    ("linalg", "svd", "linalg.svd"),
    ("lmo", "lmo", "lmo.lmo"),
    ("lmo", "dual_norm", "lmo.dual_norm"),
    ("manifolds", "project", "manifolds.project"),
    ("manifolds", "random_point", "manifolds.random_point"),
    ("objectives", "make_brockett", "objectives.make_brockett"),
    ("objectives", "subspace_error", "objectives.subspace_error"),
    ("optimizers", "run_trace", "optimizers.run_trace"),
    ("optimizers", "manifold_muon_direction", "optimizers.manifold_muon_direction"),
    ("trace", "write_trace_csv", "trace.write_trace_csv"),
    ("svgchart", "write_chart", "svgchart.write_chart"),
    ("bench", "execute_runs", "bench.execute_runs"),
    ("bench", "run_pca_bench", "bench.run_pca_bench"),
    ("verify", "check_descent_lemma", "verify.check_descent_lemma"),
    ("verify", "brute_force_lmo_check", "verify.brute_force_lmo_check"),
    ("verify", "check_min_grad_rate", "verify.check_min_grad_rate"),
)
# BrockettInstance methods, the objective surface the optimizers call.
METHOD_SPANS = (("value", "objectives.value"), ("euclid_grad", "objectives.euclid_grad"),
                ("stochastic_grad", "objectives.stochastic_grad"))
COUNTED = (("linalg", "as_matrix"), ("manifolds", "feasibility_violation"), ("manifolds", "riemannian_grad"))
STEP_LABELS = ("rgd", "spel", "mm", "smcsd")


class Recorder:
    """Spans and counters of one traced execution, kept until it ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, name_of=None, after=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name_of(args) if name_of else name, time.perf_counter(), 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - covered
        return out


def _step_namer():
    """Span name of `optimizers.step(run, objective)` by the run's method."""
    from mcsd.lmo import NormKind
    from mcsd.optimizers import ManifoldMuon, Rgd, StochasticMcsd

    def name_of(args) -> str:
        method = args[0].method
        if isinstance(method, ManifoldMuon):
            return "optimizers.step.mm"
        if isinstance(method, StochasticMcsd):
            return "optimizers.step.smcsd"
        if isinstance(method, Rgd) or method.norm is NormKind.FROBENIUS:
            return "optimizers.step.rgd"
        return "optimizers.step.spel"

    return name_of


class Instrumented:
    """Context manager that installs the recorder's wrappers in every mcsd
    namespace and restores the original bindings on exit."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.saved: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, name, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if (modname == "mcsd" or modname.startswith("mcsd.")) and getattr(module, name, None) is original:
                self.saved.append((module, name, original))
                setattr(module, name, wrapper)

    def __enter__(self):
        rec = self.rec
        # sys.modules, not package attributes: `mcsd.lmo` is rebound to the
        # lmo function by the package's re-exports.
        mods = {name: sys.modules[f"mcsd.{name}"] for name in
                ("linalg", "lmo", "manifolds", "objectives", "optimizers", "trace", "svgchart", "bench", "verify")}

        def file_bytes(key):
            return lambda result, args: rec.count(key, Path(args[0]).stat().st_size)

        hooks = {
            "optimizers.manifold_muon_direction": lambda result, args: rec.count("mm.fallbacks", result.fallback),
            "optimizers.run_trace": lambda records, args: rec.count("step_wall_s", records[-1].elapsed_s),
            "trace.write_trace_csv": file_bytes("trace.write_trace_csv.bytes"),
            "svgchart.write_chart": file_bytes("svgchart.write_chart.bytes"),
        }
        for modname, fn_name, span in SPANS:
            original = getattr(mods[modname], fn_name)
            self._replace_everywhere(original, fn_name, rec.wrap(original, span, after=hooks.get(span)))
        step = mods["optimizers"].step
        self._replace_everywhere(step, "step", rec.wrap(step, None, name_of=_step_namer()))
        for modname, fn_name in COUNTED:
            original = getattr(mods[modname], fn_name)
            self._replace_everywhere(original, fn_name, rec.counted(original, f"{modname}.{fn_name}"))
        cls = mods["objectives"].BrockettInstance
        for attr, span in METHOD_SPANS:
            original = cls.__dict__[attr]
            self.saved.append((cls, attr, original))
            setattr(cls, attr, rec.wrap(original, span))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-module figures of one traced execution (BENCHMARK.json names)."""
    t = rec.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return t.get(name, zero)

    steps = sum(get(f"optimizers.step.{label}")["calls"] for label in STEP_LABELS)
    step_s = sum(get(f"optimizers.step.{label}")["s"] for label in STEP_LABELS)

    def per_step(key):
        return rec.counts.get(key, 0) / steps if steps else 0.0

    mm_dir = get("optimizers.manifold_muon_direction")
    m: dict[str, float] = {}
    for name in ("linalg.msign_iterative", "linalg.msign_exact", "linalg.svd", "lmo.lmo", "manifolds.project",
                 "manifolds.random_point", "objectives.euclid_grad", "objectives.stochastic_grad",
                 "objectives.subspace_error", "optimizers.manifold_muon_direction"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.s"] = get(name)["self_s"]
    m["linalg.as_matrix.per_step"] = per_step("linalg.as_matrix")
    m["lmo.dual_norm.s"] = get("lmo.dual_norm")["self_s"]
    m["manifolds.feasibility_violation.per_step"] = per_step("manifolds.feasibility_violation")
    m["manifolds.riemannian_grad.per_step"] = per_step("manifolds.riemannian_grad")
    m["objectives.make_brockett.s"] = get("objectives.make_brockett")["self_s"]
    m["objectives.value.s"] = get("objectives.value")["self_s"]
    # Orchestrating spans report inclusive time: a step's whole duration is what
    # steps_per_s inverts and what the program's own step timer measures.
    for label in STEP_LABELS:
        m[f"optimizers.step.{label}.calls"] = get(f"optimizers.step.{label}")["calls"]
        m[f"optimizers.step.{label}.s"] = get(f"optimizers.step.{label}")["s"]
    m["optimizers.run_trace.s"] = get("optimizers.run_trace")["s"]
    m["optimizers.metrics_s"] = get("optimizers.run_trace")["s"] - step_s
    m["optimizers.mm.fallback_ratio"] = rec.counts.get("mm.fallbacks", 0) / mm_dir["calls"] if mm_dir["calls"] else 0.0
    # The program's own step-loop timer (summary.json step_wall_s) against
    # the step spans, which it encloses: a little below 1.
    step_wall = rec.counts.get("step_wall_s", 0.0)
    m["optimizers.step_wall_agreement"] = step_s / step_wall if step_wall else 0.0
    for name in ("trace.write_trace_csv", "svgchart.write_chart"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.s"] = get(name)["self_s"]
        m[f"{name}.bytes"] = rec.counts.get(f"{name}.bytes", 0)
    m["bench.execute_runs.s"] = get("bench.execute_runs")["s"]
    m["bench.self_s"] = get("bench.run_pca_bench")["self_s"]
    for name in ("verify.check_descent_lemma", "verify.brute_force_lmo_check", "verify.check_min_grad_rate"):
        m[f"{name}.s"] = get(name)["s"]
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
