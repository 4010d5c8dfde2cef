"""Layout rules for the package source.

A module of src/mcsd may import only public names from its siblings: an
underscore name is private to the module that defines it, so a caller in
another module makes it a second, undocumented entry point. For the same
reason, a private name its own module never uses is dead code.

The README's Constants table names module constants with their values; a
row that names one must match the code.

Each `mcsd.X` row of the README's Library layout table names only what
exists: every backticked identifier (or hyphenated command name) in it is an attribute of mcsd.X, an
attribute or dataclass field of a class mcsd.X defines, or a CLI subcommand.

The subcommands that `cli.build_parser()` accepts are the ones the README's
CLI block and the `cli` module docstring list.

Every exception class that `mcsd.errors` defines is raised somewhere in the
package: a type nothing raises is dead code, and an `except` clause for it
guards against nothing.

The `iteration t: ` prefix of a step's or a trace record's NumericError is
formatted in one function, `optimizers._named`; a raising site states only
what failed.

No module but `linalg` calls a numpy.linalg function or imports from it:
linalg's `svd` and `eigh` turn every LAPACK failure into NumericError, which
the CLI maps to its exit code, and the spectral oracle's sign and the
nuclear norm come from linalg's factorize, which a run shares between them.
Nor does `linalg` itself call numpy's eigh or eigvalsh: its `eigh` has one
path to LAPACK, the gufunc those wrappers call.

The Gram sign kernel `linalg.gram_polar_factor` has two callers:
`linalg.factorize`, which every Gram sign goes through, and Manifold Muon's
inner loop, which applies it to the Gram matrices it updates itself. A third
would be a second copy of factorize's scaling, Gram and orientation steps.

`factorize` takes a stack in one call per operation, and its Spectrum
reads a stack's signs and nuclear norms the same way, as `frob_norms` and
`frob_inners` take a stack's Frobenius norms and inner products, so no
module but `linalg` calls `factorize(`, `.sign()`, `.nuclear_norm()`,
`frob_norm(` or `frob_inner(` once per slice, in a loop or a comprehension.

One input contract: `linalg.as_matrix` is the one validator of a matrix or
a stack (no module defines a second, `as_2d`), and only `linalg` spells the
"contains non-finite entries" error, which `as_matrix` raises and
`frob_norms` reaches when a norm is not finite.

One entry point for the objective and for the projection, so that what
`verify` certifies is the code a run calls: outside `objectives`, no module
forms f or ∇f from a BrockettInstance's arrays (reads its `c` or `dmat`, or
calls the gradient or value helper behind `evaluate`), and outside
`manifolds`, a polar factor becomes a StiefelPoint only through `project`.
Three other sites build a StiefelPoint: `optimizers.step`, whose held runs
keep their point in a stack's factor, `optimizers.run_seeds`, which stacks
a certified x0, and `make_brockett`, whose w* holds eigenvectors.

A record is a NamedTuple, built once and never assigned. A `@dataclass` in
src/mcsd validates its fields in `__post_init__`, or holds run state that
it assigns after construction (it is not frozen, and a field takes no
`__init__` argument), or is one of three types that a NamedTuple cannot
serve: `Rgd` subclasses `Mcsd` and fixes its norm in a field that
`__init__` does not take, and a NamedTuple can be neither subclassed with
a field nor given one; perfbench copies `BenchConfig` with
`dataclasses.replace`.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

from mcsd import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcsd"
README = PACKAGE.parents[1] / "README.md"

# | `NAME` | value | `module` | role |
CONSTANT_ROW = re.compile(r"^\| `(\w+)` \| ([^|]+?) \| `(\w+)` \|", re.MULTILINE)

# | `mcsd.X` | contents |
LAYOUT_ROW = re.compile(r"^\| `mcsd\.(\w+)` +\|(.*)\|$", re.MULTILINE)
IDENTIFIER = re.compile(r"`([A-Za-z_][\w-]*)`")


def private_sibling_imports(source: str, filename: str) -> list[str]:
    """One line per underscore name that `source` imports from mcsd."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "mcsd":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{filename}:{node.lineno} imports {alias.name} from {'.' * node.level}{module}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in private_sibling_imports(path.read_text(), path.name)]
    assert found == []


def test_the_scan_finds_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from .linalg import EXACT, _gram_polar\n"
        "from . import _helpers\n"
        "from mcsd.lmo import _CACHE\n"
        "from numpy.linalg import _umath_linalg\n"
    )
    assert private_sibling_imports(source, "m.py") == [
        "m.py:2 imports _gram_polar from .linalg",
        "m.py:3 imports _helpers from .",
        "m.py:4 imports _CACHE from mcsd.lmo",
    ]


def unused_private_names(source: str, filename: str) -> list[str]:
    """One line per module-level underscore name (a function, a class or a
    constant) that `source` defines and never reads."""
    tree = ast.parse(source, filename=filename)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{filename}:{line} defines {name} and never uses it" for name, line in defined.items() if name not in read]


def test_every_private_name_is_used_in_its_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in unused_private_names(path.read_text(), path.name)]
    assert found == []


def test_the_scan_finds_unused_private_names():
    source = (
        "__version__ = '1'\n"
        "_LIMIT = 1e300\n"
        "_LOW, _HIGH = 0, 1\n"
        "_TABLE: dict = {}\n"
        "class _Unused:\n"
        "    pass\n"
        "def _helper(x):\n"
        "    _local = 1\n"
        "    return x * _HIGH * _local\n"
        "def public(x):\n"
        "    return _helper(x) + _TABLE.get(x, 0)\n"
    )
    assert unused_private_names(source, "m.py") == [
        "m.py:2 defines _LIMIT and never uses it",
        "m.py:3 defines _LOW and never uses it",
        "m.py:5 defines _Unused and never uses it",
    ]


def unraised_error_classes(errors_source: str, sources: list[str]) -> list[str]:
    """The classes `errors_source` defines that no `raise` in `sources`
    names, as `raise X`, `raise X(...)` or `raise module.X(...)`."""
    defined = [n.name for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [name for name in defined if name not in raised]


def test_every_error_class_is_raised():
    modules = sorted(PACKAGE.glob("*.py"))
    errors = (PACKAGE / "errors.py").read_text()
    assert len(unraised_error_classes(errors, [])) == 3
    assert unraised_error_classes(errors, [path.read_text() for path in modules]) == []


def test_the_scan_finds_unraised_error_classes():
    errors = (
        "class ConfigurationError(ValueError):\n    pass\n"
        "class NumericError(RuntimeError):\n    pass\n"
        "class RankError(NumericError):\n    pass\n"
        "class Signal(Exception):\n    pass\n"
        "class Stale(Exception):\n    pass\n"
    )
    sources = [
        "def f(x):\n    if x:\n        raise ConfigurationError('x')\n    raise errors.NumericError\n",
        "def g():\n    try:\n        pass\n    except RankError:\n        raise\n    raise Signal\n",
        "def h(exc):\n    raise type(exc)('again') from exc\n# raise Stale\n",
    ]
    assert unraised_error_classes(errors, sources) == ["RankError", "Stale"]


def formats_iteration(node) -> bool:
    """Whether `node` is an f-string that formats `iteration {...}`, or a
    str.format template that does."""
    if isinstance(node, ast.JoinedStr):
        return any(
            isinstance(a, ast.Constant) and a.value.endswith("iteration ") and isinstance(b, ast.FormattedValue)
            for a, b in zip(node.values, node.values[1:])
        )
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and "iteration {" in node.value


def iteration_prefix_sites(source: str, filename: str) -> list[str]:
    """One line per string in `source` that formats `iteration {...}`, with
    the function that holds it."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if formats_iteration(child):
                sites.append(f"{filename}:{child.lineno} formats the iteration prefix in {where}")
            else:
                visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source, filename=filename), "the module body")
    return sites


def test_the_iteration_prefix_is_formatted_in_one_function():
    modules = sorted(PACKAGE.glob("*.py"))
    sites = [line for path in modules for line in iteration_prefix_sites(path.read_text(), path.name)]
    assert sites
    assert [line for line in sites if not (line.startswith("optimizers.py:") and line.endswith(" in _named"))] == []


def test_the_scan_finds_iteration_prefix_sites():
    source = (
        "def _named(run, exc):\n"
        "    at = f'iteration {run.t}' if exc.index is None else f'iteration {run.t}, seed {exc.index}'\n"
        "    return type(exc)(f'{at}: {exc}')\n"
        "def _records(run):\n"
        "    raise ValueError(f'iteration {run.t}: the objective value is not finite')\n"
        "TEMPLATE = 'iteration {}: failed'\n"
        "def note(t):\n"
        "    return f'{t} iterations, iteration count {t}'\n"
    )
    assert iteration_prefix_sites(source, "m.py") == [
        "m.py:2 formats the iteration prefix in _named",
        "m.py:2 formats the iteration prefix in _named",
        "m.py:5 formats the iteration prefix in _records",
        "m.py:6 formats the iteration prefix in the module body",
    ]


def numpy_linalg_uses(source: str, filename: str) -> list[str]:
    """One line per call of a numpy.linalg function in `source` (as
    `np.linalg.f(...)` or `numpy.linalg.f(...)`), and per import from it."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg" and isinstance(owner.value, ast.Name)
                    and owner.value.id in ("np", "numpy")):
                found.append(f"{filename}:{node.lineno} calls {owner.value.id}.linalg.{node.func.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            names = [a.name for a in node.names if node.module == "numpy.linalg" or a.name == "linalg"]
            found += [f"{filename}:{node.lineno} imports {name} from {node.module}" for name in names]
    return found


def test_lmo_factors_through_linalg():
    # every module, lmo among them, factors through linalg's svd and eigh
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"]
    assert len(modules) > 5
    assert [line for path in modules for line in numpy_linalg_uses(path.read_text(), path.name)] == []


def test_the_scan_finds_numpy_linalg_uses():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from numpy import linalg, zeros\n"
        "def f(s):\n"
        "    total = np.linalg.svd(s, compute_uv=False).sum()\n"
        "    except_ = np.linalg.LinAlgError\n"
        "    return numpy.linalg.norm(s) + linalg.norm(s) + np.zeros(3).sum()\n"
    )
    assert numpy_linalg_uses(source, "m.py") == [
        "m.py:2 imports svd from numpy.linalg",
        "m.py:3 imports linalg from numpy",
        "m.py:5 calls np.linalg.svd",
        "m.py:7 calls numpy.linalg.norm",
    ]


def numpy_eigensolver_uses(source: str, filename: str) -> list[str]:
    """The lines of numpy_linalg_uses that call or import numpy.linalg's
    eigh or eigvalsh."""
    return [line for line in numpy_linalg_uses(source, filename) if re.search(r"\b(eigh|eigvalsh)( from|$)", line)]


def test_linalg_has_one_eigendecomposition_path():
    # linalg.eigh reaches LAPACK through its own seam, never numpy's wrappers
    assert numpy_eigensolver_uses((PACKAGE / "linalg.py").read_text(), "linalg.py") == []


def test_the_scan_finds_numpy_eigensolver_uses():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh, _umath_linalg\n"
        "def f(a):\n"
        "    w, v = np.linalg.eigh(a)\n"
        "    return numpy.linalg.eigvalsh(a), np.linalg.svd(a), _umath_linalg.eigh_lo(a), np.linalg.eig(a)\n"
    )
    assert numpy_eigensolver_uses(source, "m.py") == [
        "m.py:2 imports eigvalsh from numpy.linalg",
        "m.py:4 calls np.linalg.eigh",
        "m.py:5 calls numpy.linalg.eigvalsh",
    ]


def call_sites(source: str, filename: str, name: str) -> list[str]:
    """One line per call of `name` in `source` (as `name(...)` or
    `module.name(...)`), with the function that holds it."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    sites.append(f"{filename}:{child.lineno} calls {name} in {where}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source, filename=filename), "the module body")
    return sites


def test_one_gram_sign_kernel():
    modules = sorted(PACKAGE.glob("*.py"))
    sites = [line for path in modules for line in call_sites(path.read_text(), path.name, "gram_polar_factor")]
    assert [re.sub(r":\d+ ", " ", line) for line in sites] == [
        "linalg.py calls gram_polar_factor in factorize",
        "optimizers.py calls gram_polar_factor in manifold_muon_direction",
    ]


def test_the_scan_finds_gram_kernel_calls():
    source = (
        "from .linalg import gram_polar_factor\n"
        "def factorize(y):\n"
        "    return gram_polar_factor(y.T @ y, None)\n"
        "def _gram_sign(y):\n"
        "    h = linalg.gram_polar_factor(y.T @ y, 8)[1]\n"
        "    return [gram_polar_factor(m.T @ m, 8) for m in y]\n"
        "KERNEL = gram_polar_factor\n"
        "def other(y):\n"
        "    return gram_polar_factor_like(y), gram_polar_factor\n"
        "WARM = gram_polar_factor(EYE, 1)\n"
    )
    assert call_sites(source, "m.py", "gram_polar_factor") == [
        "m.py:3 calls gram_polar_factor in factorize",
        "m.py:5 calls gram_polar_factor in _gram_sign",
        "m.py:6 calls gram_polar_factor in _gram_sign",
        "m.py:10 calls gram_polar_factor in the module body",
    ]


def per_slice_calls(source: str, filename: str) -> list[str]:
    """One line per call of `factorize(...)`, `frob_norm(...)` or
    `frob_inner(...)`, or of an argument-free `.sign()` or `.nuclear_norm()`,
    that `source` makes in a loop body or a comprehension, once per item (a
    loop's iterable and a comprehension's first iterable are evaluated once)."""
    found = []

    def per_slice(call: ast.Call) -> str | None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("factorize", "frob_norm", "frob_inner") or (
            name in ("sign", "nuclear_norm") and isinstance(func, ast.Attribute) and not call.args and not call.keywords
        ):
            return name
        return None

    def visit(node, where):
        if where and isinstance(node, ast.Call) and per_slice(node):
            found.append(f"{filename}:{node.lineno} calls {per_slice(node)} in a {where}")
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.iter, where)
            for child in [node.target, *node.body, *node.orelse]:
                visit(child, "loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            visit(node.generators[0].iter, where)
            for child in ast.iter_child_nodes(node):
                if child is not node.generators[0]:
                    visit(child, "comprehension")
            for child in ast.iter_child_nodes(node.generators[0]):
                if child is not node.generators[0].iter:
                    visit(child, "comprehension")
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, "loop" if isinstance(node, ast.While) else where)

    visit(ast.parse(source, filename=filename), None)
    return found


def test_no_module_factors_a_stack_slice_by_slice():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"]
    assert len(modules) > 5
    assert [line for path in modules for line in per_slice_calls(path.read_text(), path.name)] == []


def test_the_scan_finds_per_slice_factorizations():
    source = (
        "def f(g, spec, y):\n"
        "    a = [factorize(m, 8) for m in g]\n"
        "    b = np.stack([s.sign() for s in spec.matrices()])\n"
        "    for m in y:\n"
        "        total = linalg.factorize(m).nuclear_norm()\n"
        "    c = [np.sign(m) for m in factorize(y).matrices()]\n"
        "    d = factorize(y, 8).sign(), spec.nuclear_norm()\n"
        "    while spec:\n"
        "        spec = spec.sign()\n"
        "    return {k: v.nuclear_norm() for k, v in spec}\n"
    )
    assert per_slice_calls(source, "m.py") == [
        "m.py:2 calls factorize in a comprehension",
        "m.py:3 calls sign in a comprehension",
        "m.py:5 calls nuclear_norm in a loop",
        "m.py:5 calls factorize in a loop",
        "m.py:9 calls sign in a loop",
        "m.py:10 calls nuclear_norm in a comprehension",
    ]


def test_the_scan_finds_per_slice_frobenius_reductions():
    source = (
        "def f(g, w, d):\n"
        "    a = [0.5 * frob_inner(a, b) for a, b in zip(g, w)]\n"
        "    for k in range(len(d)):\n"
        "        moves = linalg.frob_norm(d[k]) > 0.0\n"
        "    b = frob_norm(g), frob_inner(g, w), frob_norms(g, 'g'), frob_inners(g, w)\n"
        "    c = [frob_norms(m, 'm') for m in frob_inner(g, w)]\n"
        "    while d:\n"
        "        d = frob_inner(d, d)\n"
        "    return {k: frob_norm(v) for k, v in g}\n"
    )
    assert per_slice_calls(source, "m.py") == [
        "m.py:2 calls frob_inner in a comprehension",
        "m.py:4 calls frob_norm in a loop",
        "m.py:8 calls frob_inner in a loop",
        "m.py:9 calls frob_norm in a comprehension",
    ]


def input_contract_breaches(source: str, filename: str) -> list[str]:
    """One line per line of `source` outside linalg.py that spells the
    non-finite input error, and per definition of `as_2d`."""
    found = [] if filename == "linalg.py" else [
        f"{filename}:{lineno} spells the non-finite input error"
        for lineno, line in enumerate(source.splitlines(), 1) if "contains non-finite entries" in line
    ]
    tree = ast.parse(source, filename=filename)
    return found + [f"{filename}:{node.lineno} defines as_2d" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "as_2d"]


def test_one_input_contract():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in input_contract_breaches(path.read_text(), path.name)] == []


def test_the_scan_finds_input_contract_breaches():
    source = (
        "def as_2d(a):\n"
        "    raise ConfigurationError(f'{name} contains non-finite entries')\n"
        "def f(x):\n"
        "    return as_matrix(x, 'x', finite=False)\n"
    )
    assert input_contract_breaches(source, "m.py") == [
        "m.py:2 spells the non-finite input error",
        "m.py:1 defines as_2d",
    ]
    assert input_contract_breaches(source, "linalg.py") == ["linalg.py:1 defines as_2d"]


# (module, function) of each StiefelPoint construction outside manifolds
POINT_SITES = frozenset({("optimizers.py", "step"), ("optimizers.py", "run_seeds"),
                         ("objectives.py", "make_brockett")})
OBJECTIVE_ARRAYS = frozenset({"c", "dmat"})
OBJECTIVE_HELPERS = frozenset({"brockett_grad_unchecked", "value_from_grad", "_brockett_grad", "_value_from_grad"})


def second_spellings(source: str, filename: str) -> list[str]:
    """One line per read of a BrockettInstance's `c` or `dmat` and per call
    of the objective's gradient or value helper outside objectives.py, and
    per StiefelPoint construction outside manifolds.py and POINT_SITES."""
    found = []
    if filename != "objectives.py":
        reads = [node for node in ast.walk(ast.parse(source, filename=filename))
                 if isinstance(node, ast.Attribute) and node.attr in OBJECTIVE_ARRAYS]
        found += [f"{filename}:{node.lineno} reads .{node.attr}"
                  for node in sorted(reads, key=lambda node: (node.lineno, node.col_offset))]
        found += [line for name in sorted(OBJECTIVE_HELPERS) for line in call_sites(source, filename, name)]
    if filename != "manifolds.py":
        found += [line for line in call_sites(source, filename, "StiefelPoint")
                  if (filename, line.rsplit(" in ", 1)[1]) not in POINT_SITES]
    return found


def test_one_entry_point_for_the_objective_and_the_projection():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in second_spellings(path.read_text(), path.name)] == []


def test_the_scan_finds_second_spellings():
    # the descent-lemma sampler as it formed P_M, f and ∇f itself
    source = (
        "from .objectives import brockett_grad_unchecked, value_from_grad\n"
        "def check_descent_lemma(inst, y, d, manifold):\n"
        "    x = StiefelPoint(msign_exact(y), manifold).x\n"
        "    egrad = brockett_grad_unchecked(inst, x)\n"
        "    w = msign_exact(x + d)\n"
        "    return value_from_grad(egrad, x), value_from_grad(objectives._brockett_grad(inst, w), w)\n"
        "def curvature(inst, x):\n"
        "    inst.c[0, 0] = 1.0\n"
        "    return -(inst.c @ x) * inst.dmat, inst.evaluate(x), inst.value(x)\n"
        "def step(run, y):\n"
        "    run.x = StiefelPoint(y, run.manifold)\n"
    )
    assert second_spellings(source, "verify.py") == [
        "verify.py:8 reads .c",
        "verify.py:9 reads .c",
        "verify.py:9 reads .dmat",
        "verify.py:6 calls _brockett_grad in check_descent_lemma",
        "verify.py:4 calls brockett_grad_unchecked in check_descent_lemma",
        "verify.py:6 calls value_from_grad in check_descent_lemma",
        "verify.py:6 calls value_from_grad in check_descent_lemma",
        "verify.py:3 calls StiefelPoint in check_descent_lemma",
        "verify.py:11 calls StiefelPoint in step",
    ]
    assert second_spellings(source, "optimizers.py")[-1] == "optimizers.py:3 calls StiefelPoint in check_descent_lemma"
    assert second_spellings(source, "objectives.py") == [
        "objectives.py:3 calls StiefelPoint in check_descent_lemma",
        "objectives.py:11 calls StiefelPoint in step",
    ]
    assert second_spellings(source, "manifolds.py")[-1] == "manifolds.py:6 calls value_from_grad in check_descent_lemma"


def constant_rows(readme: str) -> list[tuple[str, str, str]]:
    """(name, value, module) of each Constants-table row whose name and
    module cells are backticked identifiers."""
    table = readme.split("\n## Constants\n", 1)[1].split("\n## ", 1)[0]
    return CONSTANT_ROW.findall(table)


def stale_constant_rows(rows: list[tuple[str, str, str]]) -> list[str]:
    """One line per row whose mcsd.<module>.<name> is missing or differs from
    the listed value."""
    stale = []
    for name, value, module in rows:
        try:
            actual = getattr(importlib.import_module(f"mcsd.{module}"), name)
        except (ImportError, AttributeError):
            stale.append(f"mcsd.{module}.{name} does not exist (README: {value})")
            continue
        if actual != float(value):
            stale.append(f"mcsd.{module}.{name} is {actual!r} (README: {value})")
    return stale


def test_readme_constants_match_the_code():
    rows = constant_rows(README.read_text())
    assert len(rows) >= 8
    assert stale_constant_rows(rows) == []


def test_the_constants_check_finds_stale_rows():
    table = (
        "intro\n\n## Constants\n\n| constant | value | module | role |\n|---|---|---|---|\n"
        "| `FEAS_TOL` | 1e-8 | `manifolds` | certified |\n"
        "| `ORTH_VIOLATION_LIMIT` | 1e-6 | `bench` | gone |\n"
        "| `STEP_RADIUS` | 0.3 | `optimizers` | moved |\n"
        "| zero tolerance | 1e-14 | `lmo.zero_tolerance` | not a constant |\n"
        "\n## Next\n\n| `X` | 1 | `linalg` | outside the table |\n"
    )
    rows = constant_rows(table)
    assert [name for name, _, _ in rows] == ["FEAS_TOL", "ORTH_VIOLATION_LIMIT", "STEP_RADIUS"]
    assert stale_constant_rows(rows) == [
        "mcsd.bench.ORTH_VIOLATION_LIMIT does not exist (README: 1e-6)",
        "mcsd.optimizers.STEP_RADIUS is 0.2 (README: 0.3)",
    ]


def layout_rows(readme: str) -> list[tuple[str, list[str]]]:
    """(module, backticked identifiers) of each `mcsd.X` row of the README's
    Library layout table."""
    table = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return [(module, IDENTIFIER.findall(contents)) for module, contents in LAYOUT_ROW.findall(table)]


def stale_layout_names(rows: list[tuple[str, list[str]]], subcommands: list[str]) -> list[str]:
    """One line per identifier that is neither an attribute of its row's
    module, nor an attribute or dataclass field of a class that module
    defines, nor a subcommand."""
    stale = []
    for module_name, names in rows:
        module = importlib.import_module(f"mcsd.{module_name}")
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
        known = set(dir(module)) | set(subcommands)
        for cls in classes:
            known |= set(dir(cls))
            if dataclasses.is_dataclass(cls):
                known |= {f.name for f in dataclasses.fields(cls)}
        stale += [f"mcsd.{module_name} row names {name}, which does not exist" for name in names if name not in known]
    return stale


def test_readme_layout_names_only_what_exists():
    rows = layout_rows(README.read_text())
    assert [module for module, _ in rows] == [
        "linalg", "manifolds", "lmo", "objectives", "optimizers", "verify", "trace", "svgchart", "bench", "cli",
    ]
    subcommands = parser_subcommands(cli.build_parser().format_usage())
    assert stale_layout_names(rows, subcommands) == []


def test_the_layout_check_finds_stale_names():
    table = (
        "intro\n\n## Library layout\n\n| module | contents |\n|---|---|\n"
        "| `mcsd.linalg`  | `msign_exact`, `msign_stack` (gone), x + `α·d` |\n"
        "| `mcsd.objectives` | `BrockettInstance` (`evaluate`, `data_seed`, `redraw`) |\n"
        "| `mcsd.bench`   | the `verify` battery, the `orth-violation` command |\n"
        "\n## Next\n\n| `mcsd.lmo` | `outside` |\n"
    )
    rows = layout_rows(table)
    assert rows == [
        ("linalg", ["msign_exact", "msign_stack"]),
        ("objectives", ["BrockettInstance", "evaluate", "data_seed", "redraw"]),
        ("bench", ["verify", "orth-violation"]),
    ]
    assert stale_layout_names(rows, ["pca-bench", "verify"]) == [
        "mcsd.linalg row names msign_stack, which does not exist",
        "mcsd.objectives row names redraw, which does not exist",
        "mcsd.bench row names orth-violation, which does not exist",
    ]


def parser_subcommands(usage: str) -> list[str]:
    """The {a,b,...} choices of an argparse usage line."""
    return re.search(r"\{([^}]*)\}", usage).group(1).split(",")


def readme_subcommands(readme: str) -> list[str]:
    """The subcommand of each `mcsd-bench <name> ...` line in the first code
    block of the README's Command-line interface section."""
    section = readme.split("\n## Command-line interface\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1] for line in block.splitlines() if line.startswith("mcsd-bench ")]


def docstring_subcommands(doc: str) -> list[str]:
    """The names after `Subcommands:` up to the next full stop."""
    return [name.strip() for name in re.search(r"Subcommands:([^.]+)\.", doc).group(1).split(",")]


def test_subcommands_match_the_readme_and_the_docstring():
    names = parser_subcommands(cli.build_parser().format_usage())
    assert len(names) >= 3
    assert readme_subcommands(README.read_text()) == names
    assert docstring_subcommands(cli.__doc__) == names


def test_the_subcommand_scans_read_their_sources():
    assert parser_subcommands("usage: mcsd-bench [-h] {pca-bench,verify} ...\n") == ["pca-bench", "verify"]
    readme = (
        "intro\n\n## Command-line interface\n\n```sh\n"
        "mcsd-bench pca-bench [config]   # comparison\n"
        "# mcsd-bench gone\n"
        "mcsd-bench verify --level fast\n```\n\n"
        "```sh\nmcsd-bench second-block\n```\n\n## Next\n\n```sh\nmcsd-bench other-section\n```\n"
    )
    assert readme_subcommands(readme) == ["pca-bench", "verify"]
    doc = "Entry point.\n\nSubcommands: pca-bench, rgd-sweep,\north-violation. Exit codes: 0.\n"
    assert docstring_subcommands(doc) == ["pca-bench", "rgd-sweep", "orth-violation"]


# The dataclasses that a NamedTuple cannot serve (see the module docstring)
RECORD_EXEMPT = frozenset({"Mcsd", "Rgd", "BenchConfig"})


def dataclass_frozen(node: ast.ClassDef) -> bool | None:
    """Whether node's @dataclass decorator freezes it, or None if node has none."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            keywords = deco.keywords if isinstance(deco, ast.Call) else []
            return any(kw.arg == "frozen" and ast.literal_eval(kw.value) for kw in keywords)
    return None


def plain_records(source: str, filename: str) -> list[str]:
    """One line per @dataclass of `source` outside RECORD_EXEMPT that defines
    no `__post_init__` and is frozen or has no field with init=False."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ClassDef) or node.name in RECORD_EXEMPT:
            continue
        frozen = dataclass_frozen(node)
        if frozen is None:
            continue
        validates = any(isinstance(s, ast.FunctionDef) and s.name == "__post_init__" for s in node.body)
        run_state = not frozen and any(
            kw.arg == "init" and ast.literal_eval(kw.value) is False
            for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.value, ast.Call)
            for kw in s.value.keywords
        )
        if not (validates or run_state):
            found.append(f"{filename}:{node.lineno} {node.name} is a plain record, not a NamedTuple")
    return found


def test_records_are_named_tuples():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in plain_records(path.read_text(), path.name)] == []


def test_the_scan_finds_plain_records():
    source = (
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    label: str\n"
        "@dataclasses.dataclass\n"
        "class Row:\n"
        "    value: float = field(default=0.0, repr=False)\n"
        "@dataclass(frozen=True)\n"
        "class Checked:\n"
        "    n: int\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "@dataclass\n"
        "class Run:\n"
        "    t: int = field(default=0, init=False)\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    t: int = field(default=0, init=False)\n"
        "@dataclass(frozen=True)\n"
        "class BenchConfig:\n"
        "    n: int\n"
        "class Record(NamedTuple):\n"
        "    n: int\n"
    )
    assert plain_records(source, "m.py") == [
        "m.py:2 Spec is a plain record, not a NamedTuple",
        "m.py:5 Row is a plain record, not a NamedTuple",
        "m.py:16 Frozen is a plain record, not a NamedTuple",
    ]
