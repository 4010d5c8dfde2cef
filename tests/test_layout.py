"""Layout rules for the package source.

A module of src/mcsd may import only public names from its siblings: an
underscore name is private to the module that defines it, so a caller in
another module makes it a second, undocumented entry point.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcsd"


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
        "from mcsd.lmo import _SQ_MIN\n"
        "from numpy.linalg import _umath_linalg\n"
    )
    assert private_sibling_imports(source, "m.py") == [
        "m.py:2 imports _gram_polar from .linalg",
        "m.py:3 imports _helpers from .",
        "m.py:4 imports _SQ_MIN from mcsd.lmo",
    ]
