"""The package exports what the program runs.

Every public name in the ``rainbowcw`` namespace must be used by another
part of the program (a module of ``src/rainbowcw`` other than
``__init__.py``, outside the name's own definition) or by the benchmark.
A helper that only tests call belongs beside the tests that call it.
"""

import ast
import inspect
import re
from pathlib import Path

import rainbowcw

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in the program calls, each with its reason.
ALLOWED = {
    "verify_differential_formula": "checks the paper's closed form of the sparse "
    "Eagon-Northcott differential (tests/test_acceptance.py, criterion 3)",
    "verify_multidegree_bijection": "checks the paper's bijection between basis "
    "elements and valid block monomials (tests/test_acceptance.py, criterion 3)",
    "betti_table_formula": "checks the paper's closed-form Betti table of a "
    "linear rainbow DFI (tests/test_acceptance.py, criterion 6)",
    "is_linear_strand_of_module": "checks the paper's homological criterion for "
    "the linear strand of a module (tests/test_acceptance.py, criterion 5)",
    "taylor_complex": "the Taylor resolution of any monomial ideal; the "
    "console-script CI job checks the installed sweep on it",
}


def _public_names():
    return sorted(
        name for name, value in vars(rainbowcw).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )


def _names_used_in_src():
    """The names each program module reads or calls, not counting those in
    a top-level definition of the same name or in imports."""
    used = set()
    for path in (ROOT / "src" / "rainbowcw").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.discard(statement.name)
            used |= names
    return used


def _unused(names):
    """The names that neither the program's modules nor the benchmark use."""
    used = _names_used_in_src()
    bench = "\n".join(p.read_text() for p in (ROOT / "benchmark").glob("*.py"))
    return [
        name for name in names
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench)
    ]


def test_every_public_name_is_used_by_the_program():
    unused = _unused(name for name in _public_names() if name not in ALLOWED)
    assert unused == [], f"exported but used only by tests: {unused}"


def test_the_allowlist_holds_only_unused_exports():
    assert set(ALLOWED) <= set(_public_names())
    assert _unused(ALLOWED) == list(ALLOWED)
